package repro.baselines

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col

import repro.core.SampleAgg

/** Result of a baseline estimator: the final answer and the per-block
  * partial answers (Table IV reports partials for the comparators too).
  */
final case class BaselineResult(answer: Double, partials: Seq[(Long, Double)])

/** Uniform sampling (US, §VIII-B/F): one global Bernoulli sample, the
  * answer is the plain sample mean — every sample weighted identically,
  * which is exactly the behaviour ISLA's leverages improve on.
  */
object UniformSampling {

  /** Estimate AVG(valueCol) from a Bernoulli sample at `rate`. */
  def run(df: DataFrame, valueCol: String, rate: Double,
          blockCol: String = "block", seed: Long = 11L): BaselineResult = {
    require(rate > 0 && rate <= 1, s"rate must be in (0,1]: $rate")
    val rows = SampleAgg.run(df, col(blockCol), col(valueCol), "US", seed, _ => rate)
      .toSeq.sortBy(_._1)
      .collect { case (b, s) if s.n > 0 => (b, s.all.sum, s.all.n) }
    val totalSum = rows.map(_._2).sum
    val totalN = rows.map(_._3).sum
    require(totalN > 0, "uniform sample came back empty — rate too small for this data size")
    // Global sample mean; partials are the per-block sample means.
    BaselineResult(totalSum / totalN, rows.map(r => (r._1, r._2 / r._3)).toSeq)
  }
}

/** Stratified sampling (STS, §VIII-B/F). The paper gives no construction
  * detail; in its blocked storage model the blocks are the natural
  * strata, so we stratify by block with proportional allocation and use
  * the textbook stratified estimator Σ (|Bⱼ|/M)·mean(sampleⱼ).
  */
object StratifiedSampling {

  /** Estimate AVG(valueCol) with block strata at per-stratum rate `rate`. */
  def run(df: DataFrame, valueCol: String, rate: Double,
          sizes: Option[Map[Long, Long]] = None,
          blockCol: String = "block", seed: Long = 13L): BaselineResult = {
    require(rate > 0 && rate <= 1, s"rate must be in (0,1]: $rate")
    val samples = SampleAgg.run(df, col(blockCol), col(valueCol), "STS", seed, _ => rate)
    // Without sizes, the pass's own row counts are the strata sizes.
    val blockSizes = sizes.getOrElse(samples.map { case (b, s) => b -> s.rows })
    val m = blockSizes.values.sum
    val means = samples.collect { case (b, s) if s.n > 0 => b -> s.avg }
    require(means.nonEmpty, "STS sample came back empty")
    val partials = blockSizes.keys.toSeq.sorted.map { b =>
      // A stratum whose sample is empty contributes its size with the
      // unweighted mean of the sampled strata's means (no information → no
      // correction).
      b -> means.getOrElse(b, means.values.sum / means.size)
    }
    val answer = partials.map { case (b, p) => p * blockSizes(b) }.sum / m
    BaselineResult(answer, partials)
  }
}
