package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col

/** Full ISLA output: the final answer plus everything the paper's
  * evaluation section reports about a run (sketch₀, rate, partials).
  */
final case class IslaResult(
    answer: Double,
    sketch0: Double,
    sigma: Double,
    rate: Double,
    dataSize: Long,
    shift: Double,
    blocks: Seq[BlockResult],
) {
  /** Per-block partial answers (Table IV's "Partial 1..b"). */
  def partials: Seq[Double] = blocks.map(_.avg)
}

/** ISLA end to end (Fig. 2): Pre-estimation → per-block Calculation
  * (sampling + iteration) → Summarization.
  *
  * The two data-touching phases are Spark jobs (pilot passes and the
  * single-pass per-block moment aggregation of Algorithm 1); the
  * iteration phase is O(b·log(|D⁰|/thr)) scalar work on the driver, and
  * Summarization is the size-weighted merge Σ avg_j·|Bⱼ|/M.
  *
  * This is the pooled case of the per-block pipeline of [[IslaNonIid]]:
  * the input is pre-estimated as one block, so every block shares its
  * boundaries and one Eq.-1 rate.
  *
  * Negative data are handled per footnote 1 of §IV-A2: when a pilot sees
  * values ≤ 0 the whole computation runs on `value + shift` (shift =
  * max(σ, 1) − pilot min, keeping everything strictly positive) and the
  * final answer is translated back.
  */
object Isla {

  /** Run ISLA on a blocked DataFrame.
    *
    * @param df       input with `valueCol` (numeric) and `blockCol` (block id)
    * @param valueCol aggregation column
    * @param p        algorithm parameters (paper defaults)
    * @param sizes    optional precomputed block sizes (metadata); counted by the σ pilot if absent
    * @param seed     RNG seed; the pilots use seed and seed+1, the main pass seed+2
    */
  def run(
      df: DataFrame,
      valueCol: String,
      p: IslaParams = IslaParams(),
      sizes: Option[Map[Long, Long]] = None,
      blockCol: String = "block",
      seed: Long = 7L,
  ): IslaResult = {
    val (blockSizes, pre) = PreEstimation.pooled(df, valueCol, sizes, p, blockCol, seed)
    val m = pre.size
    val rate = p.rateOverride.getOrElse {
      if (pre.sigma <= 0) SampleAgg.pilotRate(p.sigmaPilot, m) // constant data
      else math.min(1.0, SampleSize.samplingRate(pre.sigma, p.e, p.beta, m) * p.rateFraction)
    }
    val (answer, shift, blocks) =
      calculate(df, valueCol, blockCol, blockSizes, blockSizes.map(_._1 -> pre), _ => rate, p, seed, "ISLA")
    IslaResult(answer, pre.sketch0, pre.sigma, rate, m, shift, blocks)
  }

  /** Calculation and Summarization, shared by both pipelines: the
    * footnote-1 shift from all pre-estimates, each block's boundaries from
    * its pre-estimate on the shifted scale, one moment pass (Algorithm 1,
    * seed+2) at each block's rate, modulation (Algorithm 2) and the
    * size-weighted merge, shifted back. `label` prefixes the pass's job
    * description. Returns the answer, the shift and the blocks.
    */
  private[core] def calculate(df: DataFrame, valueCol: String, blockCol: String, sizes: Map[Long, Long],
                              pre: Map[Long, BlockPre], rate: Long => Double, p: IslaParams, seed: Long,
                              label: String): (Double, Double, Seq[BlockResult]) = {
    val lowest = pre.values.map(_.pilotMin).min
    val shift = if (lowest <= 0) -lowest + math.max(pre.values.map(_.sigma).max, 1.0) else 0.0
    val bounds = pre.map { case (b, pr) => b -> Boundaries(pr.sketch0 + shift, pr.sigma, p.p1, p.p2) }
    val samples = SampleAgg.run(df, col(blockCol), col(valueCol), s"$label moments", seed + 2, rate, bounds.get, shift)
    val blocks = Moments.of(samples, sizes).map(bm => Modulation.solveBlock(bm, bounds(bm.block).sketch0, p))
    (summarize(blocks) - shift, shift, blocks)
  }

  /** Summarization module (§II-C): Σ avg_j·|Bⱼ| / M. */
  def summarize(blocks: Seq[BlockResult]): Double = {
    val m = blocks.map(_.blockSize).sum
    require(m > 0, "no data behind the partial answers")
    blocks.map(b => b.avg * b.blockSize).sum / m
  }
}
