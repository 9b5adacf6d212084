package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col

/** ISLA for non-i.i.d. blocks (§VII-C): the pipeline of [[Isla]] run per
  * block instead of pooled. It differs from i.i.d. ISLA in two places:
  *  - pre-estimation draws a pilot *in each block*, yielding per-block σⱼ
  *    and sketch₀ⱼ, hence per-block data boundaries;
  *  - block leverages `blevⱼ = (1+σⱼ²)/(b+Σσᵢ²)` reflect local variance,
  *    and block Bⱼ samples at rate `r·M·blevⱼ/|Bⱼ|` — dispersed blocks
  *    are sampled more (inspired by bi-level sampling [1]); the overall
  *    rate r comes from Eq. 1 with the pooled pilot σ.
  *
  * The footnote-1 shift, the moment pass, modulation and summarization
  * are [[Isla.calculate]]'s, shared with the i.i.d. pipeline.
  */
object IslaNonIid {

  private val label = "ISLA non-i.i.d."

  /** Per-block [[PreEstimation]]: σⱼ and pilot minⱼ from a pilot in
    * each block, then sketch₀ⱼ at the relaxed precision t_e·e.
    */
  def preEstimate(
      df: DataFrame,
      valueCol: String,
      sizes: Map[Long, Long],
      p: IslaParams,
      blockCol: String = "block",
      seed: Long = 7L,
  ): Seq[BlockPre] =
    PreEstimation.sigmaPilot(df, col(blockCol), valueCol, Some(sizes), p, seed, label).sketch0()

  /** Block leverage `blevⱼ = (1+σⱼ²)/(b+Σσᵢ²)` (§VII-C). */
  def blockLeverages(pres: Seq[BlockPre]): Map[Long, Double] = {
    val b = pres.size
    val sumVar = pres.map(pr => pr.sigma * pr.sigma).sum
    pres.map(pr => pr.block -> (1.0 + pr.sigma * pr.sigma) / (b + sumVar)).toMap
  }

  /** The pooled σ and the overall rate r from it (Eq. 1). The pooled σ is
    * the size-weighted mixture of each block's σⱼ and sketch₀ⱼ (law of
    * total variance: E[σⱼ²] + Var[sketch₀ⱼ]).
    */
  private def overallRate(pres: Seq[BlockPre], m: Long, p: IslaParams): (Double, Double) = {
    val pooledSigma = math.sqrt(
      pres.map(pr => pr.size.toDouble * (pr.sigma * pr.sigma + pr.sketch0 * pr.sketch0)).sum / m
        - math.pow(pres.map(pr => pr.size.toDouble * pr.sketch0).sum / m, 2)
    ).max(1e-9)
    (pooledSigma, p.rateOverride.getOrElse(SampleSize.samplingRate(pooledSigma, p.e, p.beta, m) * p.rateFraction))
  }

  /** Run non-i.i.d. ISLA end to end. */
  def run(
      df: DataFrame,
      valueCol: String,
      p: IslaParams = IslaParams(),
      sizes: Option[Map[Long, Long]] = None,
      blockCol: String = "block",
      seed: Long = 7L,
  ): IslaResult = {
    // Without sizes, the σ pilots count the blocks' rows.
    val pilot = PreEstimation.sigmaPilot(df, col(blockCol), valueCol, sizes, p, seed, label)
    val m = pilot.sizes.values.sum
    // The rates read every block's sketch₀ⱼ, so sketch₀ and the moment pass are two scans.
    val (pres, answer, shift, blocks) = Isla.calculate(pilot, Right { pres =>
      val r = overallRate(pres, m, p)._2
      val blev = blockLeverages(pres)
      val rates = pilot.sizes.map { case (b, n) => b -> math.min(1.0, r * m * blev(b) / n) }
      rates.getOrElse(_, 0.0)
    }, p)
    val (pooledSigma, r) = overallRate(pres, m, p)
    IslaResult(answer, Double.NaN, pooledSigma, r, m, shift, blocks)
  }
}
