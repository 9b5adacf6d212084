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
  *    rate r comes from Eq. 1 with the pooled σ of the blocks' σⱼ and
  *    sketch₀ⱼ.
  *
  * The per-block σ pilots, sketch₀ⱼ and the moment pass share one scan,
  * with or without the block sizes, which one call to
  * [[PreEstimation.oneScan]] resolves, footnote-1 shift included.
  * Modulation and summarization are [[Isla.calculate]]'s, shared with the
  * i.i.d. pipeline.
  */
object IslaNonIid {

  private val label = "ISLA non-i.i.d."

  /** Per-block [[PreEstimation]]: σⱼ and pilot minⱼ from a pilot in
    * each block, and sketch₀ⱼ at the relaxed precision t_e·e, in one scan.
    */
  def preEstimate(
      df: DataFrame,
      valueCol: String,
      sizes: Map[Long, Long],
      p: IslaParams,
      blockCol: String = "block",
      seed: Long = 7L,
  ): Seq[BlockPre] =
    PreEstimation.oneScan(df, col(blockCol), valueCol, Some(sizes), p, seed, label, pooled = false).pres

  /** Block leverage `blevⱼ = (1+σⱼ²)/(b+Σσᵢ²)` (§VII-C). */
  def blockLeverages(pres: Seq[BlockPre]): Map[Long, Double] = {
    val b = pres.size
    val sumVar = pres.map(pr => pr.sigma * pr.sigma).sum
    pres.map(pr => pr.block -> (1.0 + pr.sigma * pr.sigma) / (b + sumVar)).toMap
  }

  /** The pooled σ and the overall rate r from it (Eq. 1). The pooled σ is
    * the size-weighted mixture of each block's σⱼ and sketch₀ⱼ (law of
    * total variance: E[σⱼ²] + Var[sketch₀ⱼ]), with Var[sketch₀ⱼ] taken
    * around the weighted mean s̄, Σnⱼ(sⱼ − s̄)²/M: as E[sⱼ²] − s̄² it
    * cancels catastrophically, or goes negative, when s̄ is large against σ.
    * On constant blocks the sketch₀ⱼ differ by rounding only, and so the
    * pooled σ is 0 ([[SampleSize.sigma]]).
    */
  private def overallRate(pres: Seq[BlockPre], m: Long, p: IslaParams): (Double, Double) = {
    val mean = pres.map(pr => pr.size.toDouble * pr.sketch0).sum / m
    val pooledSigma = SampleSize.sigma(math.sqrt(
      pres.map(pr => pr.size.toDouble * (pr.sigma * pr.sigma + (pr.sketch0 - mean) * (pr.sketch0 - mean))).sum / m),
      mean, pres.map(_.pilotMin).min)
    (pooledSigma, p.rateOverride.getOrElse(SampleSize.rate(pooledSigma, p.e, p, m) * p.rateFraction))
  }

  /** Each block's rate `min(1, r·M·blevⱼ/|Bⱼ|)` from the blocks' pre-estimates. */
  private def rates(p: IslaParams)(pres: Seq[BlockPre]): Long => Double = {
    val m = pres.map(_.size).sum
    val r = overallRate(pres, m, p)._2
    val blev = blockLeverages(pres)
    val rates = pres.map(pr => pr.block -> math.min(1.0, r * m * blev(pr.block) / pr.size)).toMap
    rates.getOrElse(_, 0.0)
  }

  /** Run non-i.i.d. ISLA end to end, in one scan of `df`. */
  def run(
      df: DataFrame,
      valueCol: String,
      p: IslaParams = IslaParams(),
      sizes: Option[Map[Long, Long]] = None,
      blockCol: String = "block",
      seed: Long = 7L,
  ): IslaResult = {
    // Without sizes, the σ pilots count the blocks' rows.
    val scan = PreEstimation.oneScan(df, col(blockCol), valueCol, sizes, p, seed, label, pooled = false,
      Right(rates(p)), shifted = true)
    val (pooledSigma, r) = overallRate(scan.pres, scan.sizes.values.sum, p)
    Isla.calculate(scan, p, Double.NaN, pooledSigma, r)
  }
}
