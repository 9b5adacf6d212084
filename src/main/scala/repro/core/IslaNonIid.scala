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
    PreEstimation.perBlock(df, col(blockCol), valueCol, Some(sizes), pooled = false, p, seed, label)._2

  /** Block leverage `blevⱼ = (1+σⱼ²)/(b+Σσᵢ²)` (§VII-C). */
  def blockLeverages(pres: Seq[BlockPre]): Map[Long, Double] = {
    val b = pres.size
    val sumVar = pres.map(pr => pr.sigma * pr.sigma).sum
    pres.map(pr => pr.block -> (1.0 + pr.sigma * pr.sigma) / (b + sumVar)).toMap
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
    val (blockSizes, pres) =
      PreEstimation.perBlock(df, col(blockCol), valueCol, sizes, pooled = false, p, seed, label)
    val m = blockSizes.values.sum

    // Overall rate from the pooled σ: the size-weighted mixture of each
    // block's σⱼ and sketch₀ⱼ (law of total variance: E[σⱼ²] + Var[sketch₀ⱼ]).
    val pooledSigma = math.sqrt(
      pres.map(pr => pr.size.toDouble * (pr.sigma * pr.sigma + pr.sketch0 * pr.sketch0)).sum / m
        - math.pow(pres.map(pr => pr.size.toDouble * pr.sketch0).sum / m, 2)
    ).max(1e-9)
    val r = p.rateOverride.getOrElse(
      SampleSize.samplingRate(pooledSigma, p.e, p.beta, m) * p.rateFraction)

    val blev = blockLeverages(pres)
    val rates = blockSizes.map { case (b, n) => b -> math.min(1.0, r * m * blev(b) / n) }
    val (answer, shift, blocks) = Isla.calculate(df, valueCol, blockCol, blockSizes,
      pres.map(pr => pr.block -> pr).toMap, rates.getOrElse(_, 0.0), p, seed, label)
    IslaResult(answer, Double.NaN, pooledSigma, r, m, shift, blocks)
  }
}
