package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col

/** Per-block pre-estimates for the non-i.i.d. extension. */
final case class BlockPre(block: Long, size: Long, sigma: Double, sketch0: Double, pilotMin: Double)

/** ISLA for non-i.i.d. blocks (§VII-C).
  *
  * Differences from the i.i.d. pipeline:
  *  - a pilot is drawn *in each block*, yielding per-block σⱼ and
  *    sketch₀ⱼ, hence per-block data boundaries;
  *  - block leverages `blevⱼ = (1+σⱼ²)/(b+Σσᵢ²)` reflect local variance,
  *    and block Bⱼ samples at rate `r·M·blevⱼ/|Bⱼ|` — dispersed blocks
  *    are sampled more (inspired by bi-level sampling [1]);
  *  - the overall rate r comes from Eq. 1 with the pooled pilot σ.
  *
  * Per-block rates and boundaries are plain driver-side maps that the
  * [[SampleAgg]] kernel looks up once per block and partition, so the
  * sampling phase remains one Spark job.
  */
object IslaNonIid {

  /** Per-block pilot pass: σⱼ, pilot mean/min, and a second per-block
    * pass for sketch₀ⱼ at the relaxed precision t_e·e.
    */
  def preEstimate(
      df: DataFrame,
      valueCol: String,
      sizes: Map[Long, Long],
      p: IslaParams,
      blockCol: String = "block",
      seed: Long = 7L,
  ): Seq[BlockPre] = {
    def pass(label: String, seed: Long, rates: Map[Long, Double]): Map[Long, BlockSample] =
      SampleAgg.run(df, col(blockCol), col(valueCol), label, seed, rates.getOrElse(_, 0.0))
    val pilotRates = sizes.map { case (b, n) => b -> math.min(1.0, p.sigmaPilot.toDouble / n) }
    val pilot = pass("ISLA non-i.i.d. σ pilot", seed, pilotRates)

    val sketch = pass("ISLA non-i.i.d. sketch₀", seed + 1, sizes.map { case (b, n) =>
      val sd = pilot.get(b).fold(0.0)(_.sd)
      b -> (if (sd <= 0) pilotRates(b) else SampleSize.samplingRate(sd, p.te * p.e, p.beta, n))
    })

    sizes.keys.toSeq.sorted.map { b =>
      val pl = pilot.getOrElse(b, new BlockSample(1))
      val sk = sketch.get(b).filter(_.n > 0).fold(pl.avg)(_.avg)
      BlockPre(b, sizes(b), pl.sd, sk, pl.min)
    }
  }

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
    val blockSizes = sizes.getOrElse(Moments.blockSizes(df, blockCol))
    val m = blockSizes.values.sum
    require(m > 0, "empty input")

    val pres = preEstimate(df, valueCol, blockSizes, p, blockCol, seed)

    // Footnote-1 shift: one global translation keeps every block positive.
    val minSeen = pres.map(_.pilotMin).min
    val maxSigma = math.max(pres.map(_.sigma).max, 1.0)
    val shift = if (minSeen <= 0) -minSeen + maxSigma else 0.0

    // Overall rate from the pooled dispersion (upper bound of block σs is a
    // faithful stand-in for the pooled pilot σ — it only scales r).
    val pooledSigma = math.sqrt(
      pres.map(pr => pr.size.toDouble * (pr.sigma * pr.sigma + pr.sketch0 * pr.sketch0)).sum / m
        - math.pow(pres.map(pr => pr.size.toDouble * pr.sketch0).sum / m, 2)
    ).max(1e-9)
    val r = p.rateOverride.getOrElse(
      SampleSize.samplingRate(pooledSigma, p.e, p.beta, m) * p.rateFraction)

    val blev = blockLeverages(pres)
    val rates = blockSizes.map { case (b, n) => b -> math.min(1.0, r * m * blev(b) / n) }
    val boundsByBlock = pres.map { pr =>
      pr.block -> Boundaries(pr.sketch0 + shift, pr.sigma, p.p1, p.p2)
    }.toMap
    val samples = SampleAgg.run(df, col(blockCol), col(valueCol), "ISLA non-i.i.d. moments", seed + 2,
      rates.getOrElse(_, 0.0), boundsByBlock.get, shift)
    val blocks = Moments.of(samples, blockSizes).map(bm =>
      Modulation.solveBlock(bm, boundsByBlock(bm.block).sketch0, p))
    val answer = Isla.summarize(blocks) - shift
    IslaResult(answer, Double.NaN, pooledSigma, r, m, shift, blocks)
  }
}
