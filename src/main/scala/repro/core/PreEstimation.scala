package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions.{col, lit}

/** Pre-estimates (§III) of one block — of the whole input, as block 0, in
  * the i.i.d. pipeline — with the pilot minimum that footnote 1 uses.
  */
final case class BlockPre(block: Long, size: Long, sigma: Double, sketch0: Double, pilotMin: Double)

/** Pre-estimation module (§III): two small uniform [[SampleAgg]] passes.
  *
  * Pass 1 draws a fixed-size pilot in each block to estimate σ; σ only feeds
  * Eq. 1 and the data boundaries, so its own error needs no assurance
  * (§III-A). Pass 2 draws the sketch sample at the Eq.-1 rate for the
  * *relaxed* precision t_e·e, giving sketch₀ its relaxed confidence
  * interval (sketch₀ − t_e·e, sketch₀ + t_e·e) (§III-B).
  */
object PreEstimation {

  /** Both pilot passes over the pooled input (the i.i.d. pipeline).
    *
    * @param df       blocked input data
    * @param valueCol numeric aggregation column
    * @param dataSize total data size M (from metadata / block sizes)
    * @param p        ISLA parameters (β, e, t_e, pilot size)
    * @param seed     RNG seed; pass 2 uses seed+1
    */
  def run(df: DataFrame, valueCol: String, dataSize: Long, p: IslaParams, seed: Long = 7L): BlockPre =
    perBlock(df, lit(0L), valueCol, Map(0L -> dataSize), p, seed, "ISLA").head

  /** Both pilot passes, each one job, with a pilot in every block of
    * `sizes`, sorted by block id; `label` prefixes the job descriptions.
    */
  private[core] def perBlock(df: DataFrame, block: Column, valueCol: String, sizes: Map[Long, Long],
                             p: IslaParams, seed: Long, label: String): Seq[BlockPre] = {
    def pass(phase: String, seed: Long, rates: Map[Long, Double]): Map[Long, BlockSample] =
      SampleAgg.run(df, block, col(valueCol), s"$label $phase", seed, rates.getOrElse(_, 0.0))

    // Pass 1: σ (and min, for the negative-data shift) from a small pilot.
    val pilotRates = sizes.map { case (b, n) => b -> math.min(1.0, p.sigmaPilot.toDouble / n) }
    val pilot = pass("σ pilot", seed, pilotRates)

    // Pass 2: sketch₀ at the relaxed precision t_e·e (Eq. 1 with e' = t_e·e);
    // for a constant block any sample gives the exact mean.
    val sketch = pass("sketch₀", seed + 1, sizes.map { case (b, n) =>
      val sd = pilot.get(b).fold(0.0)(_.sd)
      b -> (if (sd <= 0) pilotRates(b) else SampleSize.samplingRate(sd, p.te * p.e, p.beta, n))
    })

    sizes.keys.toSeq.sorted.map { b =>
      val pl = pilot.getOrElse(b, new BlockSample(1))
      val sk = sketch.get(b).filter(_.n > 0).fold(pl.avg)(_.avg)
      BlockPre(b, sizes(b), pl.sd, sk, pl.min)
    }
  }
}
