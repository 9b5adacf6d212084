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
  * (§III-A). When the block sizes are not given, the same pass counts
  * them (the paper reads them from metadata). Pass 2 draws the sketch
  * sample at the Eq.-1 rate for the *relaxed* precision t_e·e, giving
  * sketch₀ its relaxed confidence interval (sketch₀ − t_e·e,
  * sketch₀ + t_e·e) (§III-B).
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
    perBlock(df, lit(0L), valueCol, Some(Map(0L -> dataSize)), pooled = false, p, seed, "ISLA")._2.head

  /** Both pilot passes over the pooled input, for a caller that may lack
    * the block sizes: returns them — as given, else counted per `blockCol`
    * by the σ pilot — with the pooled pre-estimate.
    */
  def pooled(df: DataFrame, valueCol: String, sizes: Option[Map[Long, Long]], p: IslaParams,
             blockCol: String = "block", seed: Long = 7L): (Map[Long, Long], BlockPre) = {
    val (blockSizes, pres) = perBlock(df, col(blockCol), valueCol, sizes, pooled = true, p, seed, "ISLA")
    (blockSizes, pres.head)
  }

  /** Both pilot passes, each one job, with a pilot in every group: each
    * block, or with `pooled` the whole input as group 0. Without `sizes`
    * the σ pilot also counts the blocks' rows. Returns the block sizes and
    * the groups' pre-estimates, sorted by group; `label` prefixes the job
    * descriptions.
    */
  private[core] def perBlock(df: DataFrame, block: Column, valueCol: String, sizes: Option[Map[Long, Long]],
                             pooled: Boolean, p: IslaParams, seed: Long,
                             label: String): (Map[Long, Long], Seq[BlockPre]) = {
    val group = if (pooled) lit(0L) else block
    def groups(sizes: Map[Long, Long]) = if (pooled) Map(0L -> sizes.values.sum) else sizes
    def pilotRates(groups: Map[Long, Long]) = groups.map { case (g, n) => g -> SampleAgg.pilotRate(p.sigmaPilot, n) }
    def nonEmpty(sizes: Map[Long, Long]) = { require(sizes.values.sum > 0, "empty input"); sizes }
    def pass(phase: String, seed: Long, rates: Map[Long, Double]): Map[Long, BlockSample] =
      SampleAgg.run(df, group, col(valueCol), s"$label $phase", seed, rates.getOrElse(_, 0.0))

    // Pass 1: σ (and min, for the negative-data shift) from a small pilot,
    // which counts the blocks' rows when their sizes are not given.
    val (blockSizes, pilot) = sizes match {
      case Some(s) => (nonEmpty(s), pass("σ pilot", seed, pilotRates(groups(s))))
      case None =>
        val (s, pl) = SampleAgg.pilot(df, block, col(valueCol), s"$label σ pilot", seed, p.sigmaPilot, pooled)
        (nonEmpty(s), pl)
    }
    val sized = groups(blockSizes)
    val rates = pilotRates(sized)

    // Pass 2: sketch₀ at the relaxed precision t_e·e (Eq. 1 with e' = t_e·e);
    // for a constant group any sample gives the exact mean.
    val sketch = pass("sketch₀", seed + 1, sized.map { case (g, n) =>
      val sd = pilot.get(g).fold(0.0)(_.sd)
      g -> (if (sd <= 0) rates(g) else SampleSize.samplingRate(sd, p.te * p.e, p.beta, n))
    })

    (blockSizes, sized.keys.toSeq.sorted.map { g =>
      val pl = pilot.getOrElse(g, new BlockSample(1))
      val sk = sketch.get(g).filter(_.n > 0).fold(pl.avg)(_.avg)
      BlockPre(g, sized(g), pl.sd, sk, pl.min)
    })
  }
}
