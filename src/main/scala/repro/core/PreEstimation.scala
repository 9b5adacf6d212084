package repro.core

import scala.util.DynamicVariable

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
  *
  * Over the pooled input (i.i.d. ISLA and MVB), both passes and the
  * moment pass that follows share one scan ([[oneScan]]): each keeps
  * candidates below a speculative bound, and the driver replays them once
  * σ̂ fixes the rates. A pass whose candidates cannot give its sample
  * runs again on its own, with the same answer.
  */
object PreEstimation {

  /** Most candidates, per stream, that a [[oneScan]] may send the driver:
    * 4·10⁶ (64 MB), far below Spark's default 1 GiB
    * `spark.driver.maxResultSize`, shared evenly by the partitions. A
    * stream over it runs as its own pass. Dynamic so that tests can reach
    * both sides.
    */
  private[core] val fusedCap = new DynamicVariable[Double](4e6)

  /** Both pilot passes over the pooled input (the i.i.d. pipeline).
    *
    * @param df       blocked input data
    * @param valueCol numeric aggregation column
    * @param dataSize total data size M (from metadata / block sizes)
    * @param p        ISLA parameters (β, e, t_e, pilot size)
    * @param seed     RNG seed; pass 2 uses seed+1
    */
  def run(df: DataFrame, valueCol: String, dataSize: Long, p: IslaParams, seed: Long = 7L): BlockPre =
    sigmaPilot(df, lit(0L), valueCol, Some(Map(0L -> dataSize)), p, seed, "ISLA").sketch0().head

  /** sketch₀'s rate in a group of `n` rows with pilot σ̂ `sigma`: Eq. 1 at
    * the relaxed precision t_e·e; for a constant group any sample gives
    * the exact mean.
    */
  private def sketchRate(p: IslaParams)(sigma: Double, n: Long): Double =
    if (sigma <= 0) SampleAgg.pilotRate(p.sigmaPilot, n)
    else SampleSize.samplingRate(sigma, p.te * p.e, p.beta, n)

  private def nonEmpty(sizes: Map[Long, Long]) = { require(sizes.values.sum > 0, "empty input"); sizes }

  /** Pass 1 alone, one job, with a pilot in every block. Without `sizes`
    * the σ pilot also counts the blocks' rows. `label` prefixes the job
    * descriptions.
    */
  private[repro] def sigmaPilot(df: DataFrame, block: Column, valueCol: String, sizes: Option[Map[Long, Long]],
                               p: IslaParams, seed: Long, label: String): SigmaPilot = {
    val (blockSizes, pilot) = sizes match {
      case Some(s) =>
        val rates = nonEmpty(s).map { case (b, n) => b -> SampleAgg.pilotRate(p.sigmaPilot, n) }
        (s, SampleAgg.run(df, block, col(valueCol), s"$label σ pilot", seed, rates.getOrElse(_, 0.0)))
      case None =>
        val (s, pl) = SampleAgg.pilot(df, block, col(valueCol), s"$label σ pilot", seed, p.sigmaPilot)
        (nonEmpty(s), pl)
    }
    new SigmaPilot(df, block, valueCol, pooled = false, p, seed, label, blockSizes, pilot, None)
  }

  /** Pass 1, pass 2 and a moment pass over the pooled input in one job
    * ([[SampleAgg.oneScan]], labelled "`label` σ pilot + sketch₀ +
    * moments"), which also counts the blocks' rows without `sizes`. The
    * σ pilot is resolved here, sketch₀ and the moment pass by
    * [[SigmaPilot.withMoments]]; a pass whose candidates cannot give its
    * sample runs on its own, as [[sigmaPilot]] and [[SigmaPilot]] run it.
    *
    * @param momentRate the moment pass's rate, or Eq. 1's from σ̂ and M
    */
  private[repro] def oneScan(df: DataFrame, block: Column, valueCol: String, sizes: Option[Map[Long, Long]],
                            p: IslaParams, seed: Long, label: String,
                            momentRate: Either[Double, (Double, Long) => Double]): SigmaPilot = {
    sizes.foreach(nonEmpty)
    val value = col(valueCol)
    val scan = SampleAgg.oneScan(df, block, value, s"$label σ pilot + sketch₀ + moments", seed, p.sigmaPilot,
      sizes.map(_.values.sum), sketchRate(p), momentRate, fusedCap.value)
    val blockSizes = nonEmpty(sizes.getOrElse(scan.sizes))
    val rate = SampleAgg.pilotRate(p.sigmaPilot, blockSizes.values.sum)
    val pilot = SampleAgg.replay(scan.pilot, _ => rate)
      .getOrElse(SampleAgg.run(df, lit(0L), value, s"$label σ pilot", seed, _ => rate))
    new SigmaPilot(df, block, valueCol, pooled = true, p, seed, label, blockSizes, pilot, Some(scan))
  }

  /** Pre-estimation after pass 1: the block sizes, and each group's size
    * and pilot. Pass 2 is replayed from `scan`, if given and valid, else
    * run: [[sketch0]] alone, and [[withMoments]] with the moment pass.
    * Every sample is checked for NaN and ±Inf values once it is on the
    * driver.
    */
  private[repro] final class SigmaPilot(df: DataFrame, block: Column, valueCol: String, pooled: Boolean,
                                       p: IslaParams, seed: Long, label: String, val sizes: Map[Long, Long],
                                       pilot: Map[Long, BlockSample], scan: Option[SampleAgg.Speculation]) {
    private val value = col(valueCol)
    finite(pilot)

    /** Each group's size: each block's, or with `pooled` the input's as group 0. */
    val groups: Map[Long, Long] = if (pooled) Map(0L -> sizes.values.sum) else sizes
    private def pl(g: Long) = pilot.getOrElse(g, new BlockSample(1))
    def group(b: Long): Long = if (pooled) 0L else b
    def sigma(g: Long): Double = pl(g).sd

    /** Footnote 1's shift: when a pilot saw a value ≤ 0, −(lowest pilot
      * minimum) + max(largest σ, 1), which keeps every value positive.
      */
    def shift: Double = {
      val lowest = groups.keys.map(pl(_).min).min
      if (lowest <= 0) -lowest + math.max(groups.keys.map(sigma).max, 1.0) else 0.0
    }

    private val sketchRates = groups.map { case (g, n) => g -> sketchRate(p)(sigma(g), n) }

    private def finite(samples: Map[Long, BlockSample]): Map[Long, BlockSample] = {
      require(samples.values.forall(_.finite), s"column $valueCol has NaN or infinite values")
      samples
    }

    /** Pass 2 (seed+1): the groups' pre-estimates, sorted by group. */
    def sketch0(): Seq[BlockPre] = {
      val rates = sketchRates // a local, so the task closure does not capture this pilot
      val sketch = scan.flatMap(s => SampleAgg.replay(s.sketch, rates)).getOrElse(
        SampleAgg.run(df, if (pooled) lit(0L) else block, value, s"$label sketch₀", seed + 1, rates.getOrElse(_, 0.0)))
      groups.keys.toSeq.sorted.map { g =>
        val sk = finite(sketch).get(g).filter(_.n > 0).fold(pl(g).avg)(_.avg)
        BlockPre(g, groups(g), sigma(g), sk, pl(g).min)
      }
    }

    /** Pass 2 and a moment pass (seed+2, each block at its `rate`, plus
      * `shift`, split by the boundaries `bounds` makes of its group's
      * pre-estimate). `rate` is `Left` when known before sketch₀, else
      * made from the pre-estimates.
      *
      * @return the groups' pre-estimates, sorted by group, and the moment
      *         pass's samples per block
      */
    def withMoments(rate: Either[Long => Double, Seq[BlockPre] => Long => Double], shift: Double)(
        bounds: BlockPre => Boundaries): (Seq[BlockPre], Map[Long, BlockSample]) = {
      val pres = sketch0()
      val r = rate.fold(identity, _(pres))
      val byGroup = pres.map(pr => pr.block -> bounds(pr)).toMap
      val bs: Long => Option[Boundaries] = if (pooled) { val all = byGroup.get(0L); _ => all } else byGroup.get
      (pres, finite(scan.flatMap(s => SampleAgg.replay(s.moments, r, bs, shift))
        .getOrElse(SampleAgg.run(df, block, value, s"$label moments", seed + 2, r, bs, shift))))
    }
  }
}
