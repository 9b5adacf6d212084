package repro.core

import scala.util.DynamicVariable

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions.{col, lit}

/** Pre-estimates (§III) of one block — of the whole input, as block 0, in
  * the i.i.d. pipeline — with the pilot minimum that footnote 1 uses.
  */
final case class BlockPre(block: Long, size: Long, sigma: Double, sketch0: Double, pilotMin: Double)

/** Pre-estimation module (§III): two small uniform passes, which share one
  * scan with the moment pass that follows ([[oneScan]]).
  *
  * Pass 1 draws a fixed-size pilot in each group (the pooled input, or
  * each block) to estimate σ; σ only feeds Eq. 1 and the data boundaries,
  * so its own error needs no assurance (§III-A). When the block sizes are
  * not given, the same scan counts them (the paper reads them from
  * metadata). Pass 2 draws the sketch sample at the Eq.-1 rate for the
  * *relaxed* precision t_e·e, giving sketch₀ its relaxed confidence
  * interval (sketch₀ − t_e·e, sketch₀ + t_e·e) (§III-B).
  *
  * No rate is known during the scan, so each pass keeps candidates below
  * a speculative bound, and the driver replays them once σ̂ fixes the
  * rates. A pass whose candidates cannot give its sample runs again on its
  * own, with the same answer.
  */
object PreEstimation {

  /** Most candidates, per stream, that a [[oneScan]] may send the driver:
    * 4·10⁶ (64 MB), far below Spark's default 1 GiB
    * `spark.driver.maxResultSize`, shared evenly by the partitions. A
    * stream over it runs as its own pass. Dynamic so that tests can reach
    * both sides.
    */
  private[core] val fusedCap = new DynamicVariable[Double](4e6)

  /** Each block's moment rate: `Left` when known before the scan, else
    * `Right`, made from the groups' pre-estimates.
    */
  private[repro] type MomentRate = Either[Long => Double, Seq[BlockPre] => Long => Double]

  /** No moment pass. */
  private val noMoments: MomentRate = Left(_ => 0.0)

  /** Both pilot passes over the pooled input (the i.i.d. pipeline), in
    * one scan.
    *
    * @param df       blocked input data
    * @param valueCol numeric aggregation column
    * @param dataSize total data size M (from metadata / block sizes)
    * @param p        ISLA parameters (β, e, t_e, pilot size)
    * @param seed     RNG seed; pass 2 uses seed+1
    */
  def run(df: DataFrame, valueCol: String, dataSize: Long, p: IslaParams, seed: Long = 7L): BlockPre =
    oneScan(df, lit(0L), valueCol, Some(Map(0L -> dataSize)), p, seed, "ISLA", pooled = true).sketch0().head

  /** sketch₀'s rate in a group of `n` rows with pilot σ̂ `sigma`: Eq. 1 at
    * the relaxed precision t_e·e; for a constant group any sample gives
    * the exact mean.
    */
  private def sketchRate(p: IslaParams)(sigma: Double, n: Long): Double =
    if (sigma <= 0) SampleAgg.pilotRate(p.sigmaPilot, n)
    else SampleSize.samplingRate(sigma, p.te * p.e, p.beta, n)

  private def nonEmpty(sizes: Map[Long, Long]) = { require(sizes.values.sum > 0, "empty input"); sizes }

  /** Pass 1, pass 2 and a moment pass in one job
    * ([[SampleAgg.oneScan]], labelled "`label` σ pilot + sketch₀ +
    * moments"), which also counts the blocks' rows without `sizes`. The
    * σ pilot is resolved here, sketch₀ and the moment pass by
    * [[SigmaPilot.sketch0]] and [[SigmaPilot.withMoments]]; a pass whose
    * candidates cannot give its sample runs on its own (labelled
    * "`label` σ pilot", "… sketch₀" or "… moments").
    *
    * @param pooled     one pilot group for the whole input (i.i.d.), else one per block
    * @param momentRate each block's moment rate, or its rates from the
    *                   groups' pre-estimates; 0 for no moment pass
    */
  private[repro] def oneScan(df: DataFrame, block: Column, valueCol: String, sizes: Option[Map[Long, Long]],
                            p: IslaParams, seed: Long, label: String, pooled: Boolean,
                            momentRate: MomentRate = noMoments): SigmaPilot = {
    sizes.foreach(nonEmpty)
    val value = col(valueCol)
    val scan = SampleAgg.oneScan(df, block, value, s"$label σ pilot + sketch₀ + moments", seed, p.sigmaPilot,
      pooled, sizes, sketchRate(p), momentRate, fusedCap.value)
    val blockSizes = nonEmpty(sizes.getOrElse(scan.sizes))
    val groups = if (pooled) Map(0L -> blockSizes.values.sum) else blockSizes
    val rates = groups.map { case (g, n) => g -> SampleAgg.pilotRate(p.sigmaPilot, n) }
    val pilot = SampleAgg.replay(scan.pilot, rates.getOrElse(_, 0.0)).getOrElse(
      SampleAgg.run(df, if (pooled) lit(0L) else block, value, s"$label σ pilot", seed, rates.getOrElse(_, 0.0)))
    new SigmaPilot(df, block, valueCol, pooled, p, seed, label, blockSizes, groups, pilot, scan, momentRate)
  }

  /** Pre-estimation after pass 1: the block sizes, and each group's size
    * and pilot. Pass 2 is replayed from `scan` if it can be, else run:
    * [[sketch0]] alone, and [[withMoments]] with the moment pass at
    * `momentRate`. Every sample is checked for NaN and ±Inf values once it
    * is on the driver.
    */
  private[repro] final class SigmaPilot(df: DataFrame, block: Column, valueCol: String, pooled: Boolean,
                                       p: IslaParams, seed: Long, label: String, val sizes: Map[Long, Long],
                                       val groups: Map[Long, Long], pilot: Map[Long, BlockSample],
                                       scan: SampleAgg.Speculation, momentRate: MomentRate) {
    private val value = col(valueCol)
    finite(pilot)

    private def pl(g: Long) = pilot.getOrElse(g, new BlockSample(1))
    /** A block's group: 0 when pooled, else the block. */
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
      val rate: Long => Double = rates.getOrElse(_, 0.0)
      val sketch = SampleAgg.replay(scan.sketch, rate).getOrElse(
        SampleAgg.run(df, if (pooled) lit(0L) else block, value, s"$label sketch₀", seed + 1, rate))
      groups.keys.toSeq.sorted.map { g =>
        val sk = finite(sketch).get(g).filter(_.n > 0).fold(pl(g).avg)(_.avg)
        BlockPre(g, groups(g), sigma(g), sk, pl(g).min)
      }
    }

    /** Pass 2 and the moment pass (seed+2, each block at its rate, plus
      * `shift`, split by the boundaries `bounds` makes of its group's
      * pre-estimate).
      *
      * @return the groups' pre-estimates, sorted by group, and the moment
      *         pass's samples per block
      */
    def withMoments(shift: Double)(bounds: BlockPre => Boundaries): (Seq[BlockPre], Map[Long, BlockSample]) = {
      val pres = sketch0()
      val r = momentRate.fold(identity, _(pres))
      val byGroup = pres.map(pr => pr.block -> bounds(pr)).toMap
      val bs: Long => Option[Boundaries] = if (pooled) { val all = byGroup.get(0L); _ => all } else byGroup.get
      (pres, finite(SampleAgg.replay(scan.moments, r, bs, shift)
        .getOrElse(SampleAgg.run(df, block, value, s"$label moments", seed + 2, r, bs, shift))))
    }
  }
}
