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
  * own, with the same answer. [[oneScan]] resolves every pass in one call
  * and returns one [[Scan]].
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

  /** What [[oneScan]] resolved: the block sizes, the groups'
    * pre-estimates sorted by group, footnote 1's shift (0 unless
    * `shifted`), the moment pass's samples per block, and the pre-estimate
    * of a block's group.
    */
  private[repro] final case class Scan(sizes: Map[Long, Long], pres: Seq[BlockPre], shift: Double,
                                       moments: Map[Long, BlockSample], pre: Long => BlockPre)

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
    oneScan(df, lit(0L), valueCol, Some(Map(0L -> dataSize)), p, seed, "ISLA", pooled = true).pres.head

  /** sketch₀'s rate in a group of `n` rows with pilot σ̂ `sigma`: Eq. 1 at
    * the relaxed precision t_e·e.
    */
  private def sketchRate(p: IslaParams)(sigma: Double, n: Long): Double = SampleSize.rate(sigma, p.te * p.e, p, n)

  private def nonEmpty(sizes: Map[Long, Long]) = { require(sizes.values.sum > 0, "empty input"); sizes }

  /** Pass 1, pass 2 and a moment pass in one job
    * ([[SampleAgg.oneScan]], labelled "`label` σ pilot + sketch₀ +
    * moments"), which also counts the blocks' rows without `sizes`, then
    * resolved in order on the driver:
    *  - the σ pilot (seed), and each group's σ̂;
    *  - footnote 1's shift, if `shifted`: when a pilot saw a value ≤ 0,
    *    −(lowest pilot minimum) + max(largest σ̂, 1), which keeps every
    *    value positive;
    *  - sketch₀ (seed+1) at the relaxed Eq.-1 rate, and each group's
    *    boundaries `Boundaries(sketch₀ + shift, σ̂, p₁, p₂)`;
    *  - the moment pass (seed+2) at `momentRate`, plus the shift, split by
    *    its block's group's boundaries.
    *
    * Each stream is replayed from the scan if it can be, else run as its
    * own pass (labelled "`label` σ pilot", "… sketch₀" or "… moments"),
    * and checked for NaN and ±Inf values once it is on the driver.
    *
    * @param pooled     one pilot group for the whole input (i.i.d.), else one per block
    * @param momentRate each block's moment rate, or its rates from the
    *                   groups' pre-estimates; 0 for no moment pass
    * @param shifted    whether footnote 1's shift applies
    */
  private[repro] def oneScan(df: DataFrame, block: Column, valueCol: String, sizes: Option[Map[Long, Long]],
                            p: IslaParams, seed: Long, label: String, pooled: Boolean,
                            momentRate: MomentRate = noMoments, shifted: Boolean = false): Scan = {
    sizes.foreach(nonEmpty)
    val value = col(valueCol)
    val scan = SampleAgg.oneScan(df, block, value, s"$label σ pilot + sketch₀ + moments", seed, p.sigmaPilot,
      pooled, sizes, SampleAgg.planned(df, block, value).cachedRows, sketchRate(p), momentRate, fusedCap.value)
    val blockSizes = nonEmpty(sizes.getOrElse(scan.sizes))
    val groups = if (pooled) Map(0L -> blockSizes.values.sum) else blockSizes
    val group: Long => Long = if (pooled) _ => 0L else identity
    val groupCol = if (pooled) lit(0L) else block

    // A stream replayed at its resolved rates, or else run as its own pass (seed + offset).
    def resolve(drawn: Seq[SampleAgg.Drawn], phase: String, offset: Int, by: Column, rate: Long => Double,
                bounds: Long => Option[Boundaries] = _ => None, shift: Double = 0.0): Map[Long, BlockSample] = {
      val samples = SampleAgg.replay(drawn, rate, bounds, shift)
        .getOrElse(SampleAgg.run(df, by, value, s"$label $phase", seed + offset, rate, bounds, shift))
      require(samples.values.forall(_.finite), s"column $valueCol has NaN or infinite values")
      samples
    }
    def at(rates: Map[Long, Double]): Long => Double = rates.getOrElse(_, 0.0)

    val pilot = resolve(scan.pilot, "σ pilot", 0, groupCol,
      at(groups.map { case (g, n) => g -> SampleSize.pilotRate(p.sigmaPilot, n) }))
    def pl(g: Long) = pilot.getOrElse(g, new BlockSample(1))
    val sigma = groups.map { case (g, _) => g -> SampleSize.sigma(pl(g).sd, pl(g).avg, pl(g).min) }
    val lowest = groups.keys.map(pl(_).min).min
    val shift = if (shifted && lowest <= 0) -lowest + math.max(sigma.values.max, 1.0) else 0.0
    val sketch = resolve(scan.sketch, "sketch₀", 1, groupCol,
      at(groups.map { case (g, n) => g -> sketchRate(p)(sigma(g), n) }))
    val pres = groups.keys.toSeq.sorted.map { g =>
      BlockPre(g, groups(g), sigma(g), sketch.get(g).filter(_.n > 0).fold(pl(g).avg)(_.avg), pl(g).min)
    }
    val boundaries = pres.map(pr => pr.block -> Boundaries(pr.sketch0 + shift, pr.sigma, p.p1, p.p2)).toMap
    val moments = resolve(scan.moments, "moments", 2, block, momentRate.fold(identity, _(pres)),
      b => boundaries.get(group(b)), shift)
    Scan(blockSizes, pres, shift, moments, pres.map(pr => pr.block -> pr).toMap.compose(group))
  }
}
