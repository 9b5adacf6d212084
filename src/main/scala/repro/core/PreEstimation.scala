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
  * sketch₀ + t_e·e) (§III-B). When the moment pass that follows needs
  * nothing of sketch₀ but its boundaries, pass 2 shares its scan
  * ([[SigmaPilot.withMoments]]).
  */
object PreEstimation {

  /** Most moment values, in expectation, that a fused pass may keep for
    * the driver: 4·10⁶ doubles (32 MB), far below Spark's default 1 GiB
    * `spark.driver.maxResultSize`. Above it, sketch₀ and the moment pass
    * run as two passes. Dynamic so that tests can reach both sides.
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
    sigmaPilot(df, lit(0L), valueCol, Some(Map(0L -> dataSize)), pooled = false, p, seed, "ISLA").sketch0().head

  /** Pass 1, one job, with a pilot in every group: each block, or with
    * `pooled` the whole input as group 0. Without `sizes` the σ pilot also
    * counts the blocks' rows. `label` prefixes the job descriptions.
    */
  private[repro] def sigmaPilot(df: DataFrame, block: Column, valueCol: String, sizes: Option[Map[Long, Long]],
                               pooled: Boolean, p: IslaParams, seed: Long, label: String): SigmaPilot = {
    def nonEmpty(sizes: Map[Long, Long]) = { require(sizes.values.sum > 0, "empty input"); sizes }
    // σ (and min, for the negative-data shift) from a small pilot, which
    // counts the blocks' rows when their sizes are not given.
    val (blockSizes, pilot) = sizes match {
      case Some(s) =>
        val rates = groupSizes(nonEmpty(s), pooled).map { case (g, n) => g -> SampleAgg.pilotRate(p.sigmaPilot, n) }
        (s, SampleAgg.run(df, if (pooled) lit(0L) else block, col(valueCol), s"$label σ pilot", seed,
          rates.getOrElse(_, 0.0)))
      case None =>
        val (s, pl) = SampleAgg.pilot(df, block, col(valueCol), s"$label σ pilot", seed, p.sigmaPilot, pooled)
        (nonEmpty(s), pl)
    }
    new SigmaPilot(df, block, col(valueCol), pooled, p, seed, label, blockSizes, pilot)
  }

  /** Pre-estimation after pass 1: the block sizes, and each group's size
    * and pilot. Pass 2 has not run: [[sketch0]] runs it alone, and
    * [[withMoments]] with the moment pass.
    */
  private[repro] final class SigmaPilot(df: DataFrame, block: Column, value: Column, pooled: Boolean, p: IslaParams,
                                       seed: Long, label: String, val sizes: Map[Long, Long],
                                       pilot: Map[Long, BlockSample]) {
    /** Each group's size: each block's, or with `pooled` the input's as group 0. */
    val groups: Map[Long, Long] = groupSizes(sizes, pooled)
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

    // Pass 2's rates: sketch₀ at the relaxed precision t_e·e (Eq. 1 with
    // e' = t_e·e); for a constant group any sample gives the exact mean.
    private val sketchRates = groups.map { case (g, n) =>
      g -> (if (sigma(g) <= 0) SampleAgg.pilotRate(p.sigmaPilot, n)
            else SampleSize.samplingRate(sigma(g), p.te * p.e, p.beta, n))
    }

    private def pres(sketch: Map[Long, BlockSample]): Seq[BlockPre] = groups.keys.toSeq.sorted.map { g =>
      val sk = sketch.get(g).filter(_.n > 0).fold(pl(g).avg)(_.avg)
      BlockPre(g, groups(g), sigma(g), sk, pl(g).min)
    }

    /** Pass 2 alone (seed+1): the groups' pre-estimates, sorted by group. */
    def sketch0(): Seq[BlockPre] = {
      val rates = sketchRates // a local, so the task closure does not capture this pilot
      pres(SampleAgg.run(df, if (pooled) lit(0L) else block, value, s"$label sketch₀", seed + 1,
        rates.getOrElse(_, 0.0)))
    }

    /** Pass 2 and a moment pass (seed+2, each block at its `rate`, plus
      * `shift`, split by the boundaries `bounds` makes of its group's
      * pre-estimate). `rate` is `Left` when known before sketch₀, else
      * made from the pre-estimates. A known rate of a pooled pilot whose
      * expected samples, Σⱼ rate·|Bⱼ|, fit under [[fusedCap]] lets both
      * passes share one [[SampleAgg.fused]] scan; the samples are then
      * [[SampleAgg.replay]]ed, so either way they are the same bit for bit.
      * `phase` names the moment pass in its job description.
      *
      * @return the groups' pre-estimates, sorted by group, and the moment
      *         pass's samples per block
      */
    def withMoments(rate: Either[Long => Double, Seq[BlockPre] => Long => Double], shift: Double, phase: String)(
        bounds: BlockPre => Boundaries): (Seq[BlockPre], Map[Long, BlockSample]) = {
      def boundsOf(pres: Seq[BlockPre]): Long => Option[Boundaries] = {
        val byGroup = pres.map(pr => pr.block -> bounds(pr)).toMap
        if (pooled) { val all = byGroup.get(0L); _ => all } else byGroup.get
      }
      rate match {
        case Left(r) if pooled && sizes.map { case (b, n) => r(b) * n }.sum <= fusedCap.value =>
          val (sketch, kept) = SampleAgg.fused(df, block, value, s"$label sketch₀ + $phase", seed + 1,
            sketchRates(0L), seed + 2, r, shift)
          val pres = this.pres(sketch)
          (pres, SampleAgg.replay(kept, boundsOf(pres)))
        case _ =>
          val pres = sketch0()
          (pres, SampleAgg.run(df, block, value, s"$label $phase", seed + 2, rate.fold(identity, _(pres)),
            boundsOf(pres), shift))
      }
    }
  }

  private def groupSizes(sizes: Map[Long, Long], pooled: Boolean): Map[Long, Long] =
    if (pooled) Map(0L -> sizes.values.sum) else sizes
}
