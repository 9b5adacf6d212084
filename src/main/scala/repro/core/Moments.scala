package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.{col, lit}

/** Running moments of one region's samples — the whole per-region state of
  * Algorithm 1: `param = {counter, sum, squareSum, cubeSum}`.
  *
  * Supports the online extension (§VII-A): a later round of sampling is
  * folded in with [[merge]] without revisiting earlier samples.
  */
final case class RegionMoments(n: Long, sum: Double, sum2: Double, sum3: Double) {
  /** Fold one sample in (`updateParams` of Algorithm 1). */
  def add(a: Double): RegionMoments =
    RegionMoments(n + 1, sum + a, sum2 + a * a, sum3 + a * a * a)

  /** Combine with another round's moments (online mode, §VII-A). */
  def merge(o: RegionMoments): RegionMoments =
    RegionMoments(n + o.n, sum + o.sum, sum2 + o.sum2, sum3 + o.sum3)
}

object RegionMoments {
  /** The all-zero state Algorithm 1 initializes with. */
  val empty: RegionMoments = RegionMoments(0L, 0.0, 0.0, 0.0)

  /** Moments of an explicit sample list (tests / worked examples). */
  def of(as: Seq[Double]): RegionMoments = as.foldLeft(empty)(_.add(_))
}

/** Per-block output of the sampling phase: block size plus S and L moments. */
final case class BlockMoments(block: Long, blockSize: Long, s: RegionMoments, l: RegionMoments)

/** Algorithm 1 (sampling phase) as one [[SampleAgg]] pass.
  *
  * Samples are drawn per block by a Bernoulli draw at rate r (the
  * distributed equivalent of drawing `m = r·|Bⱼ|` uniform samples),
  * classified by the [[Boundaries]], and folded into the S/L moments —
  * no sample is materialized, matching the paper's "drop a" (Algorithm 1,
  * line 12). When the pass shares its scan with pre-estimation
  * ([[SampleAgg.oneScan]]), its rate and boundaries are not known yet,
  * so its candidate values are kept until they are.
  */
object Moments {

  /** Exact block sizes `|Bⱼ|`, null values included, rows with a null
    * block id skipped, by one counting pass. The paper reads these from
    * metadata; no query calls this, since a query given no sizes counts
    * them in its one scan ([[SampleAgg.oneScan]]). The experiment
    * harnesses use it to pass sizes as metadata.
    */
  def blockSizes(df: DataFrame, blockCol: String = "block"): Map[Long, Long] =
    SampleAgg.run(df, col(blockCol), lit(0.0), "ISLA block sizes", seed = 0L, rate = _ => 0.0)
      .map { case (b, s) => b -> s.rows }

  /** Run the sampling phase over every block in one Spark job.
    *
    * No query calls this: every query draws its moment sample in its one
    * scan ([[SampleAgg.oneScan]]). This is the separate-pass form, which
    * perfbench's traced chain and the tests use.
    *
    * @param df       input data with a value column and a block-id column
    * @param valueCol name of the (numeric) aggregation column
    * @param rate     per-block Bernoulli sampling rate r
    * @param bounds   data boundaries fixing the S and L regions
    * @param sizes    block sizes |Bⱼ| (from [[blockSizes]] or metadata)
    * @param seed     RNG seed for the Bernoulli draw
    * @return per-block S/L moments, keyed by block id
    */
  def collect(
      df: DataFrame,
      valueCol: String,
      rate: Double,
      bounds: Boundaries,
      sizes: Map[Long, Long],
      blockCol: String = "block",
      seed: Long = 42L,
  ): Seq[BlockMoments] = {
    require(rate > 0 && rate <= 1, s"sampling rate must be in (0,1]: $rate")
    of(SampleAgg.run(df, col(blockCol), col(valueCol), "ISLA moments", seed, _ => rate, _ => Some(bounds)), sizes)
  }

  /** Per-block S/L moments of a pass split by boundaries. Blocks whose
    * entire sample missed S∪L (or yielded no sample at all) still exist
    * and appear with empty moments; a block the pass saw but `sizes`
    * lacks is rejected, since the answer could not weight it.
    */
  private[core] def of(samples: Map[Long, BlockSample], sizes: Map[Long, Long]): Seq[BlockMoments] = {
    val unknown = samples.keySet.diff(sizes.keySet)
    require(unknown.isEmpty, s"blocks missing from sizes: ${unknown.toSeq.sorted.mkString(", ")}")
    sizes.keys.toSeq.sorted.map { b =>
      def region(r: Region) = samples.get(b).fold(RegionMoments.empty)(_.region(r))
      BlockMoments(b, sizes(b), region(Region.S), region(Region.L))
    }
  }
}
