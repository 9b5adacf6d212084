package repro.core

import scala.collection.mutable

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.catalyst.expressions.Rand

/** What one sampled pass learns about one block: rows seen, and the
  * sampled non-null values' moments per region, minimum, and Welford
  * mean/M2. Folds and merges repeat the arithmetic of Spark's `sum`,
  * `avg`, `min` and `stddev_samp` in the same order, so a fixed seed
  * reproduces those SQL aggregates bit for bit.
  *
  * @param regionCount 5 (by `Region.index`) for a pass with boundaries,
  *                    else 1 (every sample)
  */
final class BlockSample(regionCount: Int) extends Serializable {
  var rows = 0L
  val regions: Array[RegionMoments] = Array.fill(regionCount)(RegionMoments.empty)
  private var lo = Double.PositiveInfinity
  private var wn, wMean, wM2 = 0.0

  def add(a: Double, region: Int): Unit = {
    regions(region) = regions(region).add(a)
    if (a < lo) lo = a
    val n1 = wn + 1.0
    val delta = a - wMean
    val deltaN = delta / n1
    wMean = wMean + deltaN
    wM2 = wM2 + delta * (delta - deltaN)
    wn = n1
  }

  def merge(o: BlockSample): Unit = {
    rows += o.rows
    regions.indices.foreach(i => regions(i) = regions(i).merge(o.regions(i)))
    lo = math.min(lo, o.lo)
    val n = wn + o.wn
    val delta = o.wMean - wMean
    val deltaN = if (n == 0.0) 0.0 else delta / n
    wMean = wMean + deltaN * o.wn
    wM2 = wM2 + o.wM2 + delta * deltaN * wn * o.wn
    wn = n
  }

  def region(r: Region): RegionMoments = regions(r.index)
  /** Every sample of a pass without boundaries. */
  def all: RegionMoments = { require(regions.length == 1, "samples split by region"); regions(0) }
  /** Sampled non-null values. */
  def n: Long = regions.iterator.map(_.n).sum

  // The SQL aggregate, or 0 where it would be null (as the pilots use them).
  def avg: Double = if (n == 0) 0.0 else all.sum / all.n
  def min: Double = if (n == 0) 0.0 else lo
  def sd: Double = if (wn < 2) 0.0 else math.sqrt(wM2 / (wn - 1.0))
}

/** The one kernel behind every sampled pass: block sizes, both pilots,
  * Algorithm 1's moment pass and the baselines.
  *
  * A pass is one `mapPartitionsWithIndex` job over the input's
  * `InternalRow`s, with no shuffle; partitions are merged on the driver in
  * partition order, as Spark's final aggregate merges them. Rates,
  * boundaries and the shift are driver-side values, so the generated code
  * (one projection) is the same for every query and compiled once.
  */
object SampleAgg {

  /** Runs one pass and returns what it learned per block.
    *
    * Every row draws from `XORShiftRandom(seed + partition)`, the
    * generator of `rand(seed)`, and is sampled when the draw is below its
    * block's rate: a fixed seed samples exactly the rows
    * `where(rand(seed) < rate)` keeps. Sampled non-null values, plus
    * `shift`, are split by the block's boundaries, if any.
    *
    * @param block  block id (cast to long); a constant pools the input
    * @param value  aggregation column (cast to double)
    * @param label  job description shown in the Spark UI and event log
    * @param rate   a block's Bernoulli rate, looked up once per partition
    * @param bounds a block's data boundaries, if its samples are split
    */
  def run(
      df: DataFrame,
      block: Column,
      value: Column,
      label: String,
      seed: Long,
      rate: Long => Double,
      bounds: Long => Option[Boundaries] = _ => None,
      shift: Double = 0.0,
  ): Map[Long, BlockSample] = {
    val rdd = df.select(block.cast("long"), value.cast("double")).queryExecution.toRdd
    val sc = df.sparkSession.sparkContext
    val outer = sc.getLocalProperty("spark.job.description")
    sc.setJobDescription(label)
    val parts = try rdd.mapPartitionsWithIndex { (part, rows) =>
      val rng = Rand(seed)
      rng.initialize(part)
      val seen = mutable.LongMap.empty[Slot]
      var cur: Slot = null
      var curBlock = 0L
      while (rows.hasNext) {
        val row = rows.next()
        val u = rng.eval(null).asInstanceOf[Double] // every row draws, as `rand(seed)` does
        if (!row.isNullAt(0)) {
          val b = row.getLong(0)
          if (cur == null || b != curBlock) {
            curBlock = b
            cur = seen.getOrElseUpdate(b, Slot(rate(b), bounds(b)))
          }
          cur.sample.rows += 1
          if (u < cur.rate && !row.isNullAt(1)) {
            val a = row.getDouble(1) + shift
            cur.sample.add(a, cur.bounds.fold(0)(_.classify(a).index))
          }
        }
      }
      Iterator.single(seen.iterator.map { case (b, slot) => b -> slot.sample }.toArray)
    }.collect()
    finally sc.setJobDescription(outer)

    val merged = mutable.LongMap.empty[BlockSample]
    for (part <- parts; (b, s) <- part) merged.getOrElseUpdate(b, new BlockSample(s.regions.length)).merge(s)
    merged.toMap
  }

  /** A block's parameters in one partition, looked up on its first row. */
  private final case class Slot(rate: Double, bounds: Option[Boundaries]) {
    val sample = new BlockSample(if (bounds.isEmpty) 1 else Region.all.size)
  }
}
