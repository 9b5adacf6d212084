package repro.core

import java.util.Arrays

import scala.collection.mutable
import scala.reflect.ClassTag

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
  * `InternalRow`s, with no shuffle ([[fused]] runs two passes in one);
  * partitions are merged on the driver in
  * partition order, as Spark's final aggregate merges them. Rates,
  * boundaries and the shift are driver-side values, so the generated code
  * (one projection) is the same for every query and compiled once.
  */
object SampleAgg {

  /** The σ pilot's rate in a group of `n` rows: min(1, k/n). */
  private[core] def pilotRate(k: Int, n: Long): Double = math.min(1.0, k.toDouble / n)

  /** Runs one pass and returns what it learned per block.
    *
    * Every row draws from `XORShiftRandom(seed + partition)`, the
    * generator of `rand(seed)`, and is sampled when the draw is below its
    * block's rate: a fixed seed samples exactly the rows
    * `where(rand(seed) < rate)` keeps. Sampled non-null values, plus
    * `shift`, are split by the block's boundaries, if any. Rows whose
    * block id is null are skipped.
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
    val parts = scan(df, block, value, label, seed, shift) { () =>
      new Partition[Fixed, Array[(Long, BlockSample)]] {
        val unkeyed = new Fixed(0.0, None)
        def slot(b: Long) = new Fixed(rate(b), bounds(b))
        def result() = blocks.iterator.map { case (b, s) => s.sample.rows = s.rows; b -> s.sample }.toArray
      }
    }
    merge(parts.iterator.flatten)
  }

  /** A pooled sketch₀ pass and a moment pass in one scan, for a moment
    * pass whose rate and shift are known before sketch₀ and whose
    * boundaries are not. Every row draws from both generators:
    *  - `sketchSeed`'s draws below `sketchRate` feed one sample of the
    *    whole input, null block ids included: [[run]] over `lit(0L)` at
    *    that seed and rate, returned as block 0 (no block, for no rows);
    *  - `seed`'s draws below `rate(block)`, plus `shift`, are kept per
    *    block and partition in row order, with the block's rows, for
    *    [[replay]] to split once the boundaries are known.
    */
  private[core] def fused(df: DataFrame, block: Column, value: Column, label: String, sketchSeed: Long,
                          sketchRate: Double, seed: Long, rate: Long => Double,
                          shift: Double): (Map[Long, BlockSample], Seq[Kept]) = {
    val parts = scan(df, block, value, label, sketchSeed, 0.0, Some(seed -> shift))(() =>
      new FusedPartition(sketchRate, rate))
    (merge(parts.iterator.flatMap(_._1.map(0L -> _))), parts.toSeq.flatMap(_._2))
  }

  /** A block's rows in one partition of a [[fused]] pass and the values it
    * sampled there, in row order.
    */
  private[core] final case class Kept(block: Long, rows: Long, values: Array[Double])

  /** Folds a [[fused]] pass's kept values, split by `bounds`, into each
    * block's sample, merging partitions in order: [[run]] at that pass's
    * seed, rate and shift and at `bounds`, bit for bit.
    */
  private[core] def replay(kept: Seq[Kept], bounds: Long => Option[Boundaries]): Map[Long, BlockSample] =
    merge(kept.iterator.map { k =>
      val slot = new Fixed(0.0, bounds(k.block))
      k.values.foreach(slot.take(0.0, _))
      slot.sample.rows = k.rows
      k.block -> slot.sample
    })

  /** Merges partitions' samples per block in the order given, as Spark's
    * final aggregate merges partitions.
    */
  private def merge(parts: Iterator[(Long, BlockSample)]): Map[Long, BlockSample] = {
    val merged = mutable.LongMap.empty[BlockSample]
    for ((b, s) <- parts) merged.getOrElseUpdate(b, new BlockSample(s.regions.length)).merge(s)
    merged.toMap
  }

  /** A σ pilot at rate [[pilotRate]]`(k, group size)` that also counts
    * every block's rows, so the rate is resolved only after the pass. A
    * group is one block, or with `pooled` the whole input as group 0
    * (rows with a null block id included, as a constant `block` pools
    * them in [[run]]). Each partition keeps the rows its groups could
    * sample as [[Candidates]]; the driver replays them at the final rate
    * in partition and row order, so the pilot equals [[run]] at that rate
    * bit for bit.
    *
    * @return rows per block, as [[Moments.blockSizes]] counts them, and
    *         the pilot per group
    */
  private[core] def pilot(df: DataFrame, block: Column, value: Column, label: String, seed: Long, k: Int,
                          pooled: Boolean): (Map[Long, Long], Map[Long, BlockSample]) = {
    val parts = scan(df, block, value, label, seed, 0.0)(() => new PilotPartition(k, pooled))
    val sizes = mutable.LongMap.empty[Long]
    for (part <- parts; (b, n) <- part.rows) sizes(b) = sizes.getOrElse(b, 0L) + n
    val total = sizes.values.sum
    (sizes.toMap, merge(parts.iterator.flatMap(_.drawn).map { d =>
      val rate = pilotRate(k, if (pooled) total else sizes(d.group))
      val s = new BlockSample(1)
      s.rows = d.rows
      d.us.indices.foreach(i => if (d.us(i) < rate) s.add(d.as(i), 0))
      d.group -> s
    }))
  }

  /** The one row loop: every row draws from `seed`'s generator, goes to
    * its block's slot (or the partition's slot for a null block id) and,
    * when the draw is below the slot's rate and the value is not null, is
    * taken by the slot, plus `shift`. A `second` stream (seed, shift) draws
    * from its own generator too, against the slot's `rate2`. Its branch
    * is the only per-row cost a one-stream pass pays for it (a loop over
    * an array of streams made `noniid-b100` queries about 10% slower on
    * 4 cores).
    */
  private def scan[S <: Slot, R: ClassTag](df: DataFrame, block: Column, value: Column, label: String,
                                           seed: Long, shift: Double, second: Option[(Long, Double)] = None)(
      open: () => Partition[S, R]): Array[R] = {
    val rdd = df.select(block.cast("long"), value.cast("double")).queryExecution.toRdd
    val sc = df.sparkSession.sparkContext
    val outer = sc.getLocalProperty("spark.job.description")
    val shift2 = second.fold(0.0)(_._2)
    sc.setJobDescription(label)
    try rdd.mapPartitionsWithIndex { (part, rows) =>
      val rng = Rand(seed)
      rng.initialize(part)
      val rng2 = second.map { case (s, _) => val r = Rand(s); r.initialize(part); r }.orNull
      val acc = open()
      var cur: Slot = null
      var curBlock = 0L
      while (rows.hasNext) {
        val row = rows.next()
        val u = rng.eval(null).asInstanceOf[Double] // every row draws, as `rand(seed)` does
        val slot = if (row.isNullAt(0)) acc.unkeyed else {
          val b = row.getLong(0)
          if (cur == null || b != curBlock) {
            curBlock = b
            cur = acc.blocks.getOrElseUpdate(b, acc.slot(b))
          }
          cur
        }
        slot.rows += 1
        if (u < slot.rate && !row.isNullAt(1)) slot.take(u, row.getDouble(1) + shift)
        if (rng2 != null) {
          val v = rng2.eval(null).asInstanceOf[Double]
          if (v < slot.rate2 && !row.isNullAt(1)) slot.take2(row.getDouble(1) + shift2)
        }
      }
      Iterator.single(acc.result())
    }.collect()
    finally sc.setJobDescription(outer)
  }

  /** One partition's state: a slot per block id, one for null block ids. */
  private abstract class Partition[S <: Slot, R] {
    val blocks: mutable.LongMap[S] = mutable.LongMap.empty[S]
    def unkeyed: Slot
    def slot(b: Long): S
    def result(): R
  }

  /** A block's rows in one partition; draws below `rate` are taken, and
    * the second stream's below `rate2`.
    */
  private abstract class Slot {
    var rows = 0L
    var rate = 0.0
    var rate2 = 0.0
    def take(u: Double, a: Double): Unit
    def take2(a: Double): Unit = ()
  }

  /** A block sampled at a known rate, split by its boundaries, if any. */
  private final class Fixed(r: Double, bounds: Option[Boundaries]) extends Slot {
    rate = r
    val sample = new BlockSample(if (bounds.isEmpty) 1 else Region.all.size)
    def take(u: Double, a: Double): Unit = sample.add(a, bounds.fold(0)(_.classify(a).index))
  }

  /** A block whose draws are offered to its pilot group's candidates. */
  private final class Member(val group: Candidates) extends Slot {
    rate = 1.0
    def take(u: Double, a: Double): Unit = { group.offer(u, a); rate = group.bound }
  }

  /** A block in a [[fused]] pass: its first stream feeds the partition's
    * shared sketch₀ sample, its second keeps the block's moment values.
    */
  private final class Deferring(sketch: BlockSample, sketchRate: Double, momentRate: Double) extends Slot {
    rate = sketchRate
    rate2 = momentRate
    val values = new mutable.ArrayBuilder.ofDouble
    def take(u: Double, a: Double): Unit = sketch.add(a, 0)
    override def take2(a: Double): Unit = values += a
  }

  /** A [[fused]] pass's partition: its sketch₀ sample, if it has rows, and
    * each block's kept moment values.
    */
  private final class FusedPartition(sketchRate: Double, rate: Long => Double)
      extends Partition[Deferring, (Option[BlockSample], Array[Kept])] {
    private val sketch = new BlockSample(1)
    val unkeyed = new Deferring(sketch, sketchRate, 0.0)
    def slot(b: Long) = new Deferring(sketch, sketchRate, rate(b))
    def result() = {
      sketch.rows = unkeyed.rows + blocks.valuesIterator.map(_.rows).sum
      val kept = blocks.iterator.map { case (b, d) => Kept(b, d.rows, d.values.result()) }.toArray
      (Option.when(sketch.rows > 0)(sketch), kept)
    }
  }

  /** A pilot group's candidates in one partition, in row order: the draw
    * and value of each row drawn below `bound`, which is
    * [[pilotRate]]`(k, rows its member blocks have seen)` as of the last
    * trim. A group's size is at least that count and IEEE division is
    * monotone, so the final rate is at most `bound` and the candidates
    * hold every row it samples. Trims, when the buffer fills at 2k or more
    * and at the partition's end, keep it O(k).
    */
  private final class Candidates(k: Int) {
    val members = mutable.ArrayBuffer.empty[Slot]
    var bound = 1.0
    private var us = new Array[Double](16)
    private var as = new Array[Double](16)
    private var size = 0

    def offer(u: Double, a: Double): Unit = {
      if (size == us.length) {
        if (size >= 2 * k) trim()
        if (2 * size > us.length) { us = Arrays.copyOf(us, 2 * us.length); as = Arrays.copyOf(as, us.length) }
      }
      if (u < bound) { us(size) = u; as(size) = a; size += 1 }
    }

    private def trim(): Unit = {
      bound = pilotRate(k, members.iterator.map(_.rows).sum)
      var kept = 0
      for (i <- 0 until size if us(i) < bound) { us(kept) = us(i); as(kept) = as(i); kept += 1 }
      size = kept
    }

    /** The candidates at the partition's end, as group `group` of `rows` rows. */
    def drawn(group: Long, rows: Long): Drawn = {
      trim()
      Drawn(group, rows, Arrays.copyOf(us, size), Arrays.copyOf(as, size))
    }
  }

  /** A partition's pilot: its rows per block and each group's rows and
    * candidates (draws `us`, values `as`).
    */
  private final case class PilotPart(rows: Array[(Long, Long)], drawn: Array[Drawn])
  private final case class Drawn(group: Long, rows: Long, us: Array[Double], as: Array[Double])

  /** A pilot pass's partition: each block's slot offers its draws to its
    * own candidates or, when `pooled`, to the partition's shared ones.
    */
  private final class PilotPartition(k: Int, pooled: Boolean) extends Partition[Member, PilotPart] {
    private val all = new Candidates(k)
    val unkeyed: Slot = if (pooled) new Member(all) else new Fixed(0.0, None)
    def slot(b: Long): Member = {
      val m = new Member(if (pooled) all else new Candidates(k))
      m.group.members += m
      m
    }
    def result(): PilotPart = {
      val drawn =
        if (!pooled) blocks.iterator.map { case (b, m) => m.group.drawn(b, m.rows) }.toArray
        else {
          val rows = unkeyed.rows + blocks.valuesIterator.map(_.rows).sum
          if (rows == 0) Array.empty[Drawn] else Array(all.drawn(0L, rows))
        }
      PilotPart(blocks.iterator.map { case (b, m) => b -> m.rows }.toArray, drawn)
    }
  }
}
