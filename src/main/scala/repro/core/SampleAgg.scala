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

  /** No folded value was NaN or ±Inf: such a value leaves the running
    * mean NaN or infinite, while finite values keep it within their range.
    */
  def finite: Boolean = !wMean.isNaN && !wMean.isInfinite
}

/** The one kernel behind every sampled pass: block sizes, both pilots,
  * Algorithm 1's moment pass and the baselines.
  *
  * A pass is one `mapPartitionsWithIndex` job over the input's
  * `InternalRow`s, with no shuffle ([[oneScan]] runs three passes in one);
  * partitions are merged on the driver in
  * partition order, as Spark's final aggregate merges them. Rates,
  * boundaries and the shift are driver-side values, so the generated code
  * (one projection) is the same for every query and compiled once.
  *
  * A pass whose rate is known only after it keeps candidates: the draw
  * and value of every row drawn below a bound that only falls. The driver
  * replays those below the resolved rate ([[replay]]), which equals
  * [[run]] at that rate unless the bound fell below it.
  */
object SampleAgg {

  /** The margin c of a speculative bound over the rate it guesses
    * (DESIGN §5): a partition keeps up to c times the samples its own σ̂
    * and guess of M ask for, so the pooled σ̂ may exceed its σ̂ by √c.
    */
  private val Margin = 1.5

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
    val parts = scan(df, block, value, label, seed, shift) { _ =>
      new Partition[Fixed, Array[(Long, BlockSample)]] {
        val unkeyed = new Fixed(0.0, None)
        def slot(b: Long) = new Fixed(rate(b), bounds(b))
        def result() = blocks.iterator.map { case (b, s) => s.sample.rows = s.rows; b -> s.sample }.toArray
      }
    }
    merge(parts.iterator.flatten)
  }

  /** One partition's candidates for one group (a block, or 0 for a pooled
    * stream): the group's rows there, the bound its candidates were kept
    * below, and the draw `us` and raw value `as` of each, in row order.
    */
  private[core] final case class Drawn(group: Long, rows: Long, bound: Double, us: Array[Double], as: Array[Double])

  /** Folds the candidates drawn below `rate(group)`, plus `shift` and split
    * by `bounds`, into each group's sample, merging partitions in the order
    * given: [[run]] at the draws' seed and at that rate, bounds and shift,
    * bit for bit. None if a partition's bound is below its group's rate,
    * since its candidates may lack rows that rate samples.
    */
  private[core] def replay(drawn: Seq[Drawn], rate: Long => Double, bounds: Long => Option[Boundaries] = _ => None,
                           shift: Double = 0.0): Option[Map[Long, BlockSample]] =
    Option.when(drawn.forall(d => rate(d.group) <= d.bound))(merge(drawn.iterator.map { d =>
      val slot = new Fixed(rate(d.group), bounds(d.group))
      var i = 0
      while (i < d.us.length) { if (d.us(i) < slot.rate) slot.take(d.us(i), d.as(i) + shift); i += 1 }
      slot.sample.rows = d.rows
      d.group -> slot.sample
    }))

  /** Merges partitions' samples per block in the order given, as Spark's
    * final aggregate merges partitions.
    */
  private def merge(parts: Iterator[(Long, BlockSample)]): Map[Long, BlockSample] = {
    val merged = mutable.LongMap.empty[BlockSample]
    for ((b, s) <- parts) merged.getOrElseUpdate(b, new BlockSample(s.regions.length)).merge(s)
    merged.toMap
  }

  /** Rows per block, summed over partitions. */
  private def count(parts: Iterator[Array[(Long, Long)]]): Map[Long, Long] = {
    val sizes = mutable.LongMap.empty[Long]
    for (part <- parts; (b, n) <- part) sizes(b) = sizes.getOrElse(b, 0L) + n
    sizes.toMap
  }

  /** A σ pilot in each block at rate [[pilotRate]]`(k, block size)` that
    * also counts every block's rows, so the rates are resolved only after
    * the pass. Each partition keeps each block's rows drawn below
    * [[pilotRate]]`(k, its rows so far)` as [[Candidates]], and the driver
    * [[replay]]s them, so the pilot equals [[run]] at those rates bit for
    * bit.
    *
    * @return rows per block, as [[Moments.blockSizes]] counts them, and
    *         the pilot per block
    */
  private[core] def pilot(df: DataFrame, block: Column, value: Column, label: String, seed: Long,
                          k: Int): (Map[Long, Long], Map[Long, BlockSample]) = {
    val parts = scan(df, block, value, label, seed, 0.0)(_ => new PilotPartition(k))
    val sizes = count(parts.iterator.map(_._1))
    // A block's rows in a partition are at most its size, so no bound is below its rate.
    (sizes, replay(parts.toSeq.flatMap(_._2), b => pilotRate(k, sizes(b))).get)
  }

  /** What [[oneScan]] drew: rows per block, as [[Moments.blockSizes]]
    * counts them, and each stream's candidates, partition by partition.
    */
  private[core] final case class Speculation(sizes: Map[Long, Long], pilot: Seq[Drawn], sketch: Seq[Drawn],
                                             moments: Seq[Drawn])

  /** The pooled σ pilot, sketch₀ and a moment pass in one scan, before any
    * of their rates is known. Every row draws from three generators, those
    * of [[run]] at `seed`, `seed + 1` and `seed + 2`:
    *  - the σ pilot's draws go to the partition's [[Candidates]] below
    *    [[pilotRate]]`(k, rows with a block id so far)`, which the σ
    *    pilot's final rate `pilotRate(k, M)` cannot exceed;
    *  - sketch₀'s draws, null block ids included, go to the partition's
    *    candidates, and the moment pass's, null block ids skipped, to each
    *    block's, below [[Margin]] × `sketchRate` or `momentRate` at the σ̂
    *    of the partition's pilot candidates and at M: `size`, if known,
    *    else the rows seen times the partitions. A known moment rate is its
    *    own bound.
    *
    * A partition's streams each keep at most `cap` ÷ partitions
    * candidates; past that a stream keeps none and its bound is 0. Each
    * stream, [[replay]]ed at its resolved rate, equals [[run]] over
    * `lit(0L)` (the pilot and sketch₀) or `block` (the moment pass) at its
    * seed, unless a partition's bound fell below that rate.
    *
    * @param sketchRate sketch₀'s rate from σ̂ and M
    * @param momentRate the moment pass's rate, or its rate from σ̂ and M
    */
  private[core] def oneScan(df: DataFrame, block: Column, value: Column, label: String, seed: Long, k: Int,
                            size: Option[Long], sketchRate: (Double, Long) => Double,
                            momentRate: Either[Double, (Double, Long) => Double], cap: Double): Speculation = {
    val parts = scan(df, block, value, label, seed, 0.0, three = true)(n =>
      new ScanPartition(k, n, size, sketchRate, momentRate, (cap / n).toLong))
    Speculation(count(parts.iterator.map(_.rows)), parts.toSeq.flatMap(_.pilot), parts.toSeq.flatMap(_.sketch),
      parts.toSeq.flatMap(_.moments))
  }

  /** The one row loop: every row draws from `seed`'s generator, goes to
    * its block's slot (or the partition's slot for a null block id) and,
    * when the draw is below the slot's rate and the value is not null, is
    * taken by the slot, plus `shift`. With `three` streams, the row also
    * draws from `seed + 1`'s and `seed + 2`'s generators, against the
    * slot's `rate2` and `rate3`. Their branch is the only per-row cost a
    * one-stream pass pays for them (a loop over an array of streams made
    * `noniid-b100` queries about 10% slower on 4 cores).
    *
    * @param open a partition's state, given the number of partitions
    */
  private def scan[S <: Slot, R: ClassTag](df: DataFrame, block: Column, value: Column, label: String,
                                           seed: Long, shift: Double, three: Boolean = false)(
      open: Int => Partition[S, R]): Array[R] = {
    val rdd = df.select(block.cast("long"), value.cast("double")).queryExecution.toRdd
    val parts = rdd.getNumPartitions
    val sc = df.sparkSession.sparkContext
    val outer = sc.getLocalProperty("spark.job.description")
    sc.setJobDescription(label)
    try rdd.mapPartitionsWithIndex { (part, rows) =>
      def generator(s: Long) = { val r = Rand(s); r.initialize(part); r }
      val rng = generator(seed)
      val (rng2, rng3) = if (three) (generator(seed + 1), generator(seed + 2)) else (null, null)
      val acc = open(parts)
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
          val w = rng3.eval(null).asInstanceOf[Double]
          if (v < slot.rate2 && !row.isNullAt(1)) slot.take2(v, row.getDouble(1))
          if (w < slot.rate3 && !row.isNullAt(1)) slot.take3(w, row.getDouble(1))
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
    * the other streams' below `rate2` and `rate3`.
    */
  private abstract class Slot {
    var rows = 0L
    var rate = 0.0
    var rate2 = 0.0
    var rate3 = 0.0
    def take(u: Double, a: Double): Unit
    def take2(u: Double, a: Double): Unit = ()
    def take3(u: Double, a: Double): Unit = ()
  }

  /** A block sampled at a known rate, split by its boundaries, if any. */
  private final class Fixed(r: Double, bounds: Option[Boundaries]) extends Slot {
    rate = r
    val sample = new BlockSample(if (bounds.isEmpty) 1 else Region.all.size)
    def take(u: Double, a: Double): Unit = sample.add(a, bounds.fold(0)(_.classify(a).index))
  }

  /** The falling bound of one or more [[Candidates]]: `start`, then at
    * each trim the lower of itself and `rule()`, and 0 once its buffers
    * hold more than `limit` candidates in all, so that they keep none.
    */
  private final class Bound(start: Double, rule: () => Double, limit: Long) {
    var value: Double = start
    val buffers = mutable.ArrayBuffer.empty[Candidates]
    def lower(): Unit = {
      value = math.min(value, rule())
      if (buffers.iterator.map(_.size.toLong).sum > limit) value = 0.0
    }
  }

  /** A stream's candidates for one group in one partition, in row order:
    * the draw and raw value of each row drawn below the bound's value at
    * the time. The bound only falls, so the candidates hold every row drawn
    * below its final value. Trims, when the buffer fills at `minTrim` or
    * more and at the partition's end, lower the bound and drop the rows
    * above it.
    */
  private final class Candidates(val bound: Bound, minTrim: Int) {
    bound.buffers += this
    var size = 0
    private var us = new Array[Double](16)
    private var as = new Array[Double](16)

    def offer(u: Double, a: Double): Unit = {
      if (size == us.length) {
        if (size >= minTrim) trim()
        if (2 * size > us.length) { us = Arrays.copyOf(us, 2 * us.length); as = Arrays.copyOf(as, us.length) }
      }
      if (u < bound.value) { us(size) = u; as(size) = a; size += 1 }
    }

    private def trim(): Unit = {
      bound.lower()
      val b = bound.value
      var kept, i = 0
      while (i < size) { // a `while` loop: a closure per trim costs tens of ms a scan
        if (us(i) < b) { us(kept) = us(i); as(kept) = as(i); kept += 1 }
        i += 1
      }
      size = kept
    }

    /** The sample standard deviation of the values drawn below the bound,
      * a uniform sample of the rows seen; NaN for fewer than `min` values.
      */
    def sigma(min: Int): Double = {
      val b = bound.value
      var n, sum, m2 = 0.0
      var i = 0
      while (i < size) { if (us(i) < b) { n += 1; sum += as(i) }; i += 1 }
      val mean = sum / n
      i = 0
      while (i < size) { if (us(i) < b) m2 += (as(i) - mean) * (as(i) - mean); i += 1 }
      if (n < math.max(min, 2)) Double.NaN else math.sqrt(m2 / (n - 1))
    }

    /** The candidates at the partition's end, as group `group` of `rows` rows. */
    def drawn(group: Long, rows: Long): Drawn = {
      trim()
      Drawn(group, rows, bound.value, Arrays.copyOf(us, size), Arrays.copyOf(as, size))
    }
  }

  /** A block in a [[pilot]] pass: its draws go to its own candidates,
    * below [[pilotRate]]`(k, its rows so far)`.
    */
  private final class Member(k: Int) extends Slot {
    rate = 1.0
    val group = new Candidates(new Bound(1.0, () => pilotRate(k, rows), Long.MaxValue), 2 * k)
    def take(u: Double, a: Double): Unit = { group.offer(u, a); rate = group.bound.value }
  }

  /** A [[pilot]] pass's partition: its rows and candidates per block. */
  private final class PilotPartition(k: Int) extends Partition[Member, (Array[(Long, Long)], Array[Drawn])] {
    val unkeyed = new Fixed(0.0, None)
    def slot(b: Long) = new Member(k)
    def result() = (blocks.iterator.map { case (b, m) => b -> m.rows }.toArray,
      blocks.iterator.map { case (b, m) => m.group.drawn(b, m.rows) }.toArray)
  }

  /** A block in a [[oneScan]] pass: each stream's draws go to its
    * candidates (none for the moment pass when the block id is null).
    */
  private final class Speculating(pilot: Candidates, sketch: Candidates, val moments: Candidates) extends Slot {
    rate = pilot.bound.value
    rate2 = sketch.bound.value
    rate3 = if (moments == null) 0.0 else moments.bound.value
    def take(u: Double, a: Double): Unit = { pilot.offer(u, a); rate = pilot.bound.value }
    override def take2(u: Double, a: Double): Unit = { sketch.offer(u, a); rate2 = sketch.bound.value }
    override def take3(u: Double, a: Double): Unit = { moments.offer(u, a); rate3 = moments.bound.value }
  }

  /** A [[oneScan]] partition's result: its rows per block, the pooled σ
    * pilot's and sketch₀'s candidates (none without rows) and each block's
    * moment candidates.
    */
  private final case class ScanPart(rows: Array[(Long, Long)], pilot: Option[Drawn], sketch: Option[Drawn],
                                    moments: Array[Drawn])

  /** A [[oneScan]] partition, one of `parts`. */
  private final class ScanPartition(k: Int, parts: Int, size: Option[Long], sketchRate: (Double, Long) => Double,
                                    momentRate: Either[Double, (Double, Long) => Double], limit: Long)
      extends Partition[Speculating, ScanPart] {
    /** Rows with a block id so far: the rows of M this partition has seen. */
    private def counted: Long = blocks.valuesIterator.map(_.rows).sum
    /** σ̂ of the pilot candidates as of the pilot's last trim (NaN before k/2 of them). */
    private var sigma = Double.NaN
    private val pilot: Candidates =
      new Candidates(new Bound(1.0, () => { sigma = pilot.sigma(k / 2); pilotRate(k, counted) }, limit), 2 * k)
    // A speculative bound: c × `rate` at σ̂ and at M or, if the partitions
    // are alike, its guess from the rows seen.
    private def speculate(rate: (Double, Long) => Double) = new Bound(1.0, { () =>
      val m = size.getOrElse(counted * parts)
      if (sigma.isNaN || m == 0) 1.0 else Margin * rate(sigma, m)
    }, limit)
    private val sketch = new Candidates(speculate(sketchRate), 2 * k)
    private val moments = momentRate.fold(r => new Bound(r, () => r, limit), speculate)
    val unkeyed = new Speculating(pilot, sketch, null)
    def slot(b: Long) = new Speculating(pilot, sketch, new Candidates(moments, 2 * k))
    def result() = {
      val rows = unkeyed.rows + counted
      // The pilot's final trim first: the others' bounds read its σ̂.
      val pooled = Option.when(rows > 0)(pilot.drawn(0L, rows) -> sketch.drawn(0L, rows))
      ScanPart(blocks.iterator.map { case (b, s) => b -> s.rows }.toArray, pooled.map(_._1), pooled.map(_._2),
        blocks.iterator.map { case (b, s) => s.moments.drawn(b, s.rows) }.toArray)
    }
  }
}
