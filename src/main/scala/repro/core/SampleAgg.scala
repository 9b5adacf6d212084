package repro.core

import java.nio.{ByteBuffer, ByteOrder}
import java.util.Arrays

import scala.collection.mutable
import scala.reflect.ClassTag
import scala.util.control.NonFatal

import org.apache.spark.TaskContext
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.{Alias, Attribute, Cast, Expression, Literal}
import org.apache.spark.sql.classic.ColumnExpression
import org.apache.spark.sql.execution.{ColumnarToRowExec, InputAdapter, LeafExecNode, ProjectExec, QueryExecution,
  SQLExecution, SparkPlan, WholeStageCodegenExec}
import org.apache.spark.sql.execution.columnar.InMemoryTableScanExec
import org.apache.spark.sql.types.{DataType, DoubleType, IntegerType, LongType}
import org.apache.spark.sql.vectorized.{ColumnVector, ColumnarBatch}
import org.apache.spark.storage.StorageLevel
import org.apache.spark.util.random.RandGenerator

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
  * A pass is one `runJob` over the input's rows, [[planned]] once, with
  * no shuffle ([[oneScan]] runs three passes in one); partitions are
  * merged on the driver in partition order, as Spark's final aggregate
  * merges them. A pass reads a columnar scan's column batches where its
  * plan is one ([[columns]]: a cached relation or a vectorized file
  * scan, with the block id and value as plain columns or constants), and
  * the plan's `InternalRow`s otherwise; both come in the same partitions
  * and order, so every draw lands on the same row either way. Rates,
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
    * and guess of the group's size ask for, so the group's σ̂ may exceed
    * the partition's by √c.
    */
  private val Margin = 1.5

  /** The fewest pilot candidates a partition's σ̂ is taken from. */
  private val MinSigma = 64

  /** The margin of a bound whose σ̂ comes from `n` values: c, or more when
    * 5.3 standard errors of a variance estimate from `n` normal values,
    * √(2/n), exceed 1 − 1/c (n < 500); the variance then falls short of
    * 1/margin of the truth with a chance below 10⁻⁷ (DESIGN §5).
    */
  private def margin(n: Int): Double = math.max(Margin, 1.0 / (1.0 - 5.3 * math.sqrt(2.0 / n)))

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
    val parts = job(df, block, value, label) { (part, _, batches) =>
      val acc = new RunPartition(generator(seed, part), rate, bounds, shift)
      while (batches.hasNext) acc.add(batches.next())
      acc.result()
    }
    merge(parts.iterator.flatten)
  }

  /** One partition's candidates for one group (a block, or 0 for a pooled
    * stream): the group's rows there, the bound its candidates were kept
    * below, and the draw `us` and raw value `as` of each, in row order; or,
    * for a stream whose rate `bound` was known in the scan, its sample
    * `folded` at that rate, without boundaries or shift.
    */
  private[core] final case class Drawn(group: Long, rows: Long, bound: Double, us: Array[Double], as: Array[Double],
                                       folded: BlockSample = null) {
    // Sent as one byte array: Java serialization copies a byte array at
    // once but writes and reads a double array value by value, which cost
    // a cold query about 0.3 s for noniid-b100's 6.5 MB (4 cores).
    private def writeReplace(): AnyRef = {
      val bytes = ByteBuffer.allocate(16 * us.length).order(ByteOrder.LITTLE_ENDIAN)
      bytes.asDoubleBuffer().put(us).put(as)
      new Drawn.Packed(group, rows, bound, bytes.array(), folded)
    }
  }

  private[core] object Drawn {
    private final class Packed(group: Long, rows: Long, bound: Double, bytes: Array[Byte], folded: BlockSample)
        extends Serializable {
      private def readResolve(): AnyRef = {
        val doubles = ByteBuffer.wrap(bytes).order(ByteOrder.LITTLE_ENDIAN).asDoubleBuffer()
        val (us, as) = (new Array[Double](bytes.length / 16), new Array[Double](bytes.length / 16))
        doubles.get(us).get(as)
        Drawn(group, rows, bound, us, as, folded)
      }
    }
  }

  /** Folds the candidates drawn below `rate(group)`, plus `shift` and split
    * by `bounds`, into each group's sample, merging partitions in the order
    * given: [[run]] at the draws' seed and at that rate, bounds and shift,
    * bit for bit. None if a partition's bound is below its group's rate,
    * since its candidates may lack rows that rate samples, or a folded
    * sample's rate is not its group's.
    */
  private[core] def replay(drawn: Seq[Drawn], rate: Long => Double, bounds: Long => Option[Boundaries] = _ => None,
                           shift: Double = 0.0): Option[Map[Long, BlockSample]] =
    Option.when(drawn.forall(d => if (d.folded == null) rate(d.group) <= d.bound else rate(d.group) == d.bound))(
      merge(drawn.iterator.map { d =>
        val g = d.group
        g -> Option(d.folded).getOrElse(fold(d.us, d.as, d.us.length, rate(g), bounds(g), shift, d.rows))
      }))

  /** The sample [[run]] takes at `rate`, `bounds` and `shift` from a
    * group's `rows` rows, folded from the first `n` of its candidates.
    */
  private def fold(us: Array[Double], as: Array[Double], n: Int, rate: Double, bounds: Option[Boundaries],
                   shift: Double, rows: Long): BlockSample = {
    val slot = new Fixed(rate, bounds)
    var i = 0
    while (i < n) { if (us(i) < rate) slot.take(as(i) + shift); i += 1 }
    slot.sample.rows = rows
    slot.sample
  }

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

  /** What [[oneScan]] drew: rows per block, as [[Moments.blockSizes]]
    * counts them, each stream's candidates, partition by partition, and
    * how many candidates the partitions accepted per stream (σ pilot,
    * sketch₀, moments), trimmed ones included.
    */
  private[core] final case class Speculation(sizes: Map[Long, Long], pilot: Seq[Drawn], sketch: Seq[Drawn],
                                             moments: Seq[Drawn], accepted: Seq[Long])

  /** The σ pilot, sketch₀ and a moment pass in one scan, before any of
    * their rates is known. Every row draws from three generators, those of
    * [[run]] at `seed`, `seed + 1` and `seed + 2`. The pilot and sketch₀
    * streams run per pilot group: the whole input, null block ids
    * included, with `pooled`, else each block. Each stream keeps its
    * group's candidates below a bound that only falls:
    *  - the σ pilot below [[SampleSize.pilotRate]]`(k, rows with a block
    *    id so far)` (pooled) or `(k, the block's rows so far)` (a block),
    *    which its final rate `pilotRate(k, group size)` cannot exceed; when
    *    `sizes` is given a block's pilot rate is known, and its pilot keeps
    *    its candidates below that rate, uncapped, and is folded at it at the
    *    partition's end, as [[run]] folds it;
    *  - sketch₀ below [[margin]] × `sketchRate` at the group's σ̂ (the
    *    standard deviation of its pilot candidates, [[SampleSize.sigma]])
    *    and size: its size in `sizes`; else, for the pooled group,
    *    `inputRows` times the share of the partition's rows so far that
    *    have a block id; else its rows seen times the partitions;
    *  - the moment pass, per block, below its `momentRate` if known, else
    *    below the margin × `momentRate` made of the partition's estimates
    *    of every group (size, σ̂, and the pilot mean in place of sketch₀).
    *
    * A group's estimates are renewed when its pilot values reach a power
    * of two of at least [[MinSigma]], and at the partition's end; its
    * sketch₀ bound is lowered then, the moment bounds once an eighth of
    * the groups have renewed, and each bound at its buffer's trims. A
    * partition's streams, but for the pilots at known rates, each keep at
    * most `cap` ÷ partitions candidates; past that a stream keeps none and
    * its bounds are 0. Each stream,
    * [[replay]]ed at its resolved rates, equals [[run]] over `lit(0L)`
    * (pooled) or `block` at its seed, unless a partition's bound fell
    * below its group's rate. A size guess only moves bounds: one too high
    * (an `inputRows` that counts a recomputed cache partition twice) can
    * leave a bound below its rate, and the stream then runs again.
    *
    * @param sizes      rows per block, if known
    * @param inputRows  the input's rows, if known without a scan ([[Planned.cachedRows]]);
    *                   read only by a pooled group without `sizes`
    * @param sketchRate sketch₀'s rate from σ̂ and a group's size
    * @param momentRate each block's moment rate, or its rates from the pre-estimates
    */
  private[core] def oneScan(df: DataFrame, block: Column, value: Column, label: String, seed: Long, k: Int,
                            pooled: Boolean, sizes: Option[Map[Long, Long]], inputRows: Option[Long],
                            sketchRate: (Double, Long) => Double, momentRate: PreEstimation.MomentRate,
                            cap: Double): Speculation = {
    val parts = job(df, block, value, label) { (part, n, batches) =>
      // Every row draws from each generator.
      val acc = new ScanPartition(generator(seed, part), generator(seed + 1, part), generator(seed + 2, part), k, n,
        pooled, sizes, inputRows, sketchRate, momentRate, (cap / n).toLong)
      while (batches.hasNext) acc.add(batches.next())
      acc.result()
    }
    Speculation(count(parts.iterator.map(_.rows)), parts.toSeq.flatMap(_.pilot), parts.toSeq.flatMap(_.sketch),
      parts.toSeq.flatMap(_.moments), Seq.tabulate(3)(i => parts.iterator.map(_.accepted(i)).sum))
  }

  /** `rand(seed)`'s generator in partition `part`. */
  private def generator(seed: Long, part: Int): java.util.Random = RandGenerator(seed, part)
  private def draw(rng: java.util.Random): Double = rng.nextDouble()

  /** Runs `part` on each partition's rows, given the partition and the
    * number of partitions, as one job labelled `label`, and returns its
    * results in partition order. The rows (block id, value) come in
    * [[Batch]]es, filled from the column batches of the scan [[columns]]
    * finds in the plan, else from the plan's `InternalRow`s; either way
    * in the same partitions and the same order, so every draw lands on
    * the same row.
    *
    * The job is one `runJob` over the RDD of the pass's [[planned]]
    * input, with a [[Task]], an instance of a named class, not a lambda:
    * Spark's `ClosureCleaner` reads and parses the class file that defines
    * each lambda it cleans, and skips an instance of a named class. The
    * input is planned once per (DataFrame, block, value) and reused while
    * the session's SQL conf and the DataFrame's storage level are as they
    * were at planning and every cache the plan reads is still loaded;
    * otherwise it is planned again. Cleaning three lambdas
    * (`mapPartitionsWithIndex(f).collect()`), planning and building the
    * scan's RDD cost every pass about 20 ms of driver time (DESIGN §5).
    *
    * [[run]] and [[oneScan]] each have their own row loop, so that the JIT
    * compiles each with its own profile: with one loop shared by both, a
    * query's first three-stream scan deoptimized the loop compiled for the
    * one-stream passes before it, and the first timed `noniid-b100` query
    * took up to 1.1 s instead of 0.3 s (4 cores). Each loop takes one
    * batch a call (`RunPartition.add`, `ScanPartition.add`), whichever
    * source filled it.
    */
  private def job[R: ClassTag](df: DataFrame, block: Column, value: Column, label: String)(
      part: (Int, Int, Iterator[Batch]) => R): Array[R] = {
    val in = planned(df, block, value)
    val sc = df.sparkSession.sparkContext
    val outer = sc.getLocalProperty("spark.job.description")
    sc.setJobDescription(label)
    try {
      def submit[T](rdd: RDD[T], read: Iterator[T] => Iterator[Batch]): Array[R] = {
        val parts = rdd.getNumPartitions
        val out = new Array[R](parts)
        sc.runJob(rdd, new Task(part, parts, read), 0 until parts, (i: Int, r: R) => out(i) = r)
        out
      }
      in.columns match {
        // Tasks see the session's SQL conf, as `toRdd`'s do.
        case Some(Columns(_, b, v)) =>
          SQLExecution.withSQLConfPropagated(in.qe.sparkSession)(submit(in.batches, Batch.columns(b, v)))
        case None => submit(in.qe.toRdd, Batch.rows)
      }
    } finally sc.setJobDescription(outer)
  }

  /** A pass's task: `part` on one of `parts` partitions, its rows read into batches by `read`. */
  private final class Task[T, R](part: (Int, Int, Iterator[Batch]) => R, parts: Int,
                                 read: Iterator[T] => Iterator[Batch])
      extends ((TaskContext, Iterator[T]) => R) with Serializable {
    def apply(ctx: TaskContext, in: Iterator[T]): R = part(ctx.partitionId, parts, read(in))
  }

  /** A pass's input, planned as `qe` under the SQL conf `conf` with its DataFrame at storage level `level`. */
  private[core] final class Planned(val qe: QueryExecution, conf: Map[String, String], level: StorageLevel) {
    val columns: Option[Columns] = SampleAgg.columns(qe.executedPlan)
    private val caches = qe.executedPlan.collect { case s: InMemoryTableScanExec => s.relation.cacheBuilder }
    /** The cached relation whose every row the plan reads: its one scan, under projections only. */
    private val whole = Some(projected(qe.executedPlan)._2).collect { case s: InMemoryTableScanExec =>
      s.relation.cacheBuilder }

    /** The rows the plan reads, if it reads every row of one loaded cached
      * relation: Spark's own row count of it, the `rowCount` statistic of
      * `InMemoryRelation`. None for any other plan: uncached, not yet
      * loaded, filtered, sampled, limited or a union. A partition computed
      * again after loading (evicted, say) is counted again.
      */
    def cachedRows: Option[Long] = whole.filter(_.isCachedColumnBuffersLoaded).map(_.rowCountStats.sum)

    /** The scan's column batches; `executeColumnar` builds a new RDD each call. */
    lazy val batches: RDD[ColumnarBatch] = columns.get.scan.executeColumnar()

    /** Whether a pass over `df` may still read this plan: the conf and
      * `df`'s storage level are as planned, and every cache the plan reads
      * is loaded (not unpersisted, and so not built again by this plan).
      */
    def current(df: DataFrame): Boolean =
      df.sparkSession.conf.getAll == conf && df.storageLevel == level && caches.forall(_.isCachedColumnBuffersLoaded)
  }

  /** Each DataFrame's planned passes by (block, value) expression, held
    * no longer than the DataFrame. Keyed on Catalyst expressions, not
    * `Column`s: `lit(0L) == lit(0.0)`.
    */
  private val plans = new java.util.WeakHashMap[DataFrame, mutable.Map[(Expression, Expression), Planned]]

  /** A pass's input: the block id and value columns, cast to long and
    * double, planned once per (DataFrame, block, value) and planned again
    * only when the plan is no longer [[Planned.current]]. A parent of `df`
    * cached after the first pass is thus not read until then, as Spark's
    * own plan of a Dataset does not read it; rows and column batches give
    * the same samples.
    */
  private[core] def planned(df: DataFrame, block: Column, value: Column): Planned = {
    val key = (ColumnExpression(block), ColumnExpression(value))
    plans.synchronized(Option(plans.get(df)).flatMap(_.get(key))).filter(_.current(df)).getOrElse {
      val (conf, level) = (df.sparkSession.conf.getAll, df.storageLevel)
      val fresh = new Planned(df.select(block.cast("long"), value.cast("double")).queryExecution, conf, level)
      plans.synchronized(plans.computeIfAbsent(df, _ => mutable.Map.empty)(key) = fresh)
      fresh
    }
  }

  /** Where a column batch holds one of a pass's two columns: vector
    * `ordinal`, of type `dataType`, or, at ordinal -1, the constant
    * `constant` (null, or a boxed long or double).
    */
  private[core] final case class Input(ordinal: Int, dataType: DataType, constant: Any)

  /** A scan that produces column batches, and where they hold the block id and the value. */
  private[core] final case class Columns(scan: SparkPlan, block: Input, value: Input)

  /** A plan's output expressions and the node they are computed from: a
    * projection's list and its child, else the plan's output and the plan,
    * looking through code generation and columnar-to-row wrappers (the
    * scan below them is read instead).
    */
  private def projected(plan: SparkPlan): (Seq[Expression], SparkPlan) = {
    def unwrapped(p: SparkPlan): SparkPlan = p match {
      case _: WholeStageCodegenExec | _: InputAdapter | _: ColumnarToRowExec => unwrapped(p.children.head)
      case _ => p
    }
    unwrapped(plan) match {
      case ProjectExec(list, child) => (list, unwrapped(child))
      case p => (p.output, p)
    }
  }

  /** The column batches a [[planned]] pass reads, if its plan is a leaf
    * scan that produces them (a cached relation, a vectorized Parquet or
    * ORC file scan), alone or under a projection of that scan's int, long
    * or double columns, cast to long (block) or double (value), and of
    * constants (a pooled block, [[Moments.blockSizes]]' value). None for
    * any other plan, which is read by rows: a decimal or computed column,
    * a filter, a cached relation with a column the vectorized reader
    * cannot produce, an adaptive plan (a shuffle below the cache).
    */
  private[core] def columns(plan: SparkPlan): Option[Columns] = {
    val (exprs, scan) = projected(plan)
    // The types whose cast to `to` a kernel read repeats exactly.
    def widens(from: DataType, to: DataType): Boolean =
      from == to || from == IntegerType || (from == LongType && to == DoubleType)
    def input(e: Expression, to: DataType): Option[Input] = e match {
      case Alias(child, _) => input(child, to)
      case Literal(c, t) if t == to => Some(Input(-1, t, c))
      case c: Cast if c.dataType == to => input(c.child, to)
      case a: Attribute if widens(a.dataType, to) =>
        Some(scan.output.indexWhere(_.exprId == a.exprId)).filter(_ >= 0).map(Input(_, a.dataType, null))
      case _ => None
    }
    scan match {
      case leaf: LeafExecNode if leaf.supportsColumnar && exprs.size == 2 =>
        for (b <- input(exprs(0), LongType); v <- input(exprs(1), DoubleType)) yield Columns(leaf, b, v)
      case _ => None
    }
  }

  /** A [[Batch]] row's null flags: a null block id, a null value. */
  private final val NullBlock = 1
  private final val NullValue = 2

  /** Rows in input order, a batch at a time: each row's block id, value and
    * null flags ([[NullBlock]], [[NullValue]]); the slot of a null holds
    * any value. A partition's batches reuse one [[Batch]].
    */
  private final class Batch {
    var size = 0
    var nulls = new Array[Byte](0)
    var blocks = new Array[Long](0)
    var values = new Array[Double](0)

    def reserve(n: Int): Unit = if (blocks.length < n) {
      nulls = new Array[Byte](n); blocks = new Array[Long](n); values = new Array[Double](n)
    }
  }

  private object Batch {
    /** Rows copied from a row plan per batch. */
    private val RowBatch = 4096

    /** Copies `rows` (block id, value) into batches. */
    def rows(rows: Iterator[InternalRow]): Iterator[Batch] = new Iterator[Batch] {
      private val batch = new Batch
      batch.reserve(RowBatch)
      def hasNext: Boolean = rows.hasNext
      def next(): Batch = {
        val (nulls, ids, values) = (batch.nulls, batch.blocks, batch.values)
        var n = 0
        while (n < RowBatch && rows.hasNext) {
          val row = rows.next()
          var flags = 0
          if (row.isNullAt(0)) flags = NullBlock else ids(n) = row.getLong(0)
          if (row.isNullAt(1)) flags |= NullValue else values(n) = row.getDouble(1)
          nulls(n) = flags.toByte
          n += 1
        }
        batch.size = n
        batch
      }
    }

    /** Fills a batch from each column batch, reading its vectors by index. */
    def columns(block: Input, value: Input)(in: Iterator[ColumnarBatch]): Iterator[Batch] = {
      val batch = new Batch
      in.map { cb =>
        val n = cb.numRows
        batch.reserve(n)
        batch.size = n
        val (ids, values) = (batch.blocks, batch.values)
        Arrays.fill(batch.nulls, 0, n, 0.toByte)
        val bv = vector(cb, block, NullBlock, batch)
        var i = 0
        if (bv == null) { if (block.constant != null) Arrays.fill(ids, 0, n, block.constant.asInstanceOf[Long]) }
        else if (block.dataType == LongType) while (i < n) { ids(i) = bv.getLong(i); i += 1 }
        else while (i < n) { ids(i) = bv.getInt(i); i += 1 }
        val vv = vector(cb, value, NullValue, batch)
        i = 0
        if (vv == null) { if (value.constant != null) Arrays.fill(values, 0, n, value.constant.asInstanceOf[Double]) }
        else if (value.dataType == DoubleType) while (i < n) { values(i) = vv.getDouble(i); i += 1 }
        else if (value.dataType == LongType) while (i < n) { values(i) = vv.getLong(i).toDouble; i += 1 }
        else while (i < n) { values(i) = vv.getInt(i); i += 1 }
        batch
      }
    }

    /** The vector that holds `in`, null for a constant, after flagging its
      * nulls in the batch's rows with `flag`.
      */
    private def vector(cb: ColumnarBatch, in: Input, flag: Int, batch: Batch): ColumnVector = {
      val (n, nulls) = (batch.size, batch.nulls)
      if (in.ordinal < 0) {
        if (in.constant == null) { var i = 0; while (i < n) { nulls(i) = (nulls(i) | flag).toByte; i += 1 } }
        null
      } else {
        val v = cb.column(in.ordinal)
        if (v.hasNull) { var i = 0; while (i < n) { if (v.isNullAt(i)) nulls(i) = (nulls(i) | flag).toByte; i += 1 } }
        v
      }
    }
  }

  /** A [[run]] partition: each block's sample at its known rate. */
  private final class RunPartition(rng: java.util.Random, rate: Long => Double, bounds: Long => Option[Boundaries],
                                   shift: Double) {
    private val blocks = new Blocks(b => new Fixed(rate(b), bounds(b)))
    private val unkeyed = new Fixed(0.0, None)

    /** [[run]]'s row loop, a batch a call (see [[job]]). */
    def add(batch: Batch): Unit = {
      val (nulls, ids, values) = (batch.nulls, batch.blocks, batch.values)
      var i = 0
      while (i < batch.size) {
        val u = draw(rng) // every row draws, as `rand(seed)` does
        val slot = if ((nulls(i) & NullBlock) != 0) unkeyed else blocks(ids(i))
        slot.rows += 1
        if (u < slot.rate && (nulls(i) & NullValue) == 0) slot.take(values(i) + shift)
        i += 1
      }
    }

    def result(): Array[(Long, BlockSample)] =
      blocks.map.iterator.map { case (b, s) => s.sample.rows = s.rows; b -> s.sample }.toArray
  }

  /** A partition's state per block, made by `make` at the block's first
    * row. A table of the last block seen in each of 1024 slots stands in
    * front of the map, so that rows whose block changes from row to row
    * rarely hash: on `iid-scan`'s input, whose 10 blocks interleave, a
    * `LongMap` lookup a row took about 40% of a profile's samples.
    */
  private final class Blocks[T <: AnyRef](make: Long => T) {
    val map = mutable.LongMap.empty[T]
    private val ids = new Array[Long](1024)
    private val recent = new Array[AnyRef](1024)

    def apply(b: Long): T = {
      val j = b.toInt & 1023
      val r = recent(j)
      if (r != null && ids(j) == b) r.asInstanceOf[T]
      else {
        var s = map.getOrNull(b)
        if (s == null) { s = make(b); map(b) = s }
        ids(j) = b
        recent(j) = s
        s
      }
    }
  }

  /** A block's rows in one partition, sampled at a known rate and split
    * by its boundaries, if any.
    */
  private final class Fixed(val rate: Double, bounds: Option[Boundaries]) {
    var rows = 0L
    val sample = new BlockSample(if (bounds.isEmpty) 1 else Region.all.size)
    def take(a: Double): Unit = sample.add(a, bounds.fold(0)(_.classify(a).index))
  }

  /** One stream's candidates in one partition, all groups: once they
    * number more than `limit` at a trim, the stream keeps none. `accepted`
    * counts every candidate its buffers took, trimmed ones included.
    */
  private final class Stream(limit: Long) {
    val buffers = mutable.ArrayBuffer.empty[Candidates]
    var over = false
    var accepted = 0L
    def check(): Unit = if (!over && buffers.iterator.map(_.size.toLong).sum > limit) over = true
  }

  /** Whether a stream's `n` values call for new estimates: a power of two of at least [[MinSigma]]. */
  private def renewAt(n: Int): Boolean = n >= MinSigma && (n & (n - 1)) == 0

  /** A stream's candidates for one group in one partition, in row order:
    * the draw and raw value of each row drawn below the bound at the
    * time. The bound only falls, so the candidates hold every row drawn
    * below its final value. A trim, when the buffer fills at `minTrim` or
    * more and at the partition's end, lowers the bound to `rule()`, if
    * given (to 0 once the stream is over its limit), and drops the rows
    * above it. `grown` is called whenever the buffer reaches a power of
    * two of at least [[MinSigma]].
    */
  private final class Candidates(stream: Stream, start: Double, minTrim: Int, rule: () => Double = () => Double.NaN,
                                 grown: () => Unit = null) {
    stream.buffers += this
    var bound: Double = start
    var size = 0
    private var us = new Array[Double](16)
    private var as = new Array[Double](16)

    /** Lowers the bound to `b` if that is lower; a NaN `b` tells nothing. */
    def lower(b: Double): Unit = if (b < bound) bound = b
    def relower(): Unit = lower(rule())

    def offer(u: Double, a: Double): Unit = {
      if (size == us.length) {
        if (size >= minTrim) trim()
        if (2 * size > us.length) { us = Arrays.copyOf(us, 2 * us.length); as = Arrays.copyOf(as, us.length) }
      }
      if (u < bound) {
        us(size) = u; as(size) = a; size += 1
        stream.accepted += 1
        if (grown != null && renewAt(size)) grown()
      }
    }

    private def trim(): Unit = {
      stream.check()
      if (stream.over) bound = 0.0 else relower()
      val b = bound
      var kept, i = 0
      while (i < size) { // a `while` loop: a closure per trim costs tens of ms a scan
        if (us(i) < b) { us(kept) = us(i); as(kept) = as(i); kept += 1 }
        i += 1
      }
      size = kept
    }

    /** The number, mean and σ̂ ([[SampleSize.sigma]] of the sample
      * standard deviation) of the values drawn below the bound, a uniform
      * sample of the rows seen.
      */
    def stats(): (Int, Double, Double) = {
      val b = bound
      var n = 0
      var sum, m2 = 0.0
      var lo = Double.PositiveInfinity
      var i = 0
      while (i < size) { if (us(i) < b) { n += 1; sum += as(i); lo = math.min(lo, as(i)) }; i += 1 }
      val mean = sum / n
      i = 0
      while (i < size) { if (us(i) < b) m2 += (as(i) - mean) * (as(i) - mean); i += 1 }
      (n, mean, SampleSize.sigma(math.sqrt(m2 / (n - 1)), mean, lo))
    }

    /** The candidates at the partition's end, as group `group` of `rows` rows. */
    def drawn(group: Long, rows: Long): Drawn = {
      trim()
      Drawn(group, rows, bound, Arrays.copyOf(us, size), Arrays.copyOf(as, size))
    }

    /** The sample at the partition's end, folded at the bound, as [[run]] folds it at that rate. */
    def folded(group: Long, rows: Long): Drawn = {
      val sample = fold(us, as, size, bound, None, 0.0, rows)
      Drawn(group, rows, bound, Array.emptyDoubleArray, Array.emptyDoubleArray, sample)
    }
  }

  /** A block's rows in a [[oneScan]] partition: its draws go to its
    * group's pilot and sketch₀ state below `rate` and `rate2`, and to its
    * own moment candidates below `rate3`. A null block id has no moment
    * candidates, and a group only in a pooled scan.
    */
  private final class Speculating(group: ScanPartition#Group, val moments: Candidates) {
    var rows = 0L
    var rate: Double = if (group == null) 0.0 else group.pilot.bound
    var rate2: Double = if (group == null) 0.0 else group.sketch.bound
    var rate3: Double = if (moments == null) 0.0 else moments.bound
    def take(u: Double, a: Double): Unit = { group.pilot.offer(u, a); rate = group.pilot.bound }
    def take2(u: Double, a: Double): Unit = { group.sketch.offer(u, a); rate2 = group.sketch.bound }
    def take3(u: Double, a: Double): Unit = { moments.offer(u, a); rate3 = moments.bound }
  }

  /** A [[oneScan]] partition's result: its rows per block, each stream's
    * candidates per group (none for a group without rows), and the
    * candidates each stream accepted (σ pilot, sketch₀, moments).
    */
  private final case class ScanPart(rows: Array[(Long, Long)], pilot: Array[Drawn], sketch: Array[Drawn],
                                    moments: Array[Drawn], accepted: Array[Long])

  /** A [[oneScan]] partition, one of `parts`, drawing the σ pilot's,
    * sketch₀'s and the moment pass's streams from `rng`, `rng2` and `rng3`.
    */
  private final class ScanPartition(rng: java.util.Random, rng2: java.util.Random, rng3: java.util.Random, k: Int,
                                    parts: Int, pooled: Boolean, sizes: Option[Map[Long, Long]],
                                    inputRows: Option[Long], sketchRate: (Double, Long) => Double,
                                    momentRate: PreEstimation.MomentRate, limit: Long) {
    private val slots = new Blocks(slot)
    private def blocks = slots.map
    private val pilots, sketches, momentStream = new Stream(limit)
    /** The pilots at known rates, which never rerun. */
    private val knownPilots = new Stream(Long.MaxValue)
    private val groups = mutable.LongMap.empty[Group]
    /** Estimates renewed since the moment bounds were last lowered. */
    private var renewed = 0

    /** Rows with a block id so far: the rows of M this partition has seen. */
    private def counted: Long = blocks.valuesIterator.map(_.rows).sum

    /** A pilot group's pilot and sketch₀ candidates, and its estimates as
      * of the last time its pilot candidates reached a power of two.
      */
    final class Group(val id: Long) {
      var count = 0
      var sigma, mean = Double.NaN
      private val known = if (pooled) sizes.map(_.values.sum) else sizes.flatMap(_.get(id))
      private val input = if (pooled) inputRows else None
      private def seen: Long = if (pooled) counted else blocks(id).rows
      /** The group's size, or its guess: for the pooled group, `inputRows`
        * times the share of this partition's rows so far that have a block
        * id (all of them when none is null); else, if the partitions are
        * alike, its rows seen times the partitions.
        */
      def size: Long = known.getOrElse(input.fold(seen * parts)(n => (n * (counted.toDouble / rows)).toLong))
      /** The group's rows here; a pooled group's include null block ids. */
      def rows: Long = if (pooled) unkeyed.rows + counted else seen
      def estimated: Boolean = count > 0 && finite(sigma) && finite(mean) && size > 0
      /** The pilot's rate, if known in the scan: a block's, with `sizes`. */
      private val pilotRate = Option.when(!pooled && sizes.nonEmpty)(known.fold(0.0)(SampleSize.pilotRate(k, _)))
      val pilot = pilotRate match {
        case Some(r) => new Candidates(knownPilots, r, 2 * k, grown = () => renew())
        case None => new Candidates(pilots, 1.0, 2 * k, () => SampleSize.pilotRate(k, seen), () => renew())
      }
      def pilotDrawn: Drawn = if (pilotRate.isEmpty) pilot.drawn(id, rows) else pilot.folded(id, rows)
      val sketch = new Candidates(sketches, 1.0, 2 * k,
        () => if (estimated) margin(count) * sketchRate(sigma, size) else Double.NaN)

      /** Renews the estimates from the pilot candidates, if there are
        * [[MinSigma]] of them, and lowers the sketch₀ bound.
        */
      def estimate(): Boolean = {
        val (n, m, sd) = pilot.stats()
        if (n >= MinSigma) { count = n; mean = m; sigma = sd; built = None; sketch.relower() }
        n >= MinSigma
      }

      // The moment bounds read every group's estimates: they are lowered
      // once an eighth of the groups have renewed theirs.
      private def renew(): Unit = if (estimate()) {
        renewed += 1
        if (8 * renewed >= groups.size) lowerMoments()
      }
    }

    private def finite(x: Double) = !x.isNaN && !x.isInfinite
    private def group(b: Long): Group = { val g = if (pooled) 0L else b; groups.getOrElseUpdate(g, new Group(g)) }

    /** The moment rates built since the last renewal of a group's estimates. */
    private var built: Option[Long => Double] = None

    /** The moment rates at the partition's estimates; null before any, or
      * if the rate fails on them. They are built again only after a group's
      * estimates are renewed, not at each block's trims: building them reads
      * every group. A size guessed from rows seen (no `sizes`, no
      * `inputRows`) may thus be one renewal old, smaller than the group's
      * rows now, which only raises a bound.
      */
    private def momentRates(): Long => Double = built.getOrElse {
      val rates = momentRate.fold(_ => null, rate =>
        try rate(groups.valuesIterator.filter(_.estimated).map(g => BlockPre(g.id, g.size, g.sigma, g.mean, 0.0)).toSeq)
        catch { case NonFatal(_) => null })
      built = Some(rates)
      rates
    }

    /** A block's speculative moment bound: the margin times its rate at
      * the partition's estimates, once its group is estimated.
      */
    private def momentBound(b: Long, rates: Long => Double): Double = {
      val g = group(b)
      if (rates == null || !g.estimated) Double.NaN
      else try margin(g.count) * rates(b) catch { case NonFatal(_) => Double.NaN }
    }

    private def lowerMoments(): Unit = {
      renewed = 0
      val rates = momentRates()
      if (rates != null) blocks.foreach { case (b, s) => s.moments.lower(momentBound(b, rates)) }
    }

    private val unkeyed = new Speculating(if (pooled) group(0L) else null, null)
    private def slot(b: Long): Speculating = {
      val moments = momentRate.fold(r => new Candidates(momentStream, r(b), 2 * k),
        _ => new Candidates(momentStream, 1.0, 2 * k, () => momentBound(b, momentRates())))
      moments.relower()
      new Speculating(group(b), moments)
    }

    /** [[oneScan]]'s row loop, a batch a call (see [[job]]). */
    def add(batch: Batch): Unit = {
      val (nulls, ids, values) = (batch.nulls, batch.blocks, batch.values)
      var i = 0
      while (i < batch.size) {
        val u = draw(rng)
        val v = draw(rng2)
        val w = draw(rng3)
        val s = if ((nulls(i) & NullBlock) != 0) unkeyed else slots(ids(i))
        s.rows += 1
        if ((nulls(i) & NullValue) == 0) {
          val a = values(i)
          if (u < s.rate) s.take(u, a)
          if (v < s.rate2) s.take2(v, a)
          if (w < s.rate3) s.take3(w, a)
        }
        i += 1
      }
    }

    def result(): ScanPart = {
      // The pilots' final trims and estimates first: the other bounds read them.
      val live = groups.valuesIterator.filter(_.rows > 0).toArray
      val pilot = live.map(_.pilotDrawn)
      live.foreach(_.estimate())
      lowerMoments()
      ScanPart(blocks.iterator.map { case (b, s) => b -> s.rows }.toArray, pilot,
        live.map(g => g.sketch.drawn(g.id, g.rows)),
        blocks.iterator.map { case (b, s) => s.moments.drawn(b, s.rows) }.toArray,
        Array(pilots.accepted + knownPilots.accepted, sketches.accepted, momentStream.accepted))
    }
  }
}
