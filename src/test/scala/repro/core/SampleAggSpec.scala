package repro.core

import scala.collection.mutable

import org.apache.spark.ListenerBusDrain
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

import repro.{Oracle, SparkSpec}
import repro.baselines.{MeasureBiased, StratifiedSampling, UniformSampling}
import repro.data.Distributions

/** Tests for the sampling kernel: it samples the rows `rand(seed)`
  * samples, reproduces the SQL aggregates it replaced, skips nulls as
  * they do, and runs one shuffle-free, labelled job per pass.
  */
class SampleAggSpec extends SparkSpec {

  /** 7 interleaved blocks over 6 partitions. */
  private def input(rows: Long): DataFrame =
    spark.range(0, rows, 1, 6).select(
      (col("id") % 7).as("block"),
      (lit(100.0) + randn(3) * 20).as("value"))

  private def counts(samples: Map[Long, BlockSample]): Map[Long, Long] =
    samples.map { case (b, s) => b -> s.n }

  private def sqlCounts(sampled: DataFrame): Map[Long, Long] =
    sampled.groupBy("block").count().collect().map(r => r.getLong(0) -> r.getLong(1)).toMap

  test("a constant rate samples exactly the rows where(rand(seed) < r) keeps") {
    val df = input(30000L).cache()
    try {
      assert(df.rdd.getNumPartitions >= 4)
      val got = SampleAgg.run(df, col("block"), col("value"), "test", 5L, _ => 0.3)
      assert(counts(got) == sqlCounts(df.where(rand(5L) < 0.3)))
      assert(got.map { case (b, s) => b -> s.rows } == sqlCounts(df))
    } finally { df.unpersist(); () }
  }

  test("a per-block rate map samples exactly the rows rand(seed) < rate(block) keeps") {
    val df = input(30000L).cache()
    try {
      val rates = Map(0L -> 0.0, 1L -> 0.01, 2L -> 0.1, 3L -> 0.25, 4L -> 0.5, 5L -> 0.9, 6L -> 1.0)
      val got = SampleAgg.run(df, col("block"), col("value"), "test", 8L, rates)
      val expected = sqlCounts(df.where(rand(8L) < element_at(typedLit(rates), col("block"))))
      assert(counts(got).filter(_._2 > 0) == expected)
    } finally { df.unpersist(); () }
  }

  test("pilot statistics equal Spark's stddev_samp, min and avg bit for bit") {
    val df = input(30000L).cache()
    try {
      val v = col("value")
      val pooled = SampleAgg.run(df, lit(0L), v, "test", 9L, _ => 0.2)(0L)
      val r = df.where(rand(9L) < 0.2).agg(stddev_samp(v), min(v), avg(v)).collect()(0)
      assert((pooled.sd, pooled.min, pooled.avg) == ((r.getDouble(0), r.getDouble(1), r.getDouble(2))))

      val perBlock = SampleAgg.run(df, col("block"), v, "test", 10L, _ => 0.2)
      df.where(rand(10L) < 0.2).groupBy("block").agg(stddev_samp(v), min(v), avg(v)).collect()
        .foreach { r =>
          val s = perBlock(r.getLong(0))
          assert((s.sd, s.min, s.avg) == ((r.getDouble(1), r.getDouble(2), r.getDouble(3))), s"block ${r.get(0)}")
        }
    } finally { df.unpersist(); () }
  }

  test("S/L moments equal Spark's conditional sums bit for bit") {
    val df = input(30000L).cache()
    try {
      val bounds = Boundaries(100.0, 20.0, 0.5, 2.0)
      val got = Moments.collect(df, "value", 0.4, bounds, Moments.blockSizes(df), seed = 11L)
      val v = col("value")
      def moments(in: Column) = Seq(
        sum(when(in, 1L).otherwise(0L)), sum(when(in, v).otherwise(0.0)),
        sum(when(in, v * v).otherwise(0.0)), sum(when(in, v * v * v).otherwise(0.0)))
      val inS = v > bounds.lo2 && v < bounds.lo1
      val inL = v > bounds.hi1 && v < bounds.hi2
      val expected = df.where(rand(11L) < 0.4).groupBy("block")
        .agg(moments(inS).head, (moments(inS).tail ++ moments(inL)): _*)
        .collect()
        .map(r => r.getLong(0) -> (
          RegionMoments(r.getLong(1), r.getDouble(2), r.getDouble(3), r.getDouble(4)),
          RegionMoments(r.getLong(5), r.getDouble(6), r.getDouble(7), r.getDouble(8))))
        .toMap
      assert(got.map(bm => bm.block -> (bm.s, bm.l)).toMap == expected)
    } finally { df.unpersist(); () }
  }

  test("null values are skipped as SQL aggregates skip them; block sizes count their rows") {
    import spark.implicits._
    val df = (0 until 3000)
      .map(i => (if (i % 7 == 0) None else Some((i % 97).toDouble), (i % 3).toLong))
      .toDF("value", "block")
    val d = "(SELECT block, CAST(value AS DOUBLE) AS d FROM t)"

    Oracle.assertEquivalent(Seq(UniformSampling.run(df, "value", 1.0).answer).toDF("a"),
      s"SELECT avg(d) AS a FROM $d", "t" -> df)
    Oracle.assertEquivalent(Seq(MeasureBiased.runMV(df, "value", 1.0).answer).toDF("a"),
      s"""SELECT sum(s2 / s * n) / sum(n) AS a
         |FROM (SELECT sum(d * d) AS s2, sum(d) AS s, count(d) AS n FROM $d GROUP BY block)""".stripMargin,
      "t" -> df)

    val sizes = Moments.blockSizes(df)
    Oracle.assertEquivalent(sizes.toSeq.toDF("block", "n"),
      "SELECT CAST(block AS BIGINT) AS block, count(*) AS n FROM t GROUP BY 1", "t" -> df)
    assert(sizes.values.sum == 3000L)

    val b = Boundaries(48.0, 20.0, 0.5, 2.0)
    val got = Moments.collect(df, "value", 1.0, b, sizes, seed = 12L)
      .map(bm => (bm.block, bm.s.n + bm.l.n, bm.s.sum + bm.l.sum)).toDF("block", "n", "s")
    val inSL = s"(d > ${b.lo2} AND d < ${b.lo1}) OR (d > ${b.hi1} AND d < ${b.hi2})"
    Oracle.assertEquivalent(got,
      s"SELECT block, count(CASE WHEN $inSL THEN d END) AS n, sum(CASE WHEN $inSL THEN d END) AS s FROM $d GROUP BY block",
      "t" -> df)
  }

  test("the σ pilot counts every block and equals the pass at its resolved rate, trimming many times") {
    import spark.implicits._
    val k = 5 // candidates are trimmed whenever 16 are buffered
    def fields(s: BlockSample) = (s.rows, s.regions.toSeq, s.n, s.sd, s.min, s.avg)
    for (contiguous <- Seq(false, true)) {
      val df = CountedInput(spark, contiguous).cache()
      try {
        assert(df.rdd.getNumPartitions >= 6)
        val (sizes, perBlock) = SampleAgg.pilot(df, col("block"), col("value"), "test", 15L, k, pooled = false)
        Oracle.assertEquivalent(sizes.toSeq.toDF("block", "n"),
          "SELECT block, count(*) AS n FROM t WHERE block IS NOT NULL GROUP BY block", "t" -> df)
        assert(sizes == Moments.blockSizes(df))
        val expected = SampleAgg.run(df, col("block"), col("value"), "test", 15L, b => SampleAgg.pilotRate(k, sizes(b)))
        assert(perBlock.keySet == expected.keySet && perBlock.values.map(_.n).sum > 0)
        expected.foreach { case (b, s) => assert(fields(perBlock(b)) == fields(s), s"block $b, contiguous=$contiguous") }

        // Pooled: the count skips null block ids, the pilot still draws from them.
        val (pooledSizes, pooled) = SampleAgg.pilot(df, col("block"), col("value"), "test", 16L, k, pooled = true)
        assert(pooledSizes == sizes)
        val all = SampleAgg.run(df, lit(0L), col("value"), "test", 16L, _ => SampleAgg.pilotRate(k, sizes.values.sum))
        assert(pooled.keySet == Set(0L) && pooled(0L).n > 0)
        assert(fields(pooled(0L)) == fields(all(0L)), s"contiguous=$contiguous")
      } finally { df.unpersist(); () }
    }
  }

  test("a fused pass equals the pooled sketch₀ pass and, replayed, the moment pass at its bounds") {
    def fields(s: BlockSample) = (s.rows, s.regions.toSeq, s.n, s.sd, s.min)
    val rate = Map(0L -> 0.3, 1L -> 0.05, 2L -> 1.0, 3L -> 0.0, 4L -> 0.5, 5L -> 0.8)
    for (contiguous <- Seq(false, true); shift <- Seq(0.0, 117.5)) {
      val df = CountedInput(spark, contiguous).cache()
      try {
        assert(df.rdd.getNumPartitions == 8)
        val (sketch, kept) = SampleAgg.fused(df, col("block"), col("value"), "test", 21L, 0.15, 22L, rate, shift)
        val pooled = SampleAgg.run(df, lit(0L), col("value"), "test", 21L, _ => 0.15)
        assert(sketch.keySet == Set(0L) && sketch(0L).rows == 30000L && sketch(0L).n > 0)
        assert((fields(sketch(0L)), sketch(0L).avg) == ((fields(pooled(0L)), pooled(0L).avg)),
          s"contiguous=$contiguous")

        val split: Long => Option[Boundaries] = b => Some(Boundaries(shift - 20.0 + b, 30.0, 0.5, 2.0))
        for (bounds <- Seq[Long => Option[Boundaries]](_ => None, split)) {
          val expected = SampleAgg.run(df, col("block"), col("value"), "test", 22L, rate, bounds, shift)
          val got = SampleAgg.replay(kept, bounds)
          assert(got.keySet == expected.keySet && got.keySet == (0L to 5L).toSet)
          expected.foreach { case (b, s) =>
            assert(fields(got(b)) == fields(s), s"block $b, contiguous=$contiguous, shift=$shift")
          }
        }
        val regions = SampleAgg.replay(kept, split).values.map(_.regions.map(_.n))
          .reduce(_.zip(_).map(t => t._1 + t._2))
        assert(regions.forall(_ > 0), s"every region is sampled: ${regions.toSeq}")
      } finally { df.unpersist(); () }
    }
  }

  /** Records the jobs submitted and the shuffle bytes written. */
  private final class JobLog extends SparkListener {
    val descriptions = mutable.ArrayBuffer.empty[String]
    var shuffleBytes = 0L
    override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
      descriptions += Option(e.properties).map(_.getProperty("spark.job.description")).orNull
    }
    override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
      if (e.taskMetrics != null) shuffleBytes += e.taskMetrics.shuffleWriteMetrics.bytesWritten
    }
  }

  /** The jobs `body` runs, with their descriptions, and the shuffle bytes it writes. */
  private def logJobs(body: => Any): (Seq[String], Long) = {
    val sc = spark.sparkContext
    ListenerBusDrain(sc)
    val log = new JobLog
    sc.addSparkListener(log)
    try {
      body
      ListenerBusDrain(sc)
      log.synchronized((log.descriptions.toList, log.shuffleBytes))
    } finally sc.removeSparkListener(log)
  }

  test("every call runs one shuffle-free job per pass") {
    val df = Distributions.normal(spark, 50000L, 100.0, 20.0, 5, seed = 13).cache()
    try {
      df.count()
      val sizes = Moments.blockSizes(df)
      val p = IslaParams(e = 1.0)
      val calls = Seq[(String, Int, () => Any)](
        ("Isla.run with sizes", 2, () => Isla.run(df, "value", p, Some(sizes))),
        ("Isla.run without sizes", 2, () => Isla.run(df, "value", p)),
        ("IslaNonIid.run", 3, () => IslaNonIid.run(df, "value", p, Some(sizes))),
        ("IslaNonIid.run without sizes", 3, () => IslaNonIid.run(df, "value", p)),
        ("US", 1, () => UniformSampling.run(df, "value", 0.1)),
        ("STS", 1, () => StratifiedSampling.run(df, "value", 0.1, Some(sizes))),
        ("STS without sizes", 1, () => StratifiedSampling.run(df, "value", 0.1)),
        ("MV", 1, () => MeasureBiased.runMV(df, "value", 0.1)),
        ("MVB with sizes", 2, () => MeasureBiased.runMVB(df, "value", 0.1, p, Some(sizes))),
        ("MVB without sizes", 2, () => MeasureBiased.runMVB(df, "value", 0.1, p)),
      )
      calls.foreach { case (name, jobs, call) =>
        val (descriptions, shuffleBytes) = logJobs(call())
        assert(descriptions.size == jobs, s"$name: jobs $descriptions")
        assert(shuffleBytes == 0L, s"$name: shuffle bytes")
      }
    } finally { df.unpersist(); () }
  }

  test("each job is labelled with its phase and the caller's description is restored") {
    val df = Distributions.normal(spark, 20000L, 100.0, 20.0, 4, seed = 14).cache()
    val sc = spark.sparkContext
    try {
      df.count()
      sc.setJobDescription("caller")
      val p = IslaParams(e = 1.0)
      val calls = Seq[(() => Any, Seq[String])](
        (() => Isla.run(df, "value", p), Seq("ISLA σ pilot", "ISLA sketch₀ + moments")),
        (() => MeasureBiased.runMVB(df, "value", 0.1, p), Seq("MVB σ pilot", "MVB sketch₀ + moments")),
        (() => IslaNonIid.run(df, "value", p),
          Seq("ISLA non-i.i.d. σ pilot", "ISLA non-i.i.d. sketch₀", "ISLA non-i.i.d. moments")),
      )
      calls.foreach { case (call, phases) =>
        val (descriptions, _) = logJobs {
          call()
          sc.parallelize(Seq(1)).count()
        }
        assert(descriptions == phases :+ "caller")
      }
    } finally { sc.setJobDescription(null); df.unpersist(); () }
  }

  test("Isla.run and MVB give the same answers with sketch₀ and the moment pass fused or separate") {
    // Above the cap the pipeline runs sketch₀ and the moment pass as two jobs.
    val p = IslaParams(e = 1.0)
    for (contiguous <- Seq(false, true)) {
      val df = CountedInput(spark, contiguous).cache()
      try {
        val sizes = Moments.blockSizes(df)
        val calls = Seq[(String, Option[Map[Long, Long]] => Any)](
          ("ISLA", Isla.run(df, "value", p, _, seed = 61)),
          ("MVB", MeasureBiased.runMVB(df, "value", 0.2, p, _, seed = 62)))
        for ((name, call) <- calls; given <- Seq(None, Some(sizes))) {
          var fused, separate: Any = null
          val (fusedJobs, _) = logJobs { fused = call(given) }
          val (separateJobs, _) = logJobs { separate = PreEstimation.fusedCap.withValue(0.0)(call(given)) }
          assert(fusedJobs == Seq(s"$name σ pilot", s"$name sketch₀ + moments"))
          assert(separateJobs == Seq(s"$name σ pilot", s"$name sketch₀", s"$name moments"))
          assert(fused == separate, s"$name, sizes given: ${given.nonEmpty}, contiguous=$contiguous")
        }
      } finally { df.unpersist(); () }
    }
  }
}
