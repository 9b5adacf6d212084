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
    def scan(seed: Long, pooled: Boolean, sizes: Option[Map[Long, Long]], df: DataFrame) =
      SampleAgg.oneScan(df, col("block"), col("value"), "test", seed, k, pooled, sizes, (_, _) => 1.0,
        Left(_ => 0.1), 4e6)
    for (contiguous <- Seq(false, true)) {
      val df = CountedInput(spark, contiguous).cache()
      try {
        assert(df.rdd.getNumPartitions >= 6)
        // Per block, in one scan: the count skips null block ids, and so do the pilots.
        val perBlock = scan(15L, pooled = false, None, df)
        val sizes = perBlock.sizes
        Oracle.assertEquivalent(sizes.toSeq.toDF("block", "n"),
          "SELECT block, count(*) AS n FROM t WHERE block IS NOT NULL GROUP BY block", "t" -> df)
        assert(sizes == Moments.blockSizes(df))
        val rates: Long => Double = b => SampleAgg.pilotRate(k, sizes(b))
        val expected = SampleAgg.run(df, col("block"), col("value"), "test", 15L, rates)
        for ((given, drawn) <- Seq(false -> perBlock, true -> scan(15L, pooled = false, Some(sizes), df))) {
          val clue = s"contiguous=$contiguous, sizes given: $given"
          // Given sizes, a block's pilot rate is known: the scan folds the pilot at it.
          if (given) drawn.pilot.foreach(d => assert(d.bound == rates(d.group) && d.folded != null, clue))
          val got = SampleAgg.replay(drawn.pilot, rates).get
          assert(got.keySet == expected.keySet && got.values.map(_.n).sum > 0, clue)
          expected.foreach { case (b, s) => assert(fields(got(b)) == fields(s), s"block $b, $clue") }
        }

        // Pooled, in one scan: the count skips null block ids, the pilot still draws from them.
        val pooledScan = scan(16L, pooled = true, None, df)
        assert(pooledScan.sizes == sizes)
        val rate = SampleAgg.pilotRate(k, sizes.values.sum)
        val pooled = SampleAgg.replay(pooledScan.pilot, _ => rate).get
        val all = SampleAgg.run(df, lit(0L), col("value"), "test", 16L, _ => rate)
        assert(pooled.keySet == Set(0L) && pooled(0L).n > 0)
        assert(fields(pooled(0L)) == fields(all(0L)), s"contiguous=$contiguous")
      } finally { df.unpersist(); () }
    }
  }

  test("one scan's streams replay as the σ pilot, sketch₀ and moment passes") {
    def fields(s: BlockSample) = (s.rows, s.regions.toSeq, s.n, s.sd, s.min)
    def same(got: Map[Long, BlockSample], expected: Map[Long, BlockSample], clue: String): Unit = {
      assert(got.keySet == expected.keySet, clue)
      expected.foreach { case (b, s) => assert(fields(got(b)) == fields(s), s"block $b, $clue") }
    }
    // Rates that read σ̂ and the group sizes as Eq. 1 does; with k = 600 a
    // pooled pilot buffer is trimmed and a block's pilot, at k/nⱼ ≈ 0.1,
    // still reaches 64 values in a partition.
    val k = 600
    val sketchRate: (Double, Long) => Double = (sigma, m) => math.min(1.0, 3 * sigma / m)
    val momentRate: Seq[BlockPre] => Long => Double = { pres =>
      val r = math.min(1.0, 100 * pres.map(_.sigma).max / pres.map(_.size).sum)
      _ => r
    }
    val split: Long => Option[Boundaries] = b => Some(Boundaries(97.5 + b, 30.0, 0.5, 2.0))
    for (contiguous <- Seq(false, true); pooled <- Seq(true, false); given <- Seq(false, true);
         moments <- Seq[PreEstimation.MomentRate](Right(momentRate), Left(_ => 0.3))) {
      val df = CountedInput(spark, contiguous).cache()
      try {
        val sizes = Moments.blockSizes(df)
        val clue = s"contiguous=$contiguous, pooled=$pooled, sizes given: $given, moment rate $moments"
        val scan = SampleAgg.oneScan(df, col("block"), col("value"), "test", 21L, k, pooled,
          Option.when(given)(sizes), sketchRate, moments, 4e6)
        assert(scan.sizes == sizes, clue)
        val groups = if (pooled) Set(0L) else sizes.keySet
        assert(scan.pilot.size == (if (pooled) 8 else scan.moments.size), clue)
        for (d <- scan.pilot ++ scan.sketch) assert(groups(d.group), clue)
        assert(scan.moments.map(_.group).toSet == sizes.keySet, clue)
        for (d <- scan.pilot ++ scan.sketch ++ scan.moments) assert(d.us.forall(_ < d.bound), clue)

        // Each stream, replayed at each group's lowest bound, is the pass at those rates.
        def lowest(drawn: Seq[SampleAgg.Drawn]): Map[Long, Double] =
          drawn.groupBy(_.group).map { case (g, ds) => g -> ds.map(_.bound).min }
        val grouped = if (pooled) lit(0L) else col("block")
        val p = lowest(scan.pilot)
        same(SampleAgg.replay(scan.pilot, p).get, SampleAgg.run(df, grouped, col("value"), "test", 21L, p), clue)
        val s = lowest(scan.sketch)
        assert(s.values.min > 0 && s.values.min < 1, s"$clue: $s")
        same(SampleAgg.replay(scan.sketch, s).get, SampleAgg.run(df, grouped, col("value"), "test", 22L, s), clue)
        val m = lowest(scan.moments)
        assert(m.values.min > 0 && m.values.min < 1 && moments.left.forall(_ => m.values.forall(_ == 0.3)), clue)
        for (shift <- Seq(0.0, 117.5); bounds <- Seq[Long => Option[Boundaries]](_ => None, split))
          same(SampleAgg.replay(scan.moments, m, bounds, shift).get,
            SampleAgg.run(df, col("block"), col("value"), "test", 23L, m, bounds, shift), s"$clue, shift $shift")
        val regions = SampleAgg.replay(scan.moments, m, split, 117.5).get.values.map(_.regions.map(_.n))
          .reduce(_.zip(_).map(t => t._1 + t._2))
        assert(regions.forall(_ > 0), s"every region is sampled: ${regions.toSeq}")

        // Above a partition's bound the candidates may lack rows: no replay.
        assert(SampleAgg.replay(scan.sketch, _ => scan.sketch.map(_.bound).max * 1.01).isEmpty, clue)
        // Over the cap, a stream keeps nothing and its bound is 0; a folded pilot keeps no candidates.
        val capped = SampleAgg.oneScan(df, col("block"), col("value"), "test", 21L, k, pooled,
          Option.when(given)(sizes), sketchRate, moments, 0.0)
        val folded = !pooled && given
        for (d <- capped.pilot) assert(d.folded != null == folded && (folded || d.bound == 0.0 && d.us.isEmpty), clue)
        for (d <- capped.sketch ++ capped.moments) assert(d.bound == 0.0 && d.us.isEmpty, clue)
        assert(capped.sizes == sizes, clue)
      } finally { df.unpersist(); () }
    }
  }

  /** Records the jobs submitted, the shuffle bytes written and the task
    * result bytes sent to the driver.
    */
  private final class JobLog extends SparkListener {
    val descriptions = mutable.ArrayBuffer.empty[String]
    var shuffleBytes = 0L
    var resultBytes = 0L
    override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
      descriptions += Option(e.properties).map(_.getProperty("spark.job.description")).orNull
    }
    override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
      if (e.taskMetrics != null) {
        shuffleBytes += e.taskMetrics.shuffleWriteMetrics.bytesWritten
        resultBytes += e.taskMetrics.resultSize
      }
    }
  }

  /** The log of the jobs `body` runs. */
  private def jobLog(body: => Any): JobLog = {
    val sc = spark.sparkContext
    ListenerBusDrain(sc)
    val log = new JobLog
    sc.addSparkListener(log)
    try {
      body
      ListenerBusDrain(sc)
      log
    } finally sc.removeSparkListener(log)
  }

  /** The jobs `body` runs, with their descriptions, and the shuffle bytes it writes. */
  private def logJobs(body: => Any): (Seq[String], Long) = {
    val log = jobLog(body)
    log.synchronized((log.descriptions.toList, log.shuffleBytes))
  }

  /** The jobs `body` runs, with their descriptions, and the task result bytes they send. */
  private def logResults(body: => Any): (Seq[String], Long) = {
    val log = jobLog(body)
    log.synchronized((log.descriptions.toList, log.resultBytes))
  }

  test("every call runs one shuffle-free job per pass") {
    val df = Distributions.normal(spark, 50000L, 100.0, 20.0, 5, seed = 13).cache()
    try {
      df.count()
      val sizes = Moments.blockSizes(df)
      val p = IslaParams(e = 1.0)
      val calls = Seq[(String, Int, () => Any)](
        ("Isla.run with sizes", 1, () => Isla.run(df, "value", p, Some(sizes))),
        ("Isla.run without sizes", 1, () => Isla.run(df, "value", p)),
        ("IslaNonIid.run", 1, () => IslaNonIid.run(df, "value", p, Some(sizes))),
        ("IslaNonIid.run without sizes", 1, () => IslaNonIid.run(df, "value", p)),
        ("IslaNonIid.preEstimate", 1, () => IslaNonIid.preEstimate(df, "value", sizes, p)),
        ("PreEstimation.run", 1, () => PreEstimation.run(df, "value", sizes.values.sum, p)),
        ("US", 1, () => UniformSampling.run(df, "value", 0.1)),
        ("STS", 1, () => StratifiedSampling.run(df, "value", 0.1, Some(sizes))),
        ("STS without sizes", 1, () => StratifiedSampling.run(df, "value", 0.1)),
        ("MV", 1, () => MeasureBiased.runMV(df, "value", 0.1)),
        ("MVB with sizes", 1, () => MeasureBiased.runMVB(df, "value", 0.1, p, Some(sizes))),
        ("MVB without sizes", 1, () => MeasureBiased.runMVB(df, "value", 0.1, p)),
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
      val sizes = Moments.blockSizes(df)
      sc.setJobDescription("caller")
      val p = IslaParams(e = 1.0)
      // Each call's label, and the passes it runs on its own at fusedCap 0.
      // The sketch-only calls never run a moment pass, and a non-i.i.d.
      // pilot at known sizes is folded in the scan.
      val calls = Seq[(() => Any, String, Seq[String])](
        (() => Isla.run(df, "value", p), "ISLA", Seq("σ pilot", "sketch₀", "moments")),
        (() => MeasureBiased.runMVB(df, "value", 0.1, p), "MVB", Seq("σ pilot", "sketch₀", "moments")),
        (() => IslaNonIid.run(df, "value", p), "ISLA non-i.i.d.", Seq("σ pilot", "sketch₀", "moments")),
        (() => PreEstimation.run(df, "value", sizes.values.sum, p), "ISLA", Seq("σ pilot", "sketch₀")),
        (() => IslaNonIid.preEstimate(df, "value", sizes, p), "ISLA non-i.i.d.", Seq("sketch₀")),
      )
      for ((call, label, separate) <- calls; cap <- Seq(PreEstimation.fusedCap.value, 0.0)) {
        val (descriptions, _) = logJobs {
          PreEstimation.fusedCap.withValue(cap)(call())
          sc.parallelize(Seq(1)).count()
        }
        val rerun = if (cap == 0.0) separate.map(s"$label " + _) else Nil
        assert(descriptions == (s"$label σ pilot + sketch₀ + moments" +: rerun) :+ "caller", s"$label at cap $cap")
      }
    } finally { sc.setJobDescription(null); df.unpersist(); () }
  }

  private val nonIid = "ISLA non-i.i.d."

  /** A call under test: its job-label prefix, the call at given or unknown
    * block sizes, and the passes it runs again as a function of whether
    * sizes are given.
    */
  private type OneScanCall = (String, Option[Map[Long, Long]] => Any, Boolean => Seq[String])

  /** Runs each of `calls(df, input)` on four inputs, with and without
    * sizes, in one scan and at `fusedCap` 0, and checks the jobs each runs
    * and that both give equal results.
    */
  private def agreeFromOneScan(calls: (DataFrame, String) => Seq[OneScanCall]): Unit = {
    // A value-sorted input: each partition's σ̂ is far below the pooled σ̂
    // (and each block's), so the speculative bounds miss and sketch₀ (and
    // an unknown moment rate) run again as their own passes. It is sorted
    // on the driver and cut into 8 equal slices, so that its layout does
    // not depend on a range partitioner's sample.
    def valueSorted(): DataFrame = {
      import spark.implicits._
      val rows = CountedInput(spark, contiguous = false).as[(Option[Long], Option[Double])].collect()
        .sortBy(r => (r._2.getOrElse(Double.NegativeInfinity), r._1.getOrElse(Long.MinValue)))(
          Ordering.Tuple2(Ordering.Double.TotalOrdering, Ordering.Long))
      spark.sparkContext.parallelize(rows.toSeq, 8).toDF("block", "value")
    }
    val inputs = Seq[(String, () => DataFrame)](
      ("interleaved", () => CountedInput(spark, contiguous = false)),
      ("contiguous", () => CountedInput(spark, contiguous = true)),
      ("constant", () => CountedInput(spark, contiguous = true)
        .withColumn("value", when(col("value").isNotNull, lit(7.5)))),
      ("value-sorted", () => valueSorted()))
    // Field for field; non-i.i.d. ISLA's sketch0 is NaN.
    def same(a: Any, b: Any) = (a, b) match {
      case (x: IslaResult, y: IslaResult) =>
        x.copy(sketch0 = 0.0) == y.copy(sketch0 = 0.0) && x.sketch0.equals(y.sketch0)
      case _ => a == b
    }
    for ((input, make) <- inputs) {
      val df = make().cache()
      try {
        df.count()
        val sizes = Moments.blockSizes(df)
        for ((name, call, missed) <- calls(df, input); given <- Seq(None, Some(sizes))) {
          val clue = s"$name on $input input, sizes given: ${given.nonEmpty}"
          val scan = s"$name σ pilot + sketch₀ + moments"
          var once, separate: Any = null
          val (jobs, _) = logJobs { once = call(given) }
          val (separateJobs, _) = logJobs { separate = PreEstimation.fusedCap.withValue(0.0)(call(given)) }
          assert(jobs == scan +: missed(given.nonEmpty).map(s"$name " + _), clue)
          // A non-i.i.d. pilot at known sizes is folded in the scan, whatever the cap.
          val rerun = (if (name == nonIid && given.nonEmpty) Nil else Seq("σ pilot")) ++ Seq("sketch₀", "moments")
          assert(separateJobs == scan +: rerun.map(s"$name " + _), clue)
          assert(same(once, separate), s"$clue:\n$once\n$separate")
        }
      } finally { df.unpersist(); () }
    }
  }

  test("Isla.run and MVB agree from one scan, with fusedCap 0 and on a miss") {
    val p = IslaParams(e = 1.0)
    agreeFromOneScan { (df, input) =>
      // Only the value-sorted input misses; the passes each call runs again.
      val sorted = input == "value-sorted"
      Seq[OneScanCall](
        ("ISLA", Isla.run(df, "value", p, _, seed = 61), _ => if (sorted) Seq("sketch₀", "moments") else Nil),
        ("ISLA", Isla.run(df, "value", p.copy(rateOverride = Some(0.2)), _, seed = 63),
          _ => if (sorted) Seq("sketch₀") else Nil),
        ("MVB", MeasureBiased.runMVB(df, "value", 0.2, p, _, seed = 62), _ => if (sorted) Seq("sketch₀") else Nil))
    }
  }

  test("IslaNonIid.run agrees from one scan, with fusedCap 0 and on a miss") {
    val p = IslaParams(e = 1.0)
    agreeFromOneScan { (df, input) =>
      // Without sizes, non-i.i.d. ISLA guesses a block's size as its rows
      // seen times the partitions, which falls short on contiguous blocks,
      // and so does its moment rate at a fixed overall rate. A value-sorted
      // input at a fixed rate and known sizes leaves the leverages, and so
      // the moment rates, as they are.
      def missed(fixed: Boolean)(known: Boolean): Seq[String] = input match {
        case "interleaved" => Nil
        case "value-sorted" => if (fixed && known) Seq("sketch₀") else Seq("sketch₀", "moments")
        case _ => if (known) Nil else if (fixed) Seq("sketch₀", "moments") else Seq("sketch₀")
      }
      Seq[OneScanCall](
        (nonIid, IslaNonIid.run(df, "value", p, _, seed = 64), missed(fixed = false)),
        (nonIid, IslaNonIid.run(df, "value", p.copy(rateOverride = Some(0.2)), _, seed = 65),
          missed(fixed = true)))
    }
  }

  test("Isla.run without sizes sends about c·m candidates, not P·c·m") {
    // Fixed before the first run, from DESIGN §5: N(100, 20²), M = 4·10⁵
    // rows in P = 4 partitions, e = 0.25, β = 0.95. Eq. 1 asks for
    // m = ⌈1.96²·20²/0.25²⌉ = 24 586 moment samples and, at t_e·e = 0.75,
    // m₀ = 2 732 sketch₀ samples. A partition keeps candidates below
    // c = 1.5 times the rate at its own σ̂ and M guessed as P × its rows,
    // so c·(m + m₀) ≈ 41 000 in all, plus at most 2k = 4 000 σ-pilot
    // candidates per partition, 16 B each: 0.91 MB, and 25% more for
    // framing. Bounding M by the rows a partition has seen would keep
    // P·c·m ≈ 147 000 moment candidates, 2.4 MB. Given `sizes`, the scan
    // still sends the pooled pilot's candidates and knows M, so the same
    // bound holds.
    val bound = 16 * (1.5 * (24586 + 2732) + 4 * 2 * 2000) * 1.25
    val df = spark.range(0, 400000, 1, 4)
      .select((col("id") % 10).as("block"), (lit(100.0) + randn(71) * 20).as("value")).cache()
    try {
      df.count()
      val p = IslaParams(e = 0.25)
      Isla.run(df, "value", p, seed = 72) // warm up
      for (sizes <- Seq(None, Some(Moments.blockSizes(df)))) {
        val (jobs, sent) = logResults(Isla.run(df, "value", p, sizes, seed = 73))
        assert(jobs == Seq("ISLA σ pilot + sketch₀ + moments"))
        assert(sent > 16 * 24586 && sent < bound,
          s"sizes given: ${sizes.isDefined}; task results: $sent bytes, bound ${bound.toLong}")
      }
    } finally { df.unpersist(); () }
  }

  test("IslaNonIid.run with sizes sends about c·(m + m₀) candidates, not P·b·k") {
    // From DESIGN §5: M = 4·10⁵ rows in P = 4 partitions, b = 10 blocks of
    // 40 000 cycling the five §VIII-D specs (σⱼ = 20, 10, 30, 60, 40),
    // e = 1, β = 0.95, u² = 3.8415. Eq. 1 asks for m₀ =
    // Σⱼ⌈u²σⱼ²/(t_e·e)²⌉ = 2·(171 + 43 + 385 + 1537 + 683) = 5 638 sketch₀
    // samples and, at the pooled σ² = 1320 + 1160 = 2480, for
    // m = ⌈u²·2480/e²⌉ = 9 527 moment samples. A block's pilot rate k/nⱼ
    // is known, so the scan folds the pilots and sends no pilot
    // candidates; each block's σ̂ rests on about k/P = 500 pilot values, so
    // c = 1.5. In all 1.5·(9 527 + 5 638) ≈ 22 700 candidates, 16 B each:
    // 0.36 MB, and 25% more for framing. Pilot candidates below k/nⱼ
    // would add b·k = 20 000 (0.32 MB), a falling per-block pilot bound
    // P·b·k = 80 000 (1.28 MB). Without `sizes` the scan sends exactly
    // those: each partition keeps about k candidates per block.
    def bound(sizesGiven: Boolean) = 16 * (1.5 * (9527 + 5638) + (if (sizesGiven) 0 else 4 * 10 * 2000)) * 1.25
    val specs = Distributions.nonIidSpecs
    val blockId = col("id") % 10
    val spec = (blockId % specs.size + 1).cast("int")
    val df = spark.range(0, 400000, 1, 4).select(
      (element_at(typedLit(specs.map(_._1)), spec) + element_at(typedLit(specs.map(_._2)), spec) * randn(81))
        .as("value"),
      blockId.as("block")).cache()
    try {
      df.count()
      val sizes = Moments.blockSizes(df)
      val p = IslaParams(e = 1.0)
      IslaNonIid.run(df, "value", p, Some(sizes), seed = 82) // warm up
      for (given <- Seq(Some(sizes), None)) {
        val (jobs, sent) = logResults(IslaNonIid.run(df, "value", p, given, seed = 83))
        assert(jobs == Seq("ISLA non-i.i.d. σ pilot + sketch₀ + moments"))
        val b = bound(given.isDefined)
        assert(sent > 16 * (9527 + 5638) && sent < b,
          s"sizes given: ${given.isDefined}; task results: $sent bytes, bound ${b.toLong}")
      }
    } finally { df.unpersist(); () }
  }
}
