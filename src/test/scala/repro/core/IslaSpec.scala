package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.baselines.{BaselineResult, MeasureBiased, StratifiedSampling}
import repro.data.Distributions

/** End-to-end ISLA tests on small blocked data. */
class IslaSpec extends SparkSpec {

  // Modest precision keeps the Eq.-1 sample size (and test time) small:
  // e=1, σ=20, β=0.95 → m ≈ 1537 of 100 000 rows.
  private val p = IslaParams(e = 1.0)

  test("ISLA recovers the mean of N(100,20²) within the desired precision") {
    val df = Distributions.normal(spark, 100000L, 100.0, 20.0, 10, seed = 21).cache()
    try {
      val r = Isla.run(df, "value", p, seed = 31)
      assert(math.abs(r.answer - 100.0) < p.e, s"answer=${r.answer}")
    } finally { df.unpersist(); () }
  }

  test("ISLA is deterministic in the seed") {
    val df = Distributions.normal(spark, 50000L, 100.0, 20.0, 5, seed = 22).cache()
    try {
      val a = Isla.run(df, "value", p, seed = 33)
      val b = Isla.run(df, "value", p, seed = 33)
      assert(a.answer == b.answer && a.sketch0 == b.sketch0)
    } finally { df.unpersist(); () }
  }

  test("different seeds draw different samples") {
    val df = Distributions.normal(spark, 50000L, 100.0, 20.0, 5, seed = 23).cache()
    try {
      val a = Isla.run(df, "value", p, seed = 34)
      val b = Isla.run(df, "value", p, seed = 35)
      assert(a.answer != b.answer)
    } finally { df.unpersist(); () }
  }

  test("pre-estimation sketch₀ lands within its relaxed confidence band") {
    val df = Distributions.normal(spark, 100000L, 100.0, 20.0, 10, seed = 24).cache()
    try {
      val r = Isla.run(df, "value", p, seed = 36)
      assert(math.abs(r.sketch0 - 100.0) < p.te * p.e * 2, s"sketch0=${r.sketch0}")
      assert(math.abs(r.sigma - 20.0) < 3.0, s"sigma=${r.sigma}")
    } finally { df.unpersist(); () }
  }

  test("sampling rate follows Eq. 1 from the pilot σ") {
    val df = Distributions.normal(spark, 100000L, 100.0, 20.0, 10, seed = 25).cache()
    try {
      val r = Isla.run(df, "value", p, seed = 37)
      val expected = SampleSize.samplingRate(r.sigma, p.e, p.beta, 100000L)
      assert(math.abs(r.rate - expected) < 1e-12)
    } finally { df.unpersist(); () }
  }

  test("rateFraction scales the sampling rate (Table V's r/3)") {
    val df = Distributions.normal(spark, 100000L, 100.0, 20.0, 10, seed = 26).cache()
    try {
      val full = Isla.run(df, "value", p, seed = 38)
      val third = Isla.run(df, "value", p.copy(rateFraction = 1.0 / 3.0), seed = 38)
      assert(math.abs(third.rate * 3 - full.rate) < 1e-9)
    } finally { df.unpersist(); () }
  }

  test("rateOverride bypasses Eq. 1 (§VIII-G's absolute sample sizes)") {
    val df = Distributions.normal(spark, 50000L, 100.0, 20.0, 5, seed = 27).cache()
    try {
      val r = Isla.run(df, "value", p.copy(rateOverride = Some(0.123)), seed = 39)
      assert(r.rate == 0.123)
    } finally { df.unpersist(); () }
  }

  test("every block contributes a partial answer") {
    val df = Distributions.normal(spark, 60000L, 100.0, 20.0, 6, seed = 28).cache()
    try {
      val r = Isla.run(df, "value", p, seed = 40)
      assert(r.blocks.map(_.block) == (0L until 6L))
      assert(r.partials.size == 6)
      r.partials.foreach(pa => assert(math.abs(pa - 100.0) < 5.0, s"partial=$pa"))
    } finally { df.unpersist(); () }
  }

  test("summarize weights partials by block size (§II-C)") {
    val blocks = Seq(
      BlockResult(0L, 100L, 10.0, ModulationCase.Case5, 0, 1, 1, 0, 0, 10.0),
      BlockResult(1L, 300L, 20.0, ModulationCase.Case5, 0, 1, 1, 0, 0, 20.0),
    )
    assert(math.abs(Isla.summarize(blocks) - (10.0 * 100 + 20.0 * 300) / 400) < 1e-12)
  }

  test("summarize matches a DuckDB weighted average") {
    import spark.implicits._
    val parts = Seq((0L, 99.5, 120L), (1L, 100.5, 260L), (2L, 100.1, 20L))
    val blocks = parts.map { case (b, avg, n) =>
      BlockResult(b, n, avg, ModulationCase.Case5, 0, 1, 1, 0, 0, avg)
    }
    val df = parts.toDF("block", "avg", "n")
    val sparkDf = df.agg((sum(col("avg") * col("n")) / sum(col("n"))).as("final"))
    Oracle.assertEquivalent(
      sparkDf,
      "SELECT sum(CAST(avg AS DOUBLE) * CAST(n AS DOUBLE)) / sum(CAST(n AS DOUBLE)) AS final FROM t",
      "t" -> df,
    )
    val viaSpark = sparkDf.collect()(0).getDouble(0)
    assert(math.abs(Isla.summarize(blocks) - viaSpark) < 1e-9)
  }

  test("summarize rejects empty input") {
    intercept[IllegalArgumentException](Isla.summarize(Nil))
    intercept[IllegalArgumentException](Isla.run(
      Distributions.normal(spark, 1L, 100, 20, 1, 29).limit(0), "value", p))
  }

  test("negative data are shifted and shifted back (footnote 1)") {
    // N(-50, 10²): every pilot min is negative, forcing the shift path.
    val df = Distributions.normal(spark, 100000L, -50.0, 10.0, 10, seed = 30).cache()
    try {
      val r = Isla.run(df, "value", IslaParams(e = 0.5), seed = 41)
      assert(r.shift > 0, s"shift=${r.shift}")
      assert(math.abs(r.answer - (-50.0)) < 0.5, s"answer=${r.answer}")
    } finally { df.unpersist(); () }
  }

  test("the footnote-1 shift applied by the kernel equals shifting the input column") {
    // The layer-by-layer chain the benchmark's traced run composes.
    val df = Distributions.normal(spark, 100000L, -50.0, 10.0, 10, seed = 32).cache()
    try {
      val q = IslaParams(e = 0.5)
      val sizes = Moments.blockSizes(df)
      val m = sizes.values.sum
      val r = Isla.run(df, "value", q, Some(sizes), seed = 48)

      val pre = PreEstimation.run(df, "value", m, q, 48)
      assert(pre.pilotMin <= 0, s"pilotMin=${pre.pilotMin}")
      val shift = -pre.pilotMin + math.max(pre.sigma, 1.0)
      val rate = math.min(1.0, SampleSize.samplingRate(pre.sigma, q.e, q.beta, m) * q.rateFraction)
      val bounds = Boundaries(pre.sketch0 + shift, pre.sigma, q.p1, q.p2)
      val moments = Moments.collect(df.withColumn("value", col("value") + lit(shift)), "value", rate,
        bounds, sizes, seed = 50)
      val blocks = moments.map(Modulation.solveBlock(_, pre.sketch0 + shift, q))

      assert((r.shift, r.rate, r.sketch0, r.sigma) == ((shift, rate, pre.sketch0, pre.sigma)))
      assert(r.blocks == blocks)
      assert(r.answer == Isla.summarize(blocks) - shift)
    } finally { df.unpersist(); () }
  }

  test("rateOverride outside (0,1] is rejected for both pipelines") {
    Seq(0.0, -0.1, 1.5, Double.NaN).foreach { r =>
      val e = intercept[IllegalArgumentException](p.copy(rateOverride = Some(r)))
      assert(e.getMessage.contains("rateOverride"), e.getMessage)
    }
    val df = Distributions.normal(spark, 20000L, 100.0, 20.0, 4, seed = 33).cache()
    try {
      val runs = Seq[IslaParams => IslaResult](
        Isla.run(df, "value", _, seed = 51), IslaNonIid.run(df, "value", _, seed = 51))
      runs.foreach { run =>
        intercept[IllegalArgumentException](run(p.copy(rateOverride = Some(0.0))))
        assert(run(p.copy(rateOverride = Some(1.0))).rate == 1.0)
      }
    } finally { df.unpersist(); () }
  }

  test("blocks in the data but missing from sizes are rejected by name") {
    val df = Distributions.normal(spark, 20000L, 100.0, 20.0, 4, seed = 34).cache()
    try {
      val partial = Some(Moments.blockSizes(df) - 1L - 3L)
      val runs = Seq[() => IslaResult](
        () => Isla.run(df, "value", p, partial, seed = 52),
        () => IslaNonIid.run(df, "value", p, partial, seed = 52))
      runs.foreach { run =>
        val e = intercept[IllegalArgumentException](run())
        assert(e.getMessage.contains("blocks missing from sizes: 1, 3"), e.getMessage)
      }
    } finally { df.unpersist(); () }
  }

  test("precomputed block sizes give the same result as computed ones") {
    // Field for field, every BlockResult included; IslaNonIid's sketch0 is NaN.
    def same(a: IslaResult, b: IslaResult) = a.copy(sketch0 = 0.0) == b.copy(sketch0 = 0.0) && a.sketch0.equals(b.sketch0)
    for (contiguous <- Seq(false, true)) {
      val df = CountedInput(spark, contiguous).cache()
      try {
        assert(df.rdd.getNumPartitions >= 6)
        val sizes = Moments.blockSizes(df)
        val isla = Seq[Option[Map[Long, Long]] => IslaResult](
          Isla.run(df, "value", p, _, seed = 42), IslaNonIid.run(df, "value", p, _, seed = 42))
        isla.foreach { run =>
          val (given, counted) = (run(Some(sizes)), run(None))
          assert(given.shift > 0 && given.blocks.size == 6)
          assert(same(given, counted), s"contiguous=$contiguous:\n$given\n$counted")
        }
        val baselines = Seq[Option[Map[Long, Long]] => BaselineResult](
          MeasureBiased.runMVB(df, "value", 0.2, p, _, seed = 43), StratifiedSampling.run(df, "value", 0.2, _, seed = 44))
        baselines.foreach(run => assert(run(Some(sizes)) == run(None), s"contiguous=$contiguous"))
      } finally { df.unpersist(); () }
    }
  }

  test("empty input is rejected with and without sizes") {
    import spark.implicits._
    val empty = Distributions.normal(spark, 1L, 100, 20, 1, 29).limit(0)
    val nullBlocks = Seq((1.0, None: Option[Long]), (2.0, None)).toDF("value", "block")
    for (df <- Seq(empty, nullBlocks); sizes <- Seq(None, Some(Map.empty[Long, Long]))) {
      val e = intercept[IllegalArgumentException](Isla.run(df, "value", p, sizes))
      assert(e.getMessage.endsWith("empty input"), e.getMessage)
    }
  }

  test("NaN and ±Inf values are rejected by column name at rate 1") {
    import spark.implicits._
    for (bad <- Seq(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity)) {
      val df = (0 until 1000).map(i => (if (i == 500) bad else 100.0 + i % 7, (i % 3).toLong))
        .toDF("price", "block")
      val all = p.copy(rateOverride = Some(1.0))
      val sizes = Some(Moments.blockSizes(df))
      // Non-i.i.d. ISLA also at its Eq. 1 rate: its pilots take every row of these small blocks.
      val runs = Seq[() => Any](
        () => Isla.run(df, "price", all), () => IslaNonIid.run(df, "price", all),
        () => IslaNonIid.run(df, "price", all, sizes), () => IslaNonIid.run(df, "price", p, sizes),
        () => MeasureBiased.runMVB(df, "price", 1.0, p))
      runs.foreach { run =>
        val e = intercept[IllegalArgumentException](run())
        assert(e.getMessage.endsWith("column price has NaN or infinite values"), s"$bad: ${e.getMessage}")
      }
    }
  }

  test("constant data return the constant") {
    import spark.implicits._
    val df = (1 to 5000).map(_ => (42.0, 0L)).toDF("value", "block").cache()
    try {
      val r = Isla.run(df, "value", p, seed = 43)
      assert(math.abs(r.answer - 42.0) < 1e-9, s"answer=${r.answer}")
    } finally { df.unpersist(); () }
    // Five blocks: both pipelines sample a constant at the σ pilot's rate and report σ 0.
    val blocks = (0 until 10000).map(i => (42.0, (i % 5).toLong)).toDF("value", "block").cache()
    try {
      val sizes = Moments.blockSizes(blocks)
      for (s <- Seq(None, Some(sizes));
           (name, r) <- Seq("Isla" -> Isla.run(blocks, "value", p, s, seed = 43),
                            "IslaNonIid" -> IslaNonIid.run(blocks, "value", p, s, seed = 43))) {
        val at = s"$name, sizes ${s.isDefined}"
        assert(math.abs(r.answer - 42.0) < 1e-9, s"$at: answer=${r.answer}")
        assert(r.sigma == 0.0, s"$at: sigma=${r.sigma}")
        assert(r.rate == SampleSize.pilotRate(2000, 10000L), s"$at: rate=${r.rate}")
      }
    } finally { blocks.unpersist(); () }
  }

  test("tighter precision lowers the final error on average (Fig. 6a mechanism)") {
    val seeds = Seq(51L, 52L, 53L)
    val errLoose = seeds.map { s =>
      val df = Distributions.normal(spark, 100000L, 100.0, 20.0, 10, seed = s).cache()
      try math.abs(Isla.run(df, "value", IslaParams(e = 4.0), seed = s * 7).answer - 100.0)
      finally { df.unpersist(); () }
    }.sum / seeds.size
    val errTight = seeds.map { s =>
      val df = Distributions.normal(spark, 100000L, 100.0, 20.0, 10, seed = s).cache()
      try math.abs(Isla.run(df, "value", IslaParams(e = 0.5), seed = s * 7).answer - 100.0)
      finally { df.unpersist(); () }
    }.sum / seeds.size
    assert(errTight < errLoose + 0.5, s"tight=$errTight loose=$errLoose")
    assert(errTight < 0.5, s"tight=$errTight")
  }
}
