package repro.baselines

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.core.{Boundaries, IslaParams, Moments}
import repro.data.Distributions

/** Tests for the comparator estimators US, STS, MV, MVB. */
class BaselinesSpec extends SparkSpec {

  private def normalDf(rows: Long, seed: Long, blocks: Int = 5) =
    Distributions.normal(spark, rows, 100.0, 20.0, blocks, seed)

  // ---- US ----

  test("US at rate 1.0 equals the exact mean (oracle-checked)") {
    import spark.implicits._
    val df = (0 until 3000).map(i => ((i % 97).toDouble, (i % 3).toLong)).toDF("value", "block")
    val r = UniformSampling.run(df, "value", 1.0, seed = 71)
    val sparkDf = df.agg(avg(col("value").cast("double")).as("m"))
    Oracle.assertEquivalent(sparkDf,
      "SELECT avg(CAST(value AS DOUBLE)) AS m FROM t", "t" -> df)
    val exact = sparkDf.collect()(0).getDouble(0)
    assert(math.abs(r.answer - exact) < 1e-9)
  }

  test("US is approximately unbiased on N(100,20²)") {
    val df = normalDf(100000L, 72).cache()
    try {
      val r = UniformSampling.run(df, "value", 0.05, seed = 73)
      assert(math.abs(r.answer - 100.0) < 1.0, s"answer=${r.answer}")
    } finally { df.unpersist(); () }
  }

  test("US reports one partial per sampled block") {
    val df = normalDf(50000L, 74).cache()
    try {
      val r = UniformSampling.run(df, "value", 0.1, seed = 75)
      assert(r.partials.map(_._1) == (0L until 5L))
    } finally { df.unpersist(); () }
  }

  test("US rejects invalid rates") {
    val df = normalDf(100L, 76)
    intercept[IllegalArgumentException](UniformSampling.run(df, "value", 0.0))
    intercept[IllegalArgumentException](UniformSampling.run(df, "value", 1.2))
  }

  // ---- STS ----

  test("STS at rate 1.0 equals the exact mean") {
    import spark.implicits._
    val df = (0 until 3000).map(i => ((i % 97).toDouble, (i % 3).toLong)).toDF("value", "block")
    val exact = df.agg(avg(col("value").cast("double"))).collect()(0).getDouble(0)
    val r = StratifiedSampling.run(df, "value", 1.0, seed = 77)
    assert(math.abs(r.answer - exact) < 1e-9)
  }

  test("STS weights strata by block size") {
    import spark.implicits._
    // Block 0: 1000 rows of 10; block 1: 3000 rows of 20 → mean 17.5.
    val rows = (0 until 1000).map(_ => (10.0, 0L)) ++ (0 until 3000).map(_ => (20.0, 1L))
    val df = rows.toDF("value", "block")
    val r = StratifiedSampling.run(df, "value", 0.5, seed = 78)
    assert(math.abs(r.answer - 17.5) < 1e-9, s"answer=${r.answer}")
  }

  test("STS rejects a sample that came back empty") {
    val e = intercept[IllegalArgumentException](StratifiedSampling.run(normalDf(1000L, 81), "value", 1e-12))
    assert(e.getMessage.contains("STS sample came back empty"), e.getMessage)
  }

  test("STS on non-i.i.d. blocks recovers the size-weighted mean") {
    val df = Distributions.nonIidBlocks(spark, 20000L, Distributions.nonIidSpecs, seed = 79).cache()
    try {
      val r = StratifiedSampling.run(df, "value", 0.1, seed = 80)
      assert(math.abs(r.answer - 100.0) < 1.5, s"answer=${r.answer}")
    } finally { df.unpersist(); () }
  }

  // ---- MV ----

  test("MV at rate 1.0 equals Σa²/Σa exactly (oracle-checked)") {
    import spark.implicits._
    val df = (1 to 2000).map(i => ((i % 50 + 1).toDouble, (i % 2).toLong)).toDF("value", "block")
    val sparkDf = df.agg(
      (sum(col("value") * col("value")) / sum(col("value"))).as("mv"))
    Oracle.assertEquivalent(sparkDf,
      "SELECT sum(CAST(value AS DOUBLE)*CAST(value AS DOUBLE))/sum(CAST(value AS DOUBLE)) AS mv FROM t",
      "t" -> df)
    val expected = sparkDf.collect()(0).getDouble(0)
    val r = MeasureBiased.runMV(df, "value", 1.0, seed = 81)
    // Per-block Σa²/Σa merged by sample count ≈ global Σa²/Σa on
    // identically-distributed blocks; at rate 1.0 with the same blocks it
    // is a weighted combination — compare against the direct per-block calc.
    val direct = {
      val g = df.groupBy("block").agg(sum(col("value") * col("value")).as("s2"),
        sum(col("value")).as("s"), count(lit(1)).as("n")).collect()
      g.map(x => x.getDouble(1) / x.getDouble(2) * x.getLong(3)).sum / g.map(_.getLong(3)).sum
    }
    assert(math.abs(r.answer - direct) < 1e-9)
    assert(math.abs(direct - expected) < 1.0) // both near the global ratio
  }

  test("MV converges to (μ²+σ²)/μ ≈ 104 on N(100,20²) — the Table III signature") {
    val df = normalDf(200000L, 82, blocks = 10).cache()
    try {
      val r = MeasureBiased.runMV(df, "value", 0.3, seed = 83)
      assert(math.abs(r.answer - 104.0) < 1.0, s"answer=${r.answer}")
    } finally { df.unpersist(); () }
  }

  test("MV overestimates ≈ 2/γ on exponential data — the Table VI signature") {
    val df = Distributions.exponential(spark, 200000L, 0.1, 10, seed = 84).cache()
    try {
      val r = MeasureBiased.runMV(df, "value", 0.3, seed = 85)
      assert(math.abs(r.answer - 20.0) < 1.5, s"answer=${r.answer}") // accurate mean is 10
    } finally { df.unpersist(); () }
  }

  test("MV overestimates ≈ 132 on uniform [1,199] — the Table VII signature") {
    val df = Distributions.uniformRange(spark, 200000L, 1.0, 199.0, 10, seed = 86).cache()
    try {
      val r = MeasureBiased.runMV(df, "value", 0.3, seed = 87)
      assert(math.abs(r.answer - 132.7) < 2.0, s"answer=${r.answer}")
    } finally { df.unpersist(); () }
  }

  // ---- MVB ----

  test("mvbOf: region mass ∝ count, within-region ∝ value") {
    val b = Boundaries(100.0, 20.0, 0.5, 2.0)
    // Samples: two in S (70, 80), one in N (100), one in L (120).
    val est = ReferenceMvb.mvbOf(Seq(70.0, 80.0, 100.0, 120.0), b)
    val expected = (2.0 / 4) * ((70.0 * 70 + 80.0 * 80) / 150.0) +
      (1.0 / 4) * 100.0 + (1.0 / 4) * 120.0
    assert(math.abs(est - expected) < 1e-9)
  }

  test("mvbOf handles an all-zero region") {
    val b = Boundaries(100.0, 20.0, 0.5, 2.0)
    val est = ReferenceMvb.mvbOf(Seq(0.0, 0.0, 100.0), b)
    assert(math.abs(est - 100.0 / 3.0) < 1e-9)
  }

  test("runMVB at rate 1.0 matches the driver-side mvbOf per block") {
    import spark.implicits._
    val rnd = new scala.util.Random(88)
    val rows = (0 until 4000).map(_ => (rnd.nextInt(200).toDouble + 1.0, rnd.nextInt(3).toLong))
    val df = rows.toDF("value", "block").cache()
    try {
      val p = IslaParams(e = 1.0)
      val sizes = Moments.blockSizes(df)
      val r = MeasureBiased.runMVB(df, "value", 1.0, p, Some(sizes), seed = 89)
      // Reconstruct the boundaries MVB derived, then compare per block.
      val pre = repro.core.PreEstimation.run(df, "value", sizes.values.sum, p, 89)
      val b = Boundaries(pre.sketch0, pre.sigma, p.p1, p.p2)
      (0L until 3L).foreach { blk =>
        val expected = ReferenceMvb.mvbOf(rows.filter(_._2 == blk).map(_._1), b)
        val got = r.partials.find(_._1 == blk).get._2
        assert(math.abs(got - expected) < 1e-6, s"block $blk: got=$got expected=$expected")
      }
    } finally { df.unpersist(); () }
  }

  test("MVB lands slightly above μ on N(100,20²) — the ≈100.5 Table III signature") {
    val df = normalDf(200000L, 90, blocks = 10).cache()
    try {
      val r = MeasureBiased.runMVB(df, "value", 0.3, IslaParams(), seed = 91)
      assert(r.answer > 100.0 && r.answer < 101.5, s"answer=${r.answer}")
    } finally { df.unpersist(); () }
  }

  test("MVB beats MV on exponential data (Table VI ordering)") {
    val df = Distributions.exponential(spark, 200000L, 0.1, 10, seed = 92).cache()
    try {
      val mv = MeasureBiased.runMV(df, "value", 0.3, seed = 93)
      val mvb = MeasureBiased.runMVB(df, "value", 0.3, IslaParams(), seed = 93)
      assert(math.abs(mvb.answer - 10.0) < math.abs(mv.answer - 10.0),
        s"mvb=${mvb.answer} mv=${mv.answer}")
    } finally { df.unpersist(); () }
  }

  test("MVB rejects a sample that came back empty") {
    val e = intercept[IllegalArgumentException](MeasureBiased.runMVB(normalDf(1000L, 95), "value", 1e-12))
    assert(e.getMessage.contains("MVB sample came back empty"), e.getMessage)
  }

  test("MV/MVB reject invalid rates") {
    val df = normalDf(100L, 94)
    intercept[IllegalArgumentException](MeasureBiased.runMV(df, "value", 0.0))
    intercept[IllegalArgumentException](MeasureBiased.runMVB(df, "value", 1.5))
  }
}
