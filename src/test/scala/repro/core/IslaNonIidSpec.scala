package repro.core

import org.apache.spark.sql.functions.col

import repro.SparkSpec
import repro.data.Distributions

/** Tests for the non-i.i.d. extension (§VII-C). */
class IslaNonIidSpec extends SparkSpec {

  test("block leverages follow blevⱼ = (1+σⱼ²)/(b+Σσᵢ²) and sum to 1") {
    val pres = Seq(
      BlockPre(0L, 100L, 10.0, 50.0, 1.0),
      BlockPre(1L, 100L, 20.0, 100.0, 1.0),
      BlockPre(2L, 100L, 30.0, 150.0, 1.0),
    )
    val blev = IslaNonIid.blockLeverages(pres)
    val sumVar = 100.0 + 400.0 + 900.0
    assert(math.abs(blev(0L) - (1 + 100.0) / (3 + sumVar)) < 1e-12)
    assert(math.abs(blev(1L) - (1 + 400.0) / (3 + sumVar)) < 1e-12)
    assert(math.abs(blev(2L) - (1 + 900.0) / (3 + sumVar)) < 1e-12)
    assert(math.abs(blev.values.sum - 1.0) < 1e-12)
  }

  test("higher-variance blocks get higher leverages (bi-level intuition)") {
    val pres = (0 to 4).map(i => BlockPre(i.toLong, 100L, 5.0 * (i + 1), 100.0, 1.0))
    val blev = IslaNonIid.blockLeverages(pres)
    val ordered = (0L to 4L).map(blev)
    assert(ordered == ordered.sorted)
  }

  test("per-block pre-estimation recovers each block's μ and σ") {
    val df = Distributions.nonIidBlocks(spark, 30000L, Distributions.nonIidSpecs, seed = 61).cache()
    try {
      val sizes = Moments.blockSizes(df)
      val pres = IslaNonIid.preEstimate(df, "value", sizes, IslaParams(e = 1.0), seed = 62)
      assert(pres.map(_.block) == (0L until 5L))
      pres.zip(Distributions.nonIidSpecs).foreach { case (pre, (mu, sd)) =>
        assert(math.abs(pre.sketch0 - mu) < sd / 3, s"block ${pre.block}: sketch0=${pre.sketch0} mu=$mu")
        assert(math.abs(pre.sigma - sd) < sd / 3, s"block ${pre.block}: sigma=${pre.sigma} sd=$sd")
      }
    } finally { df.unpersist(); () }
  }

  test("non-i.i.d. ISLA recovers the global mean of the §VIII-D mixture") {
    val df = Distributions.nonIidBlocks(spark, 40000L, Distributions.nonIidSpecs, seed = 63).cache()
    try {
      val r = IslaNonIid.run(df, "value", IslaParams(e = 1.0), seed = 64)
      // Accurate answer: mean of the five block means = 100.
      assert(math.abs(r.answer - 100.0) < 1.0, s"answer=${r.answer}")
    } finally { df.unpersist(); () }
  }

  test("non-i.i.d. ISLA is deterministic in the seed") {
    val df = Distributions.nonIidBlocks(spark, 20000L, Distributions.nonIidSpecs, seed = 65).cache()
    try {
      val a = IslaNonIid.run(df, "value", IslaParams(e = 1.0), seed = 66)
      val b = IslaNonIid.run(df, "value", IslaParams(e = 1.0), seed = 66)
      assert(a.answer == b.answer)
    } finally { df.unpersist(); () }
  }

  test("the pooled σ and the rate do not move when a large constant is added") {
    // Σnⱼ(σⱼ²+sⱼ²)/M − (Σnⱼsⱼ/M)² cancels catastrophically at a mean of
    // 10¹⁰ against σ ≈ 50; the spread around the weighted mean does not.
    val df = Distributions.nonIidBlocks(spark, 20000L, Distributions.nonIidSpecs, seed = 5).cache()
    try {
      val sizes = Moments.blockSizes(df)
      val p = IslaParams(e = 0.5)
      val base = IslaNonIid.run(df, "value", p, Some(sizes), seed = 5)
      val far = IslaNonIid.run(df.withColumn("value", col("value") + 1e10), "value", p, Some(sizes), seed = 5)
      assert(far.rate == base.rate, s"rate ${far.rate} vs ${base.rate}")
      assert(math.abs(far.sigma - base.sigma) <= 1e-6 * base.sigma, s"sigma ${far.sigma} vs ${base.sigma}")
    } finally { df.unpersist(); () }
  }

  test("i.i.d. data through the non-i.i.d. path still works") {
    val df = Distributions.normal(spark, 60000L, 100.0, 20.0, 4, seed = 67).cache()
    try {
      val r = IslaNonIid.run(df, "value", IslaParams(e = 1.0), seed = 68)
      assert(math.abs(r.answer - 100.0) < 1.0, s"answer=${r.answer}")
    } finally { df.unpersist(); () }
  }

  test("empty input is rejected with and without sizes") {
    import spark.implicits._
    val empty = Distributions.nonIidBlocks(spark, 1L, Distributions.nonIidSpecs, seed = 71).limit(0)
    val nullBlocks = Seq((1.0, None: Option[Long]), (2.0, None)).toDF("value", "block")
    for (df <- Seq(empty, nullBlocks); sizes <- Seq(None, Some(Map.empty[Long, Long]))) {
      val e = intercept[IllegalArgumentException](IslaNonIid.run(df, "value", IslaParams(e = 1.0), sizes))
      assert(e.getMessage.endsWith("empty input"), e.getMessage)
    }
  }

  test("rateOverride is honored in the non-i.i.d. path") {
    val df = Distributions.nonIidBlocks(spark, 10000L, Distributions.nonIidSpecs.take(2), seed = 69).cache()
    try {
      val r = IslaNonIid.run(df, "value", IslaParams(e = 1.0, rateOverride = Some(0.2)), seed = 70)
      assert(r.rate == 0.2)
    } finally { df.unpersist(); () }
  }
}
