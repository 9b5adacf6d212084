package repro.data

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}

/** Tests for the blocked workload generators. */
class DistributionsSpec extends SparkSpec {

  private def stats(df: org.apache.spark.sql.DataFrame): (Double, Double, Long) = {
    val r = df.agg(avg("value"), stddev_samp("value"), count(lit(1))).collect()(0)
    (r.getDouble(0), r.getDouble(1), r.getLong(2))
  }

  test("normal generator hits μ and σ") {
    val (m, sd, n) = stats(Distributions.normal(spark, 200000L, 100.0, 20.0, 10, seed = 1))
    assert(n == 200000L)
    assert(math.abs(m - 100.0) < 0.3, s"mean=$m")
    assert(math.abs(sd - 20.0) < 0.3, s"sd=$sd")
  }

  test("normal generator is deterministic in the seed") {
    val a = stats(Distributions.normal(spark, 50000L, 100.0, 20.0, 5, seed = 2))
    val b = stats(Distributions.normal(spark, 50000L, 100.0, 20.0, 5, seed = 2))
    assert(a == b)
  }

  test("different seeds give different draws") {
    val a = stats(Distributions.normal(spark, 50000L, 100.0, 20.0, 5, seed = 3))
    val b = stats(Distributions.normal(spark, 50000L, 100.0, 20.0, 5, seed = 4))
    assert(a._1 != b._1)
  }

  test("normal distribution is symmetric around μ (median ≈ mean)") {
    val df = Distributions.normal(spark, 100000L, 100.0, 20.0, 10, seed = 5)
    val med = df.stat.approxQuantile("value", Array(0.5), 0.001)(0)
    assert(math.abs(med - 100.0) < 0.5, s"median=$med")
  }

  test("normal tail mass beyond ±2σ is ≈ 4.6% (3σ-rule check)") {
    val df = Distributions.normal(spark, 200000L, 100.0, 20.0, 10, seed = 6)
    val out = df.where(col("value") < 60.0 || col("value") > 140.0).count()
    val frac = out.toDouble / 200000L
    assert(math.abs(frac - 0.0455) < 0.005, s"frac=$frac")
  }

  test("blocks are equal-sized round robin (oracle-checked)") {
    val df = Distributions.normal(spark, 10000L, 100.0, 20.0, 10, seed = 7)
    val sparkCounts = df.groupBy("block").agg(count(lit(1)).as("cnt"))
    Oracle.assertEquivalent(sparkCounts,
      "SELECT block, count(*) AS cnt FROM t GROUP BY block", "t" -> df)
    val counts = sparkCounts.collect().map(_.getLong(1))
    assert(counts.length == 10 && counts.forall(_ == 1000L))
  }

  test("exponential generator hits mean 1/γ") {
    Seq(0.05, 0.2).foreach { g =>
      val (m, _, _) = stats(Distributions.exponential(spark, 200000L, g, 10, seed = 8))
      assert(math.abs(m - 1.0 / g) < 0.15 / g, s"gamma=$g mean=$m")
    }
  }

  test("exponential values are positive and right-skewed (mean > median)") {
    val df = Distributions.exponential(spark, 100000L, 0.1, 10, seed = 9)
    assert(df.where(col("value") <= 0).count() == 0)
    val med = df.stat.approxQuantile("value", Array(0.5), 0.001)(0)
    val (m, _, _) = stats(df)
    assert(m > med, s"mean=$m median=$med")
  }

  test("uniform generator spans [lo, hi] with mean (lo+hi)/2") {
    val df = Distributions.uniformRange(spark, 200000L, 1.0, 199.0, 10, seed = 10)
    val (m, sd, _) = stats(df)
    assert(math.abs(m - 100.0) < 0.5, s"mean=$m")
    assert(math.abs(sd - 198.0 / math.sqrt(12)) < 0.5, s"sd=$sd")
    val mn = df.agg(min("value"), max("value")).collect()(0)
    assert(mn.getDouble(0) >= 1.0 && mn.getDouble(1) <= 199.0)
  }

  test("uniform generator rejects hi <= lo") {
    intercept[IllegalArgumentException](
      Distributions.uniformRange(spark, 10L, 5.0, 5.0))
  }

  test("non-i.i.d. blocks follow their per-block specs") {
    val oneSpec = Seq((40.0, 5.0))
    val sevenSpecs = Distributions.nonIidSpecs ++ Seq((10.0, 2.0), (300.0, 90.0))
    Seq(Distributions.nonIidSpecs, oneSpec, sevenSpecs).foreach { specs =>
      val df = Distributions.nonIidBlocks(spark, 30000L, specs, seed = 11).cache()
      try {
        val got = df.groupBy("block")
          .agg(avg("value").as("m"), stddev_samp("value").as("sd"))
          .collect().map(r => r.getLong(0) -> (r.getDouble(1), r.getDouble(2))).toMap
        assert(got.keySet == specs.indices.map(_.toLong).toSet, s"blocks=${got.keySet}")
        specs.zipWithIndex.foreach { case ((mu, sd), j) =>
          val (gm, gsd) = got(j.toLong)
          assert(math.abs(gm - mu) < sd / 10, s"${specs.size} specs, block $j mean=$gm spec=$mu")
          assert(math.abs(gsd - sd) < sd / 10, s"${specs.size} specs, block $j sd=$gsd spec=$sd")
        }
      } finally { df.unpersist(); () }
    }
  }

  test("non-i.i.d. global mean is the block-mean average (equal blocks)") {
    val df = Distributions.nonIidBlocks(spark, 30000L, Distributions.nonIidSpecs, seed = 12)
    val (m, _, n) = stats(df)
    assert(n == 150000L)
    assert(math.abs(m - 100.0) < 0.5, s"mean=$m")
  }

  test("salary stand-in is right-skewed with a zero cluster (§VIII-G shape)") {
    val df = Distributions.salaryLike(spark, seed = 13).cache()
    try {
      val (m, sd, n) = stats(df)
      assert(n == 299285L)
      assert(m > 1200 && m < 2400, s"mean=$m") // paper's real mean: 1740.38
      val zeros = df.where(col("value") === 0.0).count()
      assert(zeros.toDouble / n > 0.25 && zeros.toDouble / n < 0.45, s"zeros=$zeros")
      val med = df.stat.approxQuantile("value", Array(0.5), 0.001)(0)
      assert(m > med, "right skew: mean above median")
      assert(sd > m, "heavy tail: sd above mean")
    } finally { df.unpersist(); () }
  }

  test("TLC stand-in is bimodal-skewed around mean ≈ 4648 (§VIII-G shape)") {
    val df = Distributions.tlcLike(spark, rows = 300000L, seed = 14).cache()
    try {
      val (m, _, _) = stats(df)
      assert(m > 3500 && m < 6000, s"mean=$m") // paper's real mean: 4648.2
      // Bimodal clusters: plenty of mass far below and far above the mean.
      val lo = df.where(col("value") < m / 2).count().toDouble / 300000L
      val hi = df.where(col("value") > m * 2).count().toDouble / 300000L
      assert(lo > 0.3, s"low cluster=$lo")
      assert(hi > 0.05, s"high cluster=$hi")
    } finally { df.unpersist(); () }
  }

  test("exactAvg matches the DuckDB oracle") {
    import spark.implicits._
    val df = (1 to 500).map(i => ((i % 13).toDouble, 0L)).toDF("value", "block")
    val sparkDf = df.agg(avg(col("value").cast("double")).as("m"))
    Oracle.assertEquivalent(sparkDf,
      "SELECT avg(CAST(value AS DOUBLE)) AS m FROM t", "t" -> df)
    assert(math.abs(Distributions.exactAvg(df) - sparkDf.collect()(0).getDouble(0)) < 1e-12)
  }

  test("generators reject non-positive sizes") {
    intercept[IllegalArgumentException](Distributions.normal(spark, 0L, 100, 20, 10))
    intercept[IllegalArgumentException](Distributions.exponential(spark, 100L, 0.0))
  }
}
