package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}

/** Data-boundary tests (§IV-A1), including the sampling kernel's region
  * split against the DuckDB oracle.
  */
class BoundariesSpec extends SparkSpec {

  private val b = Boundaries(sketch0 = 100.0, sigma = 20.0, p1 = 0.5, p2 = 2.0)

  test("boundary positions follow sketch₀ ± p₁σ / ± p₂σ") {
    assert(b.lo2 == 60.0 && b.lo1 == 90.0 && b.hi1 == 110.0 && b.hi2 == 140.0)
  }

  test("classification of the five region interiors") {
    assert(b.classify(10.0) == Region.TS)
    assert(b.classify(75.0) == Region.S)
    assert(b.classify(100.0) == Region.N)
    assert(b.classify(125.0) == Region.L)
    assert(b.classify(200.0) == Region.TL)
  }

  test("boundary values land per §IV-A1's interval closures") {
    assert(b.classify(60.0) == Region.TS)  // TS is (−∞, lo2]
    assert(b.classify(90.0) == Region.N)   // N is [lo1, hi1]
    assert(b.classify(110.0) == Region.N)
    assert(b.classify(140.0) == Region.TL) // TL is [hi2, ∞)
  }

  test("isS/isL agree with classify") {
    val rnd = new scala.util.Random(3)
    (1 to 500).foreach { _ =>
      val v = rnd.nextDouble() * 250
      assert(b.isS(v) == (b.classify(v) == Region.S), s"v=$v")
      assert(b.isL(v) == (b.classify(v) == Region.L), s"v=$v")
    }
  }

  test("S and L are symmetric about sketch₀") {
    val rnd = new scala.util.Random(4)
    (1 to 500).foreach { _ =>
      val d = rnd.nextDouble() * 60
      assert(b.isS(100.0 - d) == b.isL(100.0 + d), s"d=$d")
    }
  }

  test("Table II's worked boundaries: sketch₀=6.2, p₁σ=1, p₂σ=3") {
    val ex = Boundaries(6.2, 1.0, 1.0, 3.0) // σ=1 so p₁,p₂ are the absolute offsets
    assert(ex.lo2 == 3.2 && ex.lo1 == 5.2 && ex.hi1 == 7.2 && ex.hi2 == 9.2)
    val samples = Seq(2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 15.0)
    assert(samples.filter(ex.isS) == Seq(4.0, 5.0))
    assert(samples.filter(ex.isL) == Seq(8.0))
  }

  test("p1 must be strictly below p2") {
    intercept[IllegalArgumentException](Boundaries(100, 20, 2.0, 2.0))
    intercept[IllegalArgumentException](Boundaries(100, 20, 2.5, 2.0))
  }

  test("sigma must be non-negative") {
    intercept[IllegalArgumentException](Boundaries(100, -1, 0.5, 2.0))
  }

  test("region counts match the DuckDB oracle") {
    import spark.implicits._
    val df = (0 until 1000).map(i => ((i % 251).toDouble, (i % 3).toLong)).toDF("value", "block")
    val bounds = Some(b) // a local: the pass's closure must not capture the suite
    val got = SampleAgg.run(df, col("block"), col("value"), "test", 1L, _ => 1.0, _ => bounds)
      .toSeq.flatMap { case (blk, s) => Region.all.zip(s.regions).map { case (r, m) => (blk, r.name, m.n) } }
      .filter(_._3 > 0)
    Oracle.assertEquivalent(
      got.toDF("block", "region", "cnt"),
      s"""SELECT block, CASE
         |  WHEN CAST(value AS DOUBLE) <= ${b.lo2} THEN 'TS'
         |  WHEN CAST(value AS DOUBLE) <  ${b.lo1} THEN 'S'
         |  WHEN CAST(value AS DOUBLE) <= ${b.hi1} THEN 'N'
         |  WHEN CAST(value AS DOUBLE) <  ${b.hi2} THEN 'L'
         |  ELSE 'TL' END AS region, count(*) AS cnt
         |FROM t GROUP BY 1, 2""".stripMargin,
      "t" -> df,
    )
  }

  test("expected region proportions under N(100,20²) via Gaussian.cdf") {
    // P(S) = P(L) = Φ(2) − Φ(0.5) ≈ 0.2857 when sketch₀ = μ.
    val p = Gaussian.cdf(2.0) - Gaussian.cdf(0.5)
    assert(math.abs(p - 0.2857) < 0.001)
  }
}
