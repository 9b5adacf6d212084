package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}

/** Tests for the sampling phase (Algorithm 1): moment algebra, the
  * sampling pass, and DuckDB oracle checks on its exact aggregates.
  *
  * Oracle inputs use integer-valued data so Σa, Σa², Σa³ are exact in
  * double arithmetic on both engines.
  */
class MomentsSpec extends SparkSpec {

  private val bounds = Boundaries(100.0, 20.0, 0.5, 2.0)

  test("empty moments are all zero") {
    assert(RegionMoments.empty == RegionMoments(0L, 0.0, 0.0, 0.0))
  }

  test("add folds counter, sum, square sum, cube sum (Algorithm 1 updateParams)") {
    val m = RegionMoments.empty.add(2.0).add(3.0)
    assert(m == RegionMoments(2L, 5.0, 13.0, 35.0))
  }

  test("of equals left fold of add") {
    val xs = Seq(1.0, 4.0, 2.5, 7.0)
    assert(RegionMoments.of(xs) == xs.foldLeft(RegionMoments.empty)(_.add(_)))
  }

  test("merge is the online-mode fold (§VII-A): of(a++b) == of(a).merge(of(b))") {
    val rnd = new scala.util.Random(5)
    (1 to 50).foreach { _ =>
      val a = Seq.fill(rnd.nextInt(10) + 1)(rnd.nextInt(100).toDouble)
      val b = Seq.fill(rnd.nextInt(10) + 1)(rnd.nextInt(100).toDouble)
      val merged = RegionMoments.of(a).merge(RegionMoments.of(b))
      val direct = RegionMoments.of(a ++ b)
      assert(math.abs(merged.sum - direct.sum) < 1e-9)
      assert(math.abs(merged.sum2 - direct.sum2) < 1e-9)
      assert(math.abs(merged.sum3 - direct.sum3) < 1e-6)
      assert(merged.n == direct.n)
    }
  }

  test("merge with empty is identity") {
    val m = RegionMoments.of(Seq(3.0, 9.0))
    assert(m.merge(RegionMoments.empty) == m)
    assert(RegionMoments.empty.merge(m) == m)
  }

  test("fromSamples routes S and L and drops TS/N/TL (Algorithm 1)") {
    val samples = Seq(10.0, 70.0, 100.0, 120.0, 150.0, 80.0, 130.0)
    val (s, l) = ReferenceMoments.fromSamples(samples, bounds)
    assert(s == RegionMoments.of(Seq(70.0, 80.0)))
    assert(l == RegionMoments.of(Seq(120.0, 130.0)))
  }

  test("fromSamples with no qualifying samples yields empty moments") {
    val (s, l) = ReferenceMoments.fromSamples(Seq(100.0, 100.0, 10.0), bounds)
    assert(s == RegionMoments.empty && l == RegionMoments.empty)
  }

  test("blockSizes matches the DuckDB oracle") {
    import spark.implicits._
    val df = (0 until 997).map(i => ((i % 37).toDouble, (i % 5).toLong)).toDF("value", "block")
    Oracle.assertEquivalent(
      Moments.blockSizes(df).toSeq.toDF("block", "cnt"),
      "SELECT block, count(*) AS cnt FROM t GROUP BY block",
      "t" -> df,
    )
  }

  test("Spark moments at rate 1.0 equal the driver-side reference per block") {
    import spark.implicits._
    val rnd = new scala.util.Random(6)
    val rows = (0 until 2000).map(_ => (rnd.nextInt(200).toDouble, rnd.nextInt(4).toLong))
    val df = rows.toDF("value", "block")
    val sizes = Moments.blockSizes(df)
    val got = Moments.collect(df, "value", 1.0, bounds, sizes, seed = 9L)
    (0L until 4L).foreach { b =>
      val expected = ReferenceMoments.fromSamples(rows.filter(_._2 == b).map(_._1), bounds)
      val bm = got.find(_.block == b).get
      assert(bm.blockSize == rows.count(_._2 == b))
      assert(bm.s.n == expected._1.n && bm.l.n == expected._2.n, s"block $b counts")
      assert(math.abs(bm.s.sum - expected._1.sum) < 1e-6, s"block $b s.sum")
      assert(math.abs(bm.s.sum2 - expected._1.sum2) < 1e-3, s"block $b s.sum2")
      assert(math.abs(bm.s.sum3 - expected._1.sum3) < 1e-1, s"block $b s.sum3")
      assert(math.abs(bm.l.sum - expected._2.sum) < 1e-6, s"block $b l.sum")
      assert(math.abs(bm.l.sum2 - expected._2.sum2) < 1e-3, s"block $b l.sum2")
      assert(math.abs(bm.l.sum3 - expected._2.sum3) < 1e-1, s"block $b l.sum3")
    }
  }

  test("full-rate S/L moment sums match the DuckDB oracle") {
    import spark.implicits._
    val rnd = new scala.util.Random(7)
    val df = (0 until 3000).map(_ => (rnd.nextInt(250).toDouble, rnd.nextInt(3).toLong))
      .toDF("value", "block")
    val got = Moments.collect(df, "value", 1.0, bounds, Moments.blockSizes(df), seed = 8L)
      .map(bm => (bm.block, bm.s.n, bm.s.sum, bm.s.sum2, bm.l.n, bm.l.sum, bm.l.sum2))
      .toDF("block", "s_n", "s_sum", "s_sum2", "l_n", "l_sum", "l_sum2")
    Oracle.assertEquivalent(
      got,
      s"""SELECT block,
         |  sum(CASE WHEN d > ${bounds.lo2} AND d < ${bounds.lo1} THEN 1 ELSE 0 END) AS s_n,
         |  sum(CASE WHEN d > ${bounds.lo2} AND d < ${bounds.lo1} THEN d ELSE 0 END) AS s_sum,
         |  sum(CASE WHEN d > ${bounds.lo2} AND d < ${bounds.lo1} THEN d*d ELSE 0 END) AS s_sum2,
         |  sum(CASE WHEN d > ${bounds.hi1} AND d < ${bounds.hi2} THEN 1 ELSE 0 END) AS l_n,
         |  sum(CASE WHEN d > ${bounds.hi1} AND d < ${bounds.hi2} THEN d ELSE 0 END) AS l_sum,
         |  sum(CASE WHEN d > ${bounds.hi1} AND d < ${bounds.hi2} THEN d*d ELSE 0 END) AS l_sum2
         |FROM (SELECT block, CAST(value AS DOUBLE) AS d FROM t) GROUP BY block""".stripMargin,
      "t" -> df,
    )
  }

  test("every block appears in the output, even with no S/L samples") {
    import spark.implicits._
    // Block 1 holds only N-region values — it must still be reported.
    val rows = (0 until 100).map(i => (75.0, 0L)) ++ (0 until 100).map(i => (100.0, 1L))
    val df = rows.toDF("value", "block")
    val got = Moments.collect(df, "value", 1.0, bounds, Moments.blockSizes(df), seed = 1L)
    assert(got.map(_.block) == Seq(0L, 1L))
    val b1 = got.find(_.block == 1L).get
    assert(b1.s == RegionMoments.empty && b1.l == RegionMoments.empty)
    assert(b1.blockSize == 100L)
  }

  test("Bernoulli sampling at rate r draws ≈ r·|B| samples per block") {
    import spark.implicits._
    val df = (0 until 40000).map(i => (75.0, (i % 2).toLong)).toDF("value", "block")
    val got = Moments.collect(df, "value", 0.3, bounds, Moments.blockSizes(df), seed = 2L)
    got.foreach { bm =>
      // All values are S; expect ≈ 6000 of 20000 with sd ≈ 65.
      assert(bm.s.n > 5400 && bm.s.n < 6600, s"block ${bm.block}: ${bm.s.n}")
      assert(bm.l.n == 0)
    }
  }

  test("sampling is deterministic in the seed") {
    import spark.implicits._
    val df = (0 until 5000).map(i => ((i % 250).toDouble, (i % 4).toLong)).toDF("value", "block")
    val sizes = Moments.blockSizes(df)
    val a = Moments.collect(df, "value", 0.5, bounds, sizes, seed = 3L)
    val b = Moments.collect(df, "value", 0.5, bounds, sizes, seed = 3L)
    assert(a == b)
  }

  test("collect rejects rates outside (0,1]") {
    import spark.implicits._
    val df = Seq((1.0, 0L)).toDF("value", "block")
    intercept[IllegalArgumentException](
      Moments.collect(df, "value", 0.0, bounds, Map(0L -> 1L)))
    intercept[IllegalArgumentException](
      Moments.collect(df, "value", 1.5, bounds, Map(0L -> 1L)))
  }
}
