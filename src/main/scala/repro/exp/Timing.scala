package repro.exp

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._

import repro.baselines.{MeasureBiased, StratifiedSampling, UniformSampling}
import repro.core.{Isla, IslaParams, Moments}
import repro.SynthData

/** §VIII-F — efficiency on TPC-H data: total run time of 20 runs of each
  * algorithm over the LINEITEM aggregation column, timed in rounds that
  * run each algorithm once, after one warm-up run of each.
  *
  * Substitution (DESIGN.md §3): the paper reads 100 GB (6·10⁸ rows); we
  * use `SynthData.lineitem` at SF=0.1 (6·10⁵ rows) on `l_extendedprice`
  * with blocks keyed by `l_orderkey % 10`, and report relative run
  * times, as absolute milliseconds are hardware-bound either way.
  */
object Timing {

  /** One timed comparison. Returns (algorithm → total ms over `runs`). */
  def efficiency(spark: SparkSession, sf: Double = 0.1, runs: Int = 20,
                 e: Double = 500.0, seed: Long = 800L): ExpTable = {
    val df = SynthData.lineitem(spark, sf, seed)
      .select(col("l_extendedprice").cast("double").as("value"),
              (col("l_orderkey") % 10).cast("long").as("block"))
    Tables.cached(df) { df =>
      df.count() // materialize outside the timed region
      val sizes = Moments.blockSizes(df)
      val p = IslaParams(e = e)
      // ISLA's warm-up run fixes the shared rate.
      val warm = Isla.run(df, "value", p, Some(sizes), seed = seed)
      val r = Tables.requiredRate(warm, p)
      val methods = Seq[(String, () => Unit)](
        "ISLA" -> (() => Isla.run(df, "value", p, Some(sizes), seed = seed + 1)),
        "MV"   -> (() => MeasureBiased.runMV(df, "value", r, seed = seed + 2)),
        "MVB"  -> (() => MeasureBiased.runMVB(df, "value", r, p, Some(sizes), seed = seed + 3)),
        "US"   -> (() => UniformSampling.run(df, "value", r, seed = seed + 4)),
        "STS"  -> (() => StratifiedSampling.run(df, "value", r, Some(sizes), seed = seed + 5)),
      )
      methods.tail.foreach(_._2()) // every code path JIT-compiled before timing

      // Each round runs every method once, and the first method rotates
      // from round to round, so no method always pays for the one before.
      val total = Array.fill(methods.size)(0.0)
      for (round <- 0 until runs; j <- methods.indices) {
        val i = (round + j) % methods.size
        val t0 = System.nanoTime()
        methods(i)._2()
        total(i) += (System.nanoTime() - t0) / 1e6
      }

      ExpTable(
        s"§VIII-F — efficiency, TPC-H-lite lineitem SF=$sf, total ms over $runs runs",
        Seq("total_ms", "per_run_ms"),
        methods.indices.map(i => methods(i)._1 -> Seq(total(i), total(i) / runs)),
        Seq(f"shared sampling rate r=$r%.4f; paper (100GB, 20 runs): ISLA 31979ms, MV 61718ms, MVB 70584ms, US 25989ms, STS 84294ms"),
      )
    }
  }
}
