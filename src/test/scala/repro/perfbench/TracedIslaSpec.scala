package repro.perfbench

import repro.SparkSpec
import repro.core.{Isla, IslaResult, Moments}

/** The benchmark's `correct` check at small M: its layer-by-layer ISLA
  * chain must give `Isla.run`'s result bit for bit, or every benchmark
  * run reports itself incorrect.
  */
class TracedIslaSpec extends SparkSpec {

  private def bits(d: Double) = java.lang.Double.doubleToLongBits(d)

  /** Field for field, as the benchmark's report compares them. */
  private def same(x: IslaResult, y: IslaResult): Boolean =
    bits(x.answer) == bits(y.answer) && bits(x.sketch0) == bits(y.sketch0) &&
      bits(x.sigma) == bits(y.sigma) && bits(x.rate) == bits(y.rate) &&
      x.dataSize == y.dataSize && bits(x.shift) == bits(y.shift) && x.blocks == y.blocks

  test("the traced ISLA chain equals Isla.run bit for bit on iid-scan and tpch-compare") {
    for ((wl, rows) <- Seq[(Workload, Long)]((IidScan, 300000L), (TpchCompare, 200000L)); seed <- Seq(3L, 4L)) {
      val df = wl.generate(spark, rows, seed).cache()
      try {
        val sizes = if (wl.passSizes) Some(Moments.blockSizes(df)) else None
        val (traced, _) = Workloads.tracedIsla(new Tracer(spark.sparkContext), df, wl.params, sizes, seed)
        val run = Isla.run(df, "value", wl.params, sizes, "block", seed)
        assert(run.rate < 1.0, s"${wl.name}: rate ${run.rate}")
        assert(same(traced, run), s"${wl.name}, seed $seed:\n$traced\n$run")
      } finally { df.unpersist(); () }
    }
  }
}
