package repro.exp

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.baselines.{BaselineResult, MeasureBiased, StratifiedSampling, UniformSampling}
import repro.core.{Isla, IslaNonIid, IslaParams, IslaResult, Moments}
import repro.data.Distributions

/** A rendered experiment table: the same rows the paper reports. */
final case class ExpTable(
    title: String,
    header: Seq[String],
    rows: Seq[(String, Seq[Double])],
    notes: Seq[String] = Nil,
) {
  /** Fixed-width text rendering for bench output and EXPERIMENTS.md. */
  def render: String = {
    def fmt(d: Double): String =
      if (d.isNaN) "-" else f"$d%.4f"
    val head = ("" +: header).map(h => f"$h%12s").mkString(" | ")
    val body = rows.map { case (label, vs) =>
      (f"$label%12s" +: vs.map(v => f"${fmt(v)}%12s")).mkString(" | ")
    }
    (Seq(s"== $title ==", head) ++ body ++ notes.map("   note: " + _)).mkString("\n")
  }
}

/** Harnesses reproducing the evaluation tables of §VIII.
  *
  * Scale substitution (DESIGN.md §3): the paper's M=10¹⁰ shrinks to
  * M≈10⁶ per dataset — Eq. 1 makes the absolute sample size depend only
  * on (σ, e, β), so the estimators operate in the same regime.
  * Every harness shares one sampling rate across the compared methods
  * (ISLA's Eq.-1 rate), exactly as §VIII does.
  */
object Tables {

  /** Shared per-dataset comparison: ISLA vs MV vs MVB at a common rate. */
  private def compareIslaMvMvb(df: DataFrame, p: IslaParams,
                               seed: Long): (IslaResult, BaselineResult, BaselineResult) = {
    val cached = df.cache()
    try {
      val sizes = Moments.blockSizes(cached)
      val isla = Isla.run(cached, "value", p, Some(sizes), seed = seed)
      val rFull = math.min(1.0, isla.rate / p.rateFraction)
      val mv = MeasureBiased.runMV(cached, "value", rFull, seed = seed + 31)
      val mvb = MeasureBiased.runMVB(cached, "value", rFull, p, Some(sizes), seed = seed + 61)
      (isla, mv, mvb)
    } finally { cached.unpersist(); () }
  }

  /** Table III: accuracy of ISLA/MV/MVB over 10 N(100,20²) datasets, e=0.1. */
  def tableIII(spark: SparkSession, rowsPerDataset: Long = 1000000L, nDatasets: Int = 10,
               p: IslaParams = IslaParams(), baseSeed: Long = 100L): ExpTable = {
    val results = (1 to nDatasets).map { i =>
      val df = Distributions.normal(spark, rowsPerDataset, 100.0, 20.0, 10, baseSeed + i)
      compareIslaMvMvb(df, p, baseSeed * 10 + i)
    }
    def withAvg(vs: Seq[Double]) = vs :+ vs.sum / vs.size
    ExpTable(
      "Table III — accuracy, N(100,20^2), desired precision 0.1",
      (1 to nDatasets).map("ds" + _) :+ "Average",
      Seq(
        "ISLA" -> withAvg(results.map(_._1.answer)),
        "MV"   -> withAvg(results.map(_._2.answer)),
        "MVB"  -> withAvg(results.map(_._3.answer)),
      ),
      Seq(s"M=$rowsPerDataset per dataset, b=10, accurate answer = 100"),
    )
  }

  /** Table IV: per-block partial answers (modulation abilities) on one dataset. */
  def tableIV(spark: SparkSession, rowsPerDataset: Long = 1000000L,
              p: IslaParams = IslaParams(), seed: Long = 101L): ExpTable = {
    val df = Distributions.normal(spark, rowsPerDataset, 100.0, 20.0, 10, seed)
    val (isla, mv, mvb) = compareIslaMvMvb(df, p, seed * 10)
    ExpTable(
      "Table IV — partial (per-block) answers, Dataset 1",
      (1 to isla.blocks.size).map("B" + _) :+ "Average",
      Seq(
        "ISLA" -> (isla.partials :+ isla.answer),
        "MV"   -> (mv.partials.map(_._2) :+ mv.answer),
        "MVB"  -> (mvb.partials.map(_._2) :+ mvb.answer),
      ),
      Seq(f"sketch0 = ${isla.sketch0}%.4f (paper run: 99.676), accurate = 100"),
    )
  }

  /** Table V: ISLA at r/3 vs US and STS at r, 5 datasets, e=0.5. */
  def tableV(spark: SparkSession, rowsPerDataset: Long = 1000000L, nDatasets: Int = 5,
             e: Double = 0.5, baseSeed: Long = 200L): ExpTable = {
    val p = IslaParams(e = e, rateFraction = 1.0 / 3.0)
    val results = (1 to nDatasets).map { i =>
      val df = Distributions.normal(spark, rowsPerDataset, 100.0, 20.0, 10, baseSeed + i).cache()
      try {
        val sizes = Moments.blockSizes(df)
        val isla = Isla.run(df, "value", p, Some(sizes), seed = baseSeed * 10 + i)
        val rFull = math.min(1.0, isla.rate * 3.0) // the "required" rate r of Eq. 1
        val us = UniformSampling.run(df, "value", rFull, seed = baseSeed * 10 + i + 31)
        val sts = StratifiedSampling.run(df, "value", rFull, Some(sizes), seed = baseSeed * 10 + i + 61)
        (isla.answer, us.answer, sts.answer)
      } finally { df.unpersist(); () }
    }
    ExpTable(
      "Table V — ISLA (r/3) vs US and STS (r), N(100,20^2), desired precision 0.5",
      (1 to nDatasets).map("ds" + _),
      Seq(
        "ISLA" -> results.map(_._1),
        "US"   -> results.map(_._2),
        "STS"  -> results.map(_._3),
      ),
      Seq("ISLA samples at one third of the Eq.-1 rate; accurate answer = 100"),
    )
  }

  /** Table VI: exponential distributions, γ ∈ {0.05, 0.1, 0.15, 0.2}. */
  def tableVI(spark: SparkSession, rowsPerDataset: Long = 1000000L,
              gammas: Seq[Double] = Seq(0.05, 0.1, 0.15, 0.2),
              p: IslaParams = IslaParams(), baseSeed: Long = 300L): ExpTable = {
    val results = gammas.zipWithIndex.map { case (g, i) =>
      val df = Distributions.exponential(spark, rowsPerDataset, g, 10, baseSeed + i)
      compareIslaMvMvb(df, p, baseSeed * 10 + i)
    }
    ExpTable(
      "Table VI — exponential distributions",
      gammas.map(g => s"gamma=$g"),
      Seq(
        "Accurate" -> gammas.map(1.0 / _),
        "ISLA" -> results.map(_._1.answer),
        "MV"   -> results.map(_._2.answer),
        "MVB"  -> results.map(_._3.answer),
      ),
    )
  }

  /** Table VII: uniform data on [1, 199], 5 datasets (accurate = 100). */
  def tableVII(spark: SparkSession, rowsPerDataset: Long = 1000000L, nDatasets: Int = 5,
               e: Double = 0.5, baseSeed: Long = 400L): ExpTable = {
    val p = IslaParams(e = e)
    val results = (1 to nDatasets).map { i =>
      val df = Distributions.uniformRange(spark, rowsPerDataset, 1.0, 199.0, 10, baseSeed + i)
      compareIslaMvMvb(df, p, baseSeed * 10 + i)
    }
    ExpTable(
      "Table VII — uniform distribution on [1,199]",
      (1 to nDatasets).map("ds" + _),
      Seq(
        "ISLA" -> results.map(_._1.answer),
        "MV"   -> results.map(_._2.answer),
        "MVB"  -> results.map(_._3.answer),
      ),
      Seq("accurate answer = 100; e=0.5 here (paper default e=0.1 needs m>M at container scale, see EXPERIMENTS.md)"),
    )
  }

  /** §VIII-A inline numbers: answers while the data size varies. */
  def dataSizeSweep(spark: SparkSession,
                    sizes: Seq[Long] = Seq(100000L, 300000L, 1000000L, 3000000L, 10000000L),
                    p: IslaParams = IslaParams(), baseSeed: Long = 500L): ExpTable = {
    val answers = sizes.zipWithIndex.map { case (n, i) =>
      val df = Distributions.normal(spark, n, 100.0, 20.0, 10, baseSeed + i).cache()
      try Isla.run(df, "value", p, seed = baseSeed * 10 + i).answer
      finally { df.unpersist(); () }
    }
    ExpTable(
      "§VIII-A — varying data size (ISLA answers; accurate = 100)",
      sizes.map(n => s"M=$n"),
      Seq("ISLA" -> answers),
      Seq("the paper swept 10^8..10^12 rows; Eq. 1 keeps the sample size M-independent"),
    )
  }

  /** §VIII-D: non-i.i.d. blocks, 5 runs, e=0.5 (accurate = 100). */
  def nonIid(spark: SparkSession, perBlock: Long = 200000L, runs: Int = 5,
             e: Double = 0.5, baseSeed: Long = 600L): ExpTable = {
    val p = IslaParams(e = e)
    val answers = (1 to runs).map { i =>
      val df = Distributions.nonIidBlocks(spark, perBlock, Distributions.nonIidSpecs, baseSeed + i).cache()
      try IslaNonIid.run(df, "value", p, seed = baseSeed * 10 + i).answer
      finally { df.unpersist(); () }
    }
    ExpTable(
      "§VIII-D — non-i.i.d. blocks, 5 runs (accurate = 100)",
      (1 to runs).map("run" + _),
      Seq("ISLA-noniid" -> answers),
      Seq("blocks: N(100,20^2) N(50,10^2) N(80,30^2) N(150,60^2) N(120,40^2)"),
    )
  }

  /** §VIII-G: real-data stand-ins — salary-like and TLC-trip-like data.
    *
    * The paper fixes absolute sample sizes: 20 000 for MV/MVB/US/STS and
    * 10 000 for ISLA (half), via `rateOverride`.
    */
  def realData(spark: SparkSession, baseSeed: Long = 700L): Seq[ExpTable] = {
    def one(name: String, df: DataFrame, seed: Long): ExpTable = {
      val cached = df.cache()
      try {
        val sizes = Moments.blockSizes(cached)
        val m = sizes.values.sum
        val exact = Distributions.exactAvg(cached)
        val rOthers = math.min(1.0, 20000.0 / m)
        val rIsla = math.min(1.0, 10000.0 / m)
        val p = IslaParams(e = 0.05 * exact, rateOverride = Some(rIsla))
        val isla = Isla.run(cached, "value", p, Some(sizes), seed = seed)
        val mv = MeasureBiased.runMV(cached, "value", rOthers, seed = seed + 31)
        val mvb = MeasureBiased.runMVB(cached, "value", rOthers, p.copy(rateOverride = None),
          Some(sizes), seed = seed + 61)
        val us = UniformSampling.run(cached, "value", rOthers, seed = seed + 91)
        val sts = StratifiedSampling.run(cached, "value", rOthers, Some(sizes), seed = seed + 121)
        ExpTable(
          s"§VIII-G — $name (synthetic stand-in, see DESIGN.md §3)",
          Seq("Answer"),
          Seq(
            "Accurate" -> Seq(exact),
            "ISLA" -> Seq(isla.answer),
            "MV"   -> Seq(mv.answer),
            "MVB"  -> Seq(mvb.answer),
            "US"   -> Seq(us.answer),
            "STS"  -> Seq(sts.answer),
          ),
          Seq(s"rows=$m; ISLA samples 10000, others 20000 (paper's §VIII-G protocol)"),
        )
      } finally { cached.unpersist(); () }
    }
    Seq(
      one("salary data", Distributions.salaryLike(spark, seed = baseSeed), baseSeed * 10),
      one("TLC trip data", Distributions.tlcLike(spark, seed = baseSeed + 1), baseSeed * 10 + 1),
    )
  }
}
