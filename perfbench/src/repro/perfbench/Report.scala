package repro.perfbench

import repro.core.{IslaResult, ModulationCase, SampleSize}

/** Turns one run's timings, spans and Spark counters into the metrics. */
final class Report(
    a: Main.Args,
    in: Input,
    facts: Seq[(String, String)],
    setupS: Seq[Double],
    warmUpS: Double,
    exactMs: Seq[Double],
    untraced: Seq[Timed],
    traced: Seq[TracedQuery],
    counters: SparkCounters,
    cachedBytes: Long,
    storageBytes: Long,
    attempted: Int,
    failed: Int,
    outOfRange: Int,
    oracleError: Option[String],
) {
  import Report._

  private val wl = a.workload
  private val e = wl.params.e
  private val latencies = untraced.map(_.ms)
  private val (tailMs, tailPct) = tail(latencies)

  /** Traced queries whose result differs from the untraced program's at
    * the same seed: the trace must measure the same program, so any
    * mismatch makes the run incorrect.
    */
  private val mismatches = traced.count {
    case TracedQuery(Timed(_, Some(t)), _, _, Some(c)) =>
      !sameIsla(c.isla, t.isla) || c.baselines != t.baselines
    case TracedQuery(Timed(_, Some(_)), _, _, None) => true
    case _ => false
  }

  def correct: Boolean = oracleError.isEmpty && mismatches == 0 && outOfRange == 0

  private def errOverE(x: Double): Double = math.abs(x - in.exactAvg) / e

  private val exactP50 = median(exactMs)

  def endToEnd: Seq[(String, Double, String)] = Seq(
    ("setup_s", median(setupS) + warmUpS, "s"),
    ("query_over_exact_p50", median(latencies) / exactP50, "ratio"),
    ("query_over_exact_tail", tailMs / exactP50, "ratio"),
    ("scans_per_query", counters.totals("measure").bytesRead.toDouble / cachedBytes / untraced.size, "scans"),
    ("storage_mb", storageBytes / MiB, "MiB"),
  )

  /** Latencies in milliseconds, and the exact reference's. */
  private def rawTiming: Seq[(String, Double, String)] = Seq(
    ("query.ms_p50", median(latencies), "ms"),
    ("query.ms_tail", tailMs, "ms"),
    ("query.rows_per_s", in.rows * untraced.count(_.ok) / (latencies.sum / 1000), "1/s"),
    ("exact.ms_p50", exactP50, "ms"),
  )

  /** Answer quality over every timed query, traced or not.  A failed
    * query counts as an answer outside e.
    */
  private def answerQuality: Seq[(String, Double, String)] = {
    val all = untraced ++ traced.map(_.timed)
    val answers = all.flatMap(_.outcome).map(_.answer)
    val n = math.max(all.size, 1).toDouble
    Seq(
      ("query.within_e_share", answers.count(errOverE(_) <= 1.0) / n, "share"),
      ("query.err_over_e_p50", median(answers.map(errOverE)), "ratio"),
      ("query.failed_share", all.count(!_.ok) / n, "share"),
    )
  }

  /** Counters of every span in `s`'s subtree, with `s`'s own self time. */
  private def sample(s: Span): Map[String, Double] = {
    val tot = s.subtree.map(x => counters.totals(x.tag)).reduce(_ + _)
    Map(
      "ms" -> s.selfMs,
      "jobs" -> tot.jobs.toDouble,
      "scans" -> tot.bytesRead.toDouble / cachedBytes,
      "task_ms" -> tot.taskMs.toDouble,
      "driver_ms" -> math.max(0.0, s.wallMs - covered(tot.jobIntervals, s.startMs, s.endMs)),
      "shuffle_kb" -> tot.shuffleBytes / 1024.0,
      "peak_exec_mb" -> tot.peakExecBytes / MiB,
    )
  }

  /** Layer → counters for one traced query.  `IslaNonIid.main` is
    * `IslaNonIid.run` minus the separately timed `preEstimate`; its peak
    * memory is that of the whole `run`.
    */
  private def layerSamples(root: Span): Map[String, Map[String, Double]] = {
    val byName = root.subtree.map(s => s.name -> sample(s)).toMap
    (byName.get("IslaNonIid.run"), byName.get("IslaNonIid.preEstimate")) match {
      case (Some(run), Some(pre)) =>
        val main = run.map { case (k, v) => k -> (if (k == "peak_exec_mb") v else v - pre(k)) }
        byName - "IslaNonIid.run" + ("IslaNonIid.main" -> main)
      case _ => byName
    }
  }

  def perLayer: Seq[(String, Double, String)] = {
    val ok = traced.filter(_.timed.ok)
    val samples = ok.flatMap(_.root).map(layerSamples)
    val layerMetrics = for (layer <- Layers; (c, unit) <- LayerCounters) yield {
      val xs = samples.flatMap(_.get(layer)).map(_(c))
      (s"$layer.$c", median(xs), unit)
    }
    // Moments come from the traced call, per-block pre-estimates from the check.
    val outcomes = ok.flatMap(q => q.timed.outcome.map(o => o.copy(pres = q.check.fold(o.pres)(_.pres))))
    val overhead = median(ok.flatMap(q => q.timed.outcome.map(q.timed.ms - _.dupMs))) -
      median(untraced.filter(_.ok).map(_.ms))
    layerMetrics ++ Seq(
      ("query.gc_ms", median(ok.map(_.gcMs)), "ms"),
      ("query.total_ms", median(ok.flatMap(_.root).map(_.wallMs)), "ms"),
      ("tracing.overhead_ms", overhead, "ms"),
    ) ++ rawTiming ++ answerQuality ++ diagnostics(outcomes)
  }

  /** Diagnostics read from the results' public fields. */
  private def diagnostics(os: Seq[Outcome]): Seq[(String, Double, String)] = {
    val p = wl.params
    val sigmaRatios = os.map(_.isla.sigma / in.exactSigma)
    val sketch0Errs = os.map { o =>
      if (o.pres.isEmpty) errOverE(o.isla.sketch0)
      else errOverE(o.pres.map(b => b.sketch0 * b.size).sum / o.pres.map(_.size).sum)
    }
    val slPerTarget = os.filter(_.moments.nonEmpty).map { o =>
      o.moments.map(m => m.s.n + m.l.n).sum.toDouble / SampleSize.sampleSize(o.isla.sigma, p.e, p.beta)
    }
    // Per-block sketch₀ on the shifted scale, as Modulation saw it.
    val blocks = os.flatMap { o =>
      val s0 = o.pres.map(b => b.block -> b.sketch0).toMap
      o.isla.blocks.map(b => b -> (s0.getOrElse(b.block, o.isla.sketch0) + o.isla.shift))
    }
    def share(f: ((repro.core.BlockResult, Double)) => Boolean): Double =
      if (blocks.isEmpty) 0.0 else blocks.count(f).toDouble / blocks.size
    def degenerate(b: repro.core.BlockResult) = b.dev == 0.0 || b.dev.isPosInfinity
    val baselineErrs = BaselineNames.map { n =>
      (s"$n.err_over_e_p50", median(os.flatMap(_.baselines.get(n)).map(errOverE)), "ratio")
    }
    Seq(
      ("PreEstimation.sigma_ratio", median(sigmaRatios), "ratio"),
      ("PreEstimation.sigma_ratio_min", if (sigmaRatios.isEmpty) 0.0 else sigmaRatios.min, "ratio"),
      ("PreEstimation.sketch0_err_over_e", median(sketch0Errs), "ratio"),
      ("Moments.sl_per_target", median(slPerTarget), "ratio"),
      ("Modulation.degenerate_share", share { case (b, _) => degenerate(b) }, "share"),
      ("Modulation.case5_share", share { case (b, _) => !degenerate(b) && b.modCase == ModulationCase.Case5 }, "share"),
      ("Modulation.alpha_at_bound_share", share { case (b, _) => math.abs(b.alpha) == p.alphaBound }, "share"),
      ("Modulation.clamp_share", share { case (b, s0) =>
        !degenerate(b) && b.modCase != ModulationCase.Case5 &&
          math.abs(math.abs(b.avg - s0) - p.te * p.e) <= 1e-9 * math.max(1.0, math.abs(s0))
      }, "share"),
      ("Modulation.iterations_mean",
        if (blocks.isEmpty) 0.0 else blocks.map(_._1.iterations).sum.toDouble / blocks.size, "count"),
    ) ++ baselineErrs
  }

  def metrics: Seq[(String, Double, String)] = if (a.trace) perLayer else endToEnd

  def textLines: Seq[String] = {
    val shown = if (a.trace) metrics else metrics ++ rawTiming
    val ms = shown.map { case (n, v, u) => f"$n%-40s $v%14.4f $u" }
    val head = Seq(
      s"workload ${wl.name}: ${wl.why}",
      s"seed ${a.seed}, ${a.seconds} s, trace ${if (a.trace) 1 else 0}; " +
        s"${untraced.size} untraced and ${traced.size} traced queries; " +
        f"query_ms_tail is p$tailPct%.1f of ${latencies.size}; set-ups (s): ${setupS.map(x => f"$x%.2f").mkString(", ")}; " +
        f"warm-up $warmUpS%.2f s",
      s"attempted $attempted, failed $failed, out-of-range answers $outOfRange, trace mismatches $mismatches, " +
        s"oracle ${oracleError.fold("ok")("FAILED: " + _)}",
    )
    head ++ facts.map { case (k, v) => s"fact $k = $v" } ++ ms
  }

  def result: String = Json.obj(
    "correct" -> Json.bool(correct),
    "attempted" -> attempted.toString,
    "failed" -> failed.toString,
    "metrics" -> Json.obj(metrics.map { case (n, v, u) =>
      n -> Json.obj("value" -> Json.num(v), "unit" -> Json.str(u))
    }: _*),
  )

  /** Everything the run saw, for the report file. */
  def detail: String = Json.obj(
    "workload" -> Json.str(wl.name),
    "why" -> Json.str(wl.why),
    "seed" -> a.seed.toString,
    "seconds" -> a.seconds.toString,
    "trace" -> Json.bool(a.trace),
    "facts" -> Json.obj(facts.map { case (k, v) => k -> Json.str(v) }: _*),
    "setup_s" -> Json.arr(setupS.map(Json.num)),
    "warm_up_s" -> Json.num(warmUpS),
    "tail_percentile" -> Json.num(tailPct),
    "latencies_ms" -> Json.arr(latencies.map(Json.num)),
    "exact_ms" -> Json.arr(exactMs.map(Json.num)),
    "answers" -> Json.arr(untraced.map(t => t.outcome.fold("null")(o => Json.num(o.answer)))),
    "traced_ms" -> Json.arr(traced.map(t => Json.num(t.timed.ms))),
    "result" -> result,
  )

  private def sameIsla(x: IslaResult, y: IslaResult): Boolean = {
    def bits(d: Double) = java.lang.Double.doubleToLongBits(d)
    bits(x.answer) == bits(y.answer) && bits(x.sketch0) == bits(y.sketch0) &&
      bits(x.sigma) == bits(y.sigma) && bits(x.rate) == bits(y.rate) &&
      x.dataSize == y.dataSize && bits(x.shift) == bits(y.shift) && x.blocks == y.blocks
  }
}

object Report {
  val MiB = 1024.0 * 1024.0

  /** Entry points timed as layers, in call order; `query` is the root span. */
  val Layers = Seq(
    "Moments.blockSizes", "PreEstimation.run", "Moments.collect", "Modulation.solveBlock",
    "Isla.summarize", "IslaNonIid.preEstimate", "IslaNonIid.main", "UniformSampling.run",
    "StratifiedSampling.run", "MeasureBiased.runMV", "MeasureBiased.runMVB", "query")

  val LayerCounters = Seq(
    "ms" -> "ms", "jobs" -> "count", "scans" -> "scans", "task_ms" -> "ms",
    "driver_ms" -> "ms", "shuffle_kb" -> "KiB", "peak_exec_mb" -> "MiB")

  val BaselineNames = Seq("US", "STS", "MV", "MVB")

  /** Median as Python's `statistics.median` gives it; 0 for no values. */
  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    val n = s.size
    if (n == 0) 0.0 else if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** The highest percentile with at least ten samples beyond it, and its
    * level.  Below 21 samples that percentile would not lie above the
    * median, so the maximum (p100) stands in for it.
    */
  def tail(xs: Seq[Double]): (Double, Double) = {
    val s = xs.sorted
    val n = s.size
    if (n == 0) (0.0, 0.0)
    else if (n < 21) (s.last, 100.0)
    else (s(n - 11), 100.0 * (n - 10) / n)
  }

  /** Milliseconds of [lo, hi] covered by the union of `intervals`. */
  def covered(intervals: Seq[(Long, Long)], lo: Long, hi: Long): Double = {
    val clipped = intervals.map { case (s, e) => (math.max(s, lo), math.min(e, hi)) }
      .filter { case (s, e) => e > s }.sortBy(_._1)
    var total = 0L
    var curS = Long.MinValue
    var curE = Long.MinValue
    for ((s, e) <- clipped) {
      if (s > curE) {
        if (curE > curS) total += curE - curS
        curS = s; curE = e
      } else curE = math.max(curE, e)
    }
    if (curE > curS) total += curE - curS
    total.toDouble
  }
}

/** Minimal JSON rendering; values arrive already rendered. */
object Json {
  def str(s: String): String =
    "\"" + s.flatMap {
      case '"' => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c => c.toString
    } + "\""
  def num(d: Double): String = if (d.isNaN || d.isInfinite) "null" else d.toString
  def bool(b: Boolean): String = b.toString
  def arr(xs: Seq[String]): String = xs.mkString("[", ", ", "]")
  def obj(kvs: (String, String)*): String = kvs.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
}
