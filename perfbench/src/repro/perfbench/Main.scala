package repro.perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}

import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

import org.apache.spark.sql.SparkSession

/** Benchmark entry point: runs one workload in one JVM with one client
  * thread (closed loop) and prints its metrics, the last stdout line being
  * a JSON object `{correct, attempted, failed, metrics}`.
  *
  * {{{
  * --workload <name> --seed <n> --seconds <s> --trace <0|1> --out-dir <dir>
  * }}}
  *
  * Seed rule, fixed before any run: the input is generated with seed n;
  * the k-th query of the run (k = 0, 1, ..., the set-up warm-ups first)
  * uses query seed 1000·(n+1) + 10·k.  A tpch-compare round gives ISLA
  * that seed s and the baselines s+3 .. s+6.  Nothing is re-seeded,
  * skipped or resized after answers are seen.
  *
  * Set-up is session start, data generation, cache materialisation and
  * ground truth, run [[SetupReps]] times, each in a fresh Spark session,
  * then [[WarmUps]] warm-up rounds of the exact AVG and the query;
  * `setup_s` is the median set-up plus the warm-up time.  The DuckDB
  * cross-check of the ground truth runs once, between set-up and warm-up,
  * and is not timed.
  *
  * Each query is preceded by [[ExactPerQuery]] runs of the exact AVG over
  * the same cached input, also timed.  Latencies are reported in units of
  * that exact query's median, so drift in the machine's speed, which
  * moves both alike, cancels.
  *
  * `--trace 0` times untraced queries for `--seconds` and reports the
  * end-to-end metrics.  `--trace 1` alternates an untraced query with a
  * query traced layer by layer at the next seed, reruns the untraced
  * program at the traced query's seed (untimed) and asserts the two
  * results are identical, and reports the per-layer metrics and the
  * tracing overhead.
  */
object Main {
  val SetupReps = 3
  val WarmUps = 2
  /** Exact reference queries timed before each query: the exact query is
    * short, so one sample of it is noisier than the query it scales.
    */
  val ExactPerQuery = 3
  /** Cores of the `local[N]` master. */
  val MaxCores = 4

  final case class Args(workload: Workload, seed: Long, seconds: Int, trace: Boolean, outDir: String)

  def parse(args: Array[String]): Args = {
    val kv = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad argument: ${other.mkString(" ")}")
    }.toMap
    def get(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val wl = Workloads.byName(get("workload")).getOrElse(throw new IllegalArgumentException(
      s"unknown workload ${get("workload")}; one of ${Workloads.all.map(_.name).mkString(", ")}"))
    val trace = get("trace") match {
      case "0" => false
      case "1" => true
      case t => throw new IllegalArgumentException(s"--trace must be 0 or 1: $t")
    }
    val seconds = get("seconds").toInt
    require(seconds > 0, s"--seconds must be positive: $seconds")
    Args(wl, get("seed").toLong, seconds, trace, get("out-dir"))
  }

  def main(args: Array[String]): Unit = {
    val a = try parse(args) catch {
      case NonFatal(e) =>
        System.err.println(s"perfbench: ${e.getMessage}")
        sys.exit(2)
    }
    val code =
      try {
        val report = new Bench(a).run()
        report.textLines.foreach(println)
        val dir = Paths.get(a.outDir, "reports")
        Files.createDirectories(dir)
        Files.write(dir.resolve(s"${a.workload.name}-seed${a.seed}-trace${if (a.trace) 1 else 0}.json"),
          report.detail.getBytes(StandardCharsets.UTF_8))
        println(report.result)
        0
      } catch {
        case NonFatal(e) =>
          e.printStackTrace()
          1
      }
    sys.exit(code)
  }
}

/** One timed query: its latency and its result, if it did not fail. */
final case class Timed(ms: Double, outcome: Option[Outcome]) {
  def ok: Boolean = outcome.isDefined
}

/** A traced query with its spans, its JVM GC time and the untraced
  * program's result at the same seed.
  */
final case class TracedQuery(timed: Timed, root: Option[Span], gcMs: Double, check: Option[Outcome])

final class Bench(a: Main.Args) {
  import SparkCounters.TagKey

  private val wl = a.workload
  private val cores = math.min(Main.MaxCores, Runtime.getRuntime.availableProcessors)
  private var queryIndex = 0
  private var attempted = 0
  private var failed = 0
  private var outOfRange = 0

  private def nextSeed(): Long = {
    val s = 1000L * (a.seed + 1) + 10L * queryIndex
    queryIndex += 1
    s
  }

  private def session(): SparkSession = SparkSession.builder
    .master(s"local[$cores]")
    .appName(s"perfbench-${wl.name}")
    .config("spark.ui.enabled", "false")
    .config("spark.driver.host", "127.0.0.1")
    .config("spark.local.dir", Paths.get(a.outDir, "work", "spark-local").toString)
    .config("spark.sql.warehouse.dir", Paths.get(a.outDir, "work", "warehouse").toString)
    .config("spark.sql.shuffle.partitions", "64")
    .config("spark.sql.autoBroadcastJoinThreshold", "-1")
    .getOrCreate()

  /** Runs `body`, timing it; a throw or a non-finite answer is a failure. */
  private def timed(in: Input)(body: => Outcome): Timed = {
    attempted += 1
    val t0 = System.nanoTime()
    val r = try Right(body) catch { case NonFatal(e) => Left(e) }
    val ms = (System.nanoTime() - t0) / 1e6
    r match {
      case Right(o) if (o.answer +: o.baselines.values.toSeq).forall(x => !x.isNaN && !x.isInfinite) =>
        // An average lies within the data's range, and ISLA's clamp keeps
        // the answer within t_e·e of a sample mean.
        val slack = wl.params.te * wl.params.e
        if (o.answer < in.min - slack || o.answer > in.max + slack) outOfRange += 1
        Timed(ms, Some(o))
      case other =>
        failed += 1
        System.err.println(s"perfbench: query failed: ${other.fold(_.toString, o => s"non-finite answer in $o")}")
        Timed(ms, None)
    }
  }

  private def gcMs(): Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum.toDouble

  def run(): Report = {
    var spark: SparkSession = null
    try {
      var in: Input = null
      var counters: SparkCounters = null
      var cached = (0L, 0)
      var oracleError: Option[String] = None
      var sessionS = 0.0
      val setupS = ArrayBuffer.empty[Double]
      for (rep <- 0 until Main.SetupReps) {
        if (spark != null) {
          spark.stop()
          SparkSession.clearActiveSession()
          SparkSession.clearDefaultSession()
        }
        val t0 = System.nanoTime()
        spark = session()
        sessionS = (System.nanoTime() - t0) / 1e9
        counters = SparkCounters.attach(spark.sparkContext)
        spark.sparkContext.setLocalProperty(TagKey, "setup")
        in = Workloads.prepare(spark, wl, a.seed)
        val infos = spark.sparkContext.getRDDStorageInfo
        cached = (infos.map(i => i.memSize + i.diskSize).sum, infos.map(_.numCachedPartitions).sum)
        setupS += (System.nanoTime() - t0) / 1e9
        System.err.println(f"perfbench: set-up ${rep + 1}/${Main.SetupReps}: ${setupS.last}%.2f s " +
          f"(session $sessionS%.2f s)")
      }
      val sc = spark.sparkContext
      require(cached._1 > 0, "input is not cached")
      try Workloads.oracleCheck(spark, wl, a.seed)
      catch { case NonFatal(e) => oracleError = Some(e.getMessage) }
      val w0 = System.nanoTime()
      for (_ <- 0 until Main.WarmUps) {
        Workloads.exactAvg(in.df)
        timed(in)(wl.query(in, nextSeed()))
      }
      val warmUpS = (System.nanoTime() - w0) / 1e9
      System.err.println(f"perfbench: ${Main.WarmUps} warm-up queries: $warmUpS%.2f s")

      val exactMs = ArrayBuffer.empty[Double]
      val untraced = ArrayBuffer.empty[Timed]
      val traced = ArrayBuffer.empty[TracedQuery]
      val tracer = new Tracer(sc)
      val end = System.nanoTime() + a.seconds * 1000000000L
      while (System.nanoTime() < end) {
        // The exact AVG over the same cached input, right before each query:
        // the reference the query's latency is measured against.
        sc.setLocalProperty(TagKey, "exact")
        for (_ <- 0 until Main.ExactPerQuery) {
          val e0 = System.nanoTime()
          val exact = Workloads.exactAvg(in.df)
          exactMs += (System.nanoTime() - e0) / 1e6
          if (math.abs(exact - in.exactAvg) > 1e-9 * math.abs(in.exactAvg)) outOfRange += 1
        }
        sc.setLocalProperty(TagKey, "measure")
        untraced += timed(in)(wl.query(in, nextSeed()))
        if (a.trace) {
          // A fresh seed: a seed seen before would reuse compiled code.
          val seed = nextSeed()
          sc.setLocalProperty(TagKey, "traced")
          var root: Option[Span] = None
          val gc0 = gcMs()
          val t = timed(in) {
            val (o, s) = tracer.runSpan("query", wl.traced(in, seed, tracer))
            root = Some(s)
            o
          }
          val gc = gcMs() - gc0
          sc.setLocalProperty(TagKey, "check")
          val check = try Some(wl.check(in, seed)) catch { case NonFatal(_) => None }
          traced += TracedQuery(t, root, gc, check)
        }
      }
      SparkCounters.drain(sc)

      val facts = Seq(
        "nproc" -> Runtime.getRuntime.availableProcessors.toString,
        "master" -> sc.master,
        "defaultParallelism" -> sc.defaultParallelism.toString,
        "spark.sql.shuffle.partitions" -> spark.conf.get("spark.sql.shuffle.partitions"),
        "spark.sql.adaptive.enabled" -> spark.conf.get("spark.sql.adaptive.enabled"),
        "spark" -> spark.version,
        "jdk" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.version")}",
        "driver_max_heap_mb" -> (Runtime.getRuntime.maxMemory >> 20).toString,
        "cached_input_bytes" -> cached._1.toString,
        "cached_input_partitions" -> cached._2.toString,
        "rows" -> in.rows.toString,
        "exact_avg" -> in.exactAvg.toString,
        "exact_sigma" -> in.exactSigma.toString,
        "session_start_s" -> sessionS.toString,
      )
      val storageBytes = sc.getRDDStorageInfo.map(_.memSize).sum
      new Report(a, in, facts, setupS.toSeq, warmUpS, exactMs.toSeq, untraced.toSeq, traced.toSeq,
        counters, cached._1, storageBytes, attempted, failed, outOfRange, oracleError)
    } finally {
      if (spark != null) spark.stop()
    }
  }
}
