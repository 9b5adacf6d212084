package repro.perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import repro.{Oracle, SynthData}
import repro.baselines.{MeasureBiased, StratifiedSampling, UniformSampling}
import repro.core._
import repro.data.Distributions

/** A workload's cached input and its exact statistics, by full scan. */
final case class Input(
    df: DataFrame,
    rows: Long,
    sizes: Map[Long, Long],
    exactAvg: Double,
    exactSigma: Double,
    min: Double,
    max: Double,
)

/** What one query produced.
  *
  * @param isla      the ISLA result the answer comes from
  * @param baselines baseline answers by short name (US, STS, MV, MVB)
  * @param moments   per-block S/L moments, when the traced run collected them
  * @param pres      per-block pre-estimates of the non-i.i.d. query, from its check
  * @param dupMs     time the traced run spent repeating work the untraced
  *                  query does only once (excluded from tracing overhead)
  */
final case class Outcome(
    isla: IslaResult,
    baselines: Map[String, Double] = Map.empty,
    moments: Seq[BlockMoments] = Nil,
    pres: Seq[BlockPre] = Nil,
    dupMs: Double = 0.0,
) {
  def answer: Double = isla.answer
}

/** One benchmark workload: a data generator, ISLA parameters and a query.
  * Every workload reads columns `value` (double) and `block` (long).
  */
sealed trait Workload {
  def name: String
  def why: String
  /** Rows M of the measured input. */
  def rows: Long
  def params: IslaParams
  /** Whether the query is given block sizes (otherwise ISLA counts them). */
  def passSizes: Boolean
  /** The input at `rows` rows, uncached. */
  def generate(spark: SparkSession, rows: Long, seed: Long): DataFrame
  /** The untraced query. */
  def query(in: Input, seed: Long): Outcome
  /** The same query, calling each layer inside its own span. */
  def traced(in: Input, seed: Long, t: Tracer): Outcome
  /** The untraced query again, untimed, with any extra results the
    * diagnostics need; its result must equal `traced`'s at the same seed.
    */
  def check(in: Input, seed: Long): Outcome = query(in, seed)

  protected def sizesArg(in: Input): Option[Map[Long, Long]] =
    if (passSizes) Some(in.sizes) else None
}

object Workloads {
  val all: Seq[Workload] = Seq(IidScan, NonIidB100, TpchCompare)

  def byName(n: String): Option[Workload] = all.find(_.name == n)

  /** Rows of the copy of each input that is cross-checked against DuckDB. */
  val OracleRows = 1000L

  /** Generates, caches and materialises the input, then computes its exact
    * AVG, σ, range and block sizes by full scans.
    */
  def prepare(spark: SparkSession, wl: Workload, seed: Long): Input = {
    val df = wl.generate(spark, wl.rows, seed).cache()
    val n = df.count()
    val (exactAvg, sigma, lo, hi) = exactStats(df)
    Input(df, n, Moments.blockSizes(df), exactAvg, sigma, lo, hi)
  }

  def exactAvg(df: DataFrame): Double =
    df.agg(avg(col("value").cast("double"))).collect()(0).getDouble(0)

  def exactStats(df: DataFrame): (Double, Double, Double, Double) = {
    val v = col("value").cast("double")
    val r = df.agg(avg(v), stddev_pop(v), min(v), max(v)).collect()(0)
    (r.getDouble(0), r.getDouble(1), r.getDouble(2), r.getDouble(3))
  }

  /** Cross-checks the ground-truth path (exact AVG and block sizes)
    * against DuckDB on a copy of the input small enough to load through
    * JDBC.
    */
  def oracleCheck(spark: SparkSession, wl: Workload, seed: Long): Unit = {
    import spark.implicits._
    val small = wl.generate(spark, OracleRows, seed).cache()
    try {
      val (exactAvg, _, _, _) = exactStats(small)
      Oracle.assertEquivalent(
        Seq(exactAvg).toDF("a"),
        "SELECT avg(CAST(value AS DOUBLE)) AS a FROM t",
        "t" -> small)
      Oracle.assertEquivalent(
        Moments.blockSizes(small).toSeq.toDF("block", "n"),
        "SELECT CAST(block AS BIGINT) AS block, count(*) AS n FROM t GROUP BY 1",
        "t" -> small)
    } finally small.unpersist(blocking = true)
  }

  /** ISLA called layer by layer, each call in its own span.  Mirrors the
    * body of `Isla.run` statement for statement; the benchmark asserts the
    * result equals `Isla.run`'s at the same seed.
    */
  def tracedIsla(t: Tracer, df: DataFrame, p: IslaParams, sizes: Option[Map[Long, Long]],
                 seed: Long): (IslaResult, Seq[BlockMoments]) = {
    val blockSizes = sizes.getOrElse(t.span("Moments.blockSizes")(Moments.blockSizes(df, "block")))
    val m = blockSizes.values.sum
    require(m > 0, "empty input")

    val pre = t.span("PreEstimation.run")(PreEstimation.run(df, "value", m, p, seed))

    val shift = if (pre.pilotMin <= 0) -pre.pilotMin + math.max(pre.sigma, 1.0) else 0.0
    val workDf = if (shift == 0) df else df.withColumn("value", col("value") + lit(shift))
    val sketch0 = pre.sketch0 + shift

    val rate = p.rateOverride.getOrElse {
      if (pre.sigma <= 0) math.min(1.0, p.sigmaPilot.toDouble / m)
      else math.min(1.0, SampleSize.samplingRate(pre.sigma, p.e, p.beta, m) * p.rateFraction)
    }
    val bounds = Boundaries(sketch0, pre.sigma, p.p1, p.p2)

    val moments = t.span("Moments.collect")(
      Moments.collect(workDf, "value", rate, bounds, blockSizes, "block", seed + 2))
    val blocks = t.span("Modulation.solveBlock")(moments.map(Modulation.solveBlock(_, sketch0, p)))
    val answer = t.span("Isla.summarize")(Isla.summarize(blocks)) - shift

    (IslaResult(answer, pre.sketch0, pre.sigma, rate, m, shift, blocks), moments)
  }
}

/** The paper's default query in its small-sample regime, with no block
  * sizes given, so ISLA recounts them.
  */
object IidScan extends Workload {
  val name = "iid-scan"
  val why = "the paper's default query, N(100,20^2), M=10^7, b=10, e=0.1, sizes not passed: bound by scans and per-row work, 4 full scans a query"
  val rows = 10000000L
  val params = IslaParams(e = 0.1, beta = 0.95)
  val passSizes = false

  def generate(spark: SparkSession, rows: Long, seed: Long): DataFrame =
    Distributions.normal(spark, rows, mu = 100.0, sigma = 20.0, blocks = 10, seed = seed)

  def query(in: Input, seed: Long): Outcome =
    Outcome(Isla.run(in.df, "value", params, sizesArg(in), "block", seed))

  def traced(in: Input, seed: Long, t: Tracer): Outcome = {
    val (r, moments) = Workloads.tracedIsla(t, in.df, params, sizesArg(in), seed)
    Outcome(r, moments = moments)
  }
}

/** §VII-C non-i.i.d. ISLA with 100 blocks: per-block constants become
  * 100-way `when` chains, which make the query driver-bound.
  */
object NonIidB100 extends Workload {
  val name = "noniid-b100"
  val why = "IslaNonIid on the five VIII-D normal specs cycled over b=100 blocks, M=2*10^6, e=0.5, sizes passed: per-block constants as 100-way when chains make it driver-bound"
  val rows = 2000000L
  val blocks = 100
  val params = IslaParams(e = 0.5, beta = 0.95)
  val passSizes = true

  /** Block j is N(μ, σ²) with (μ, σ) the §VIII-D spec j mod 5, rows
    * assigned round-robin, values by Box–Muller.  The specs are looked up
    * by index: `Distributions.nonIidBlocks` builds a 100-way `when` chain
    * per column, which makes generating the input take longer than the
    * timed queries.
    */
  def generate(spark: SparkSession, rows: Long, seed: Long): DataFrame = {
    val specs = Distributions.nonIidSpecs
    val spec = (col("block") % specs.size + 1).cast("int")
    val z = sqrt(lit(-2.0) * log(lit(1.0) - rand(seed * 2 + 700))) *
      cos(lit(2.0 * math.Pi) * rand(seed * 2 + 701))
    spark.range(rows / blocks * blocks)
      .select((col("id") % blocks).cast("long").as("block"), z.as("z"))
      .select(
        (element_at(typedLit(specs.map(_._1)), spec) +
          element_at(typedLit(specs.map(_._2)), spec) * col("z")).as("value"),
        col("block"))
  }

  def query(in: Input, seed: Long): Outcome =
    Outcome(IslaNonIid.run(in.df, "value", params, sizesArg(in), "block", seed))

  /** `IslaNonIid.run` calls `preEstimate` internally; a separately timed
    * `preEstimate` lets the report derive the rest of the query
    * (`IslaNonIid.main`) by difference.  It runs at another seed: Spark
    * compiles code for each seed it sees, so a repeat at the same seed
    * would skip code generation and time less than `run` spends.
    */
  def traced(in: Input, seed: Long, t: Tracer): Outcome = {
    val (_, preSpan) = t.runSpan("IslaNonIid.preEstimate",
      IslaNonIid.preEstimate(in.df, "value", in.sizes, params, "block", seed + 5))
    val r = t.span("IslaNonIid.run")(IslaNonIid.run(in.df, "value", params, sizesArg(in), "block", seed))
    Outcome(r, dupMs = preSpan.wallMs)
  }

  override def check(in: Input, seed: Long): Outcome =
    query(in, seed).copy(pres = IslaNonIid.preEstimate(in.df, "value", in.sizes, params, "block", seed))
}

/** §VIII-F: one round is ISLA followed by the four comparators at ISLA's
  * Eq.-1 rate, on TPC-H-like lineitem prices.
  */
object TpchCompare extends Workload {
  val name = "tpch-compare"
  val why = "VIII-F round on lineitem SF=0.5: ISLA, then US, STS, MV and MVB at ISLA's rate, e=500, sizes passed; the baselines do most of the work and the data are not normal"
  val LineitemPerSf = 6000000.0
  val rows = 3000000L
  val params = IslaParams(e = 500.0, beta = 0.95)
  val passSizes = true

  def generate(spark: SparkSession, rows: Long, seed: Long): DataFrame =
    SynthData.lineitem(spark, rows / LineitemPerSf, seed)
      .select(col("l_extendedprice").cast("double").as("value"),
              (col("l_orderkey") % 10).cast("long").as("block"))

  private def baselines(in: Input, rate: Double, seed: Long, t: Option[Tracer]): Map[String, Double] = {
    def call(layer: String)(body: => Double): Double = t.fold(body)(_.span(layer)(body))
    val r = math.min(1.0, rate)
    Map(
      "US" -> call("UniformSampling.run")(UniformSampling.run(in.df, "value", r, "block", seed + 3).answer),
      "STS" -> call("StratifiedSampling.run")(
        StratifiedSampling.run(in.df, "value", r, Some(in.sizes), "block", seed + 4).answer),
      "MV" -> call("MeasureBiased.runMV")(MeasureBiased.runMV(in.df, "value", r, "block", seed + 5).answer),
      "MVB" -> call("MeasureBiased.runMVB")(
        MeasureBiased.runMVB(in.df, "value", r, params, Some(in.sizes), "block", seed + 6).answer),
    )
  }

  def query(in: Input, seed: Long): Outcome = {
    val isla = Isla.run(in.df, "value", params, sizesArg(in), "block", seed)
    Outcome(isla, baselines(in, isla.rate, seed, None))
  }

  def traced(in: Input, seed: Long, t: Tracer): Outcome = {
    val (isla, moments) = Workloads.tracedIsla(t, in.df, params, sizesArg(in), seed)
    Outcome(isla, baselines(in, isla.rate, seed, Some(t)), moments = moments)
  }
}
