package repro.data

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Blocked synthetic workloads for the paper's evaluation section.
  *
  * Every generator returns a DataFrame with columns
  *  - `value` (double) — the aggregation column,
  *  - `block` (long)   — the block id in [0, blocks),
  * is deterministic in `(rows, seed)`, and assigns rows to blocks
  * round-robin so blocks are equal-sized (the paper "evenly divides the
  * data into b parts", §VIII).
  *
  * The real-data stand-ins (`salaryLike`, `tlcLike`) are synthetic
  * mixtures calibrated to the published means and skew structure; the
  * substitution rationale is in DESIGN.md §3.
  */
object Distributions {

  /** U(0,1] draw that is safe inside log(). */
  private def u01(seed: Long): Column = lit(1.0) - rand(seed)

  /** Standard-normal column via Box–Muller over two rand streams. */
  private def stdNormal(seed: Long): Column =
    sqrt(lit(-2.0) * log(u01(seed))) * cos(lit(2.0 * math.Pi) * rand(seed + 1))

  private def blocked(spark: SparkSession, rows: Long, blocks: Int, valueExpr: Column): DataFrame = {
    require(rows > 0 && blocks > 0, s"rows=$rows blocks=$blocks")
    spark.range(rows).select(
      valueExpr.as("value"),
      (col("id") % blocks).cast("long").as("block"),
    )
  }

  /** N(mu, sigma²) data in `blocks` equal blocks (§VIII default:
    * mu=100, sigma=20).
    */
  def normal(spark: SparkSession, rows: Long, mu: Double = 100.0, sigma: Double = 20.0,
             blocks: Int = 10, seed: Long = 0): DataFrame =
    blocked(spark, rows, blocks, lit(mu) + lit(sigma) * stdNormal(seed * 2 + 100))

  /** Exponential data with rate γ (mean 1/γ) — §VIII-E Table VI. */
  def exponential(spark: SparkSession, rows: Long, gamma: Double,
                  blocks: Int = 10, seed: Long = 0): DataFrame = {
    require(gamma > 0, s"gamma must be positive: $gamma")
    blocked(spark, rows, blocks, -log(u01(seed * 2 + 300)) / gamma)
  }

  /** Uniform data on [lo, hi] — §VIII-E Table VII uses [1, 199]. */
  def uniformRange(spark: SparkSession, rows: Long, lo: Double = 1.0, hi: Double = 199.0,
                   blocks: Int = 10, seed: Long = 0): DataFrame = {
    require(hi > lo, s"need hi > lo: [$lo, $hi]")
    blocked(spark, rows, blocks, lit(lo) + rand(seed * 2 + 500) * (hi - lo))
  }

  /** Non-i.i.d. blocks: block j is N(muⱼ, sigmaⱼ²) with `perBlock` rows
    * each (§VIII-D uses N(100,20²), N(50,10²), N(80,30²), N(150,60²),
    * N(120,40²), 5 runs).
    */
  def nonIidBlocks(spark: SparkSession, perBlock: Long,
                   specs: Seq[(Double, Double)], seed: Long = 0): DataFrame = {
    require(specs.nonEmpty, "need at least one block spec")
    val base = blocked(spark, perBlock * specs.size, specs.size, lit(0.0))
      .select(col("block"), stdNormal(seed * 2 + 700).as("z"))
    val spec = (col("block") + 1).cast("int") // element_at is 1-based
    val mu = element_at(typedLit(specs.map(_._1)), spec)
    val sd = element_at(typedLit(specs.map(_._2)), spec)
    base.select((mu + sd * col("z")).as("value"), col("block"))
  }

  /** The §VIII-D block mixture. */
  val nonIidSpecs: Seq[(Double, Double)] =
    Seq((100.0, 20.0), (50.0, 10.0), (80.0, 30.0), (150.0, 60.0), (120.0, 40.0))

  /** Census-salary stand-in (§VIII-G): zero-inflated lognormal body plus
    * a small top-coded spike; right-skewed with mean ≈ 1740 at the
    * paper's row count 299 285. The exact mean is computed by full scan
    * in the bench — the generator only has to reproduce the skew shape.
    */
  def salaryLike(spark: SparkSession, rows: Long = 299285L,
                 blocks: Int = 10, seed: Long = 0): DataFrame = {
    val pick = rand(seed * 2 + 900)
    val body = exp(lit(7.50) + lit(0.60) * stdNormal(seed * 2 + 901)) // lognormal, mean≈2170
    val spike = lit(10000.0) + rand(seed * 2 + 903) * 8000.0           // top-coded outliers
    val v = when(pick < 0.35, 0.0).when(pick < 0.97, body).otherwise(spike)
    blocked(spark, rows, blocks, v)
  }

  /** NYC-TLC trip_distance×1000 stand-in (§VIII-G): bimodal lognormal —
    * a dominant short-trip cluster and a long-trip cluster, i.e. the
    * "too big and too small values highly clustered" skew the paper
    * calls out. Mean ≈ 4648 at calibration; exact mean by full scan.
    */
  def tlcLike(spark: SparkSession, rows: Long = 1090685L,
              blocks: Int = 10, seed: Long = 0): DataFrame = {
    val pick = rand(seed * 2 + 950)
    val short = exp(lit(7.60) + lit(0.60) * stdNormal(seed * 2 + 951)) // mean ≈ 2390
    val long  = exp(lit(9.62) + lit(0.50) * stdNormal(seed * 2 + 953)) // mean ≈ 17100
    val v = when(pick < 0.85, short).otherwise(long)
    blocked(spark, rows, blocks, v)
  }

  /** Exact AVG by full scan — the ground truth the paper compares against
    * when the data set is small enough to scan (§VIII-G).
    */
  def exactAvg(df: DataFrame, valueCol: String = "value"): Double =
    df.agg(avg(col(valueCol).cast("double"))).collect()(0).getDouble(0)
}
