package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.exp.{ExpTable, Tables, Timing}

/** One spark-submit entrypoint: builds the session, prints every table
  * `tables` renders from the optional first argument, and stops the
  * session. Each object below inherits `main`, and Scala gives it a static
  * forwarder, so `spark-submit --class repro.jobs.TableIII` finds it.
  *
  * The first argument overrides the per-dataset row count (default
  * 1 000 000) unless an object says otherwise, e.g.
  * `spark-submit --class repro.jobs.TableIII repro.jar 2000000`.
  */
sealed abstract class TableJob(app: String)(tables: (SparkSession, Option[String]) => Seq[ExpTable]) {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.build(app)
    try tables(spark, args.headOption).foreach(t => println(t.render))
    finally spark.stop()
  }
}

object TableJob {
  /** The first argument as a count, else `default`. */
  private[jobs] def rows(arg: Option[String], default: Long = 1000000L): Long = arg.fold(default)(_.toLong)
}

import TableJob.rows

/** Table III — accuracy of ISLA, MV and MVB. */
object TableIII extends TableJob("isla-table-iii")((spark, n) => Seq(Tables.tableIII(spark, rows(n))))

/** Table IV — per-block partial answers (modulation abilities). */
object TableIV extends TableJob("isla-table-iv")((spark, n) => Seq(Tables.tableIV(spark, rows(n))))

/** Table V — ISLA at one third of the uniform/stratified sample size. */
object TableV extends TableJob("isla-table-v")((spark, n) => Seq(Tables.tableV(spark, rows(n))))

/** Table VI — exponential distributions. */
object TableVI extends TableJob("isla-table-vi")((spark, n) => Seq(Tables.tableVI(spark, rows(n))))

/** Table VII — uniform distribution on [1, 199]. */
object TableVII extends TableJob("isla-table-vii")((spark, n) => Seq(Tables.tableVII(spark, rows(n))))

/** §VIII-A — varying data size sweep; takes no argument. */
object DataSize extends TableJob("isla-datasize")((spark, _) => Seq(Tables.dataSizeSweep(spark)))

/** §VIII-D — non-i.i.d. blocks; the argument is rows per block (default 200 000). */
object NonIid extends TableJob("isla-noniid")((spark, n) => Seq(Tables.nonIid(spark, rows(n, 200000L))))

/** §VIII-F — efficiency on TPC-H-lite lineitem; the argument is the scale factor (default 0.1). */
object Efficiency extends TableJob("isla-efficiency")((spark, sf) =>
  Seq(Timing.efficiency(spark, sf.fold(0.1)(_.toDouble))))

/** §VIII-G — real-data stand-ins (salary-like, TLC-trip-like); takes no argument. */
object RealData extends TableJob("isla-realdata")((spark, _) => Tables.realData(spark))
