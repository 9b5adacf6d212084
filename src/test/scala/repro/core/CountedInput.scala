package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Input on which counting block sizes inside the σ pilot is easy to get
  * wrong: 30 000 rows over 8 partitions; blocks 0–4 laid out interleaved
  * (`id % 5`) or contiguous (`id / 6000`); a block 5 of 500 rows, fewer
  * than the pilot's 2000, so its per-block pilot rate is 1; about 1% null
  * block ids and 1/13 null values; values N(−20, 30²), so footnote 1
  * shifts them.
  */
object CountedInput {
  def apply(spark: SparkSession, contiguous: Boolean, seed: Long = 5L): DataFrame = {
    val id = col("id")
    val base = if (contiguous) id / 6000 else id % 5
    spark.range(0, 30000, 1, 8).select(
      when(id % 101 === 3, lit(null)).when(id % 60 === 7, lit(5L)).otherwise(base.cast("long")).as("block"),
      when(id % 13 === 0, lit(null)).otherwise(randn(seed) * 30 - 20).as("value"))
  }
}
