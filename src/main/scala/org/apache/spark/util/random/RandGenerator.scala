package org.apache.spark.util.random

/** The generator behind `rand(seed)` in partition `part`,
  * `XORShiftRandom(seed + part)`: its `nextDouble()`s are the values that
  * `rand(seed)` gives the partition's rows, in row order. It lives in
  * Spark's package because the class is private to Spark; drawing from it
  * directly spares each draw the checks, the closure and the boxing of
  * evaluating a Catalyst `Rand`.
  */
object RandGenerator {
  def apply(seed: Long, part: Int): java.util.Random = new XORShiftRandom(seed + part)
}
