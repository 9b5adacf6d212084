package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col

/** Full ISLA output: the final answer plus everything the paper's
  * evaluation section reports about a run (sketch₀, rate, partials).
  */
final case class IslaResult(
    answer: Double,
    sketch0: Double,
    sigma: Double,
    rate: Double,
    dataSize: Long,
    shift: Double,
    blocks: Seq[BlockResult],
) {
  /** Per-block partial answers (Table IV's "Partial 1..b"). */
  def partials: Seq[Double] = blocks.map(_.avg)
}

/** ISLA end to end (Fig. 2): Pre-estimation → per-block Calculation
  * (sampling + iteration) → Summarization.
  *
  * The data-touching phases, pre-estimation's pilots and Algorithm 1's
  * per-block moment pass, share one Spark job ([[run]]); the
  * iteration phase is O(b·log(|D⁰|/thr)) scalar work on the driver, and
  * Summarization is the size-weighted merge Σ avg_j·|Bⱼ|/M.
  *
  * This is the pooled case of the per-block pipeline of [[IslaNonIid]]:
  * the input is pre-estimated as one block, so every block shares its
  * boundaries and one Eq.-1 rate.
  *
  * Negative data are handled per footnote 1 of §IV-A2: when a pilot sees
  * values ≤ 0 the whole computation runs on `value + shift` (shift =
  * max(σ, 1) − pilot min, keeping everything strictly positive) and the
  * final answer is translated back.
  */
object Isla {

  /** Run ISLA on a blocked DataFrame.
    *
    * One call to [[PreEstimation.oneScan]] draws the σ pilot (seed),
    * sketch₀ (seed+1) and the moment sample (seed+2) in one scan, with or
    * without `sizes`, and resolves them into one [[PreEstimation.Scan]].
    * The Eq.-1 rate and the footnote-1 shift follow from σ̂, and the S/L
    * split from sketch₀, so each row drawn below a speculative bound is
    * kept until the driver knows them. A pass whose candidates fall short
    * of its rate, or exceed [[PreEstimation.fusedCap]], runs again on its
    * own, with the same answer. [[calculate]] modulates and merges.
    *
    * @param df       input with `valueCol` (numeric) and `blockCol` (block id)
    * @param valueCol aggregation column; a sampled NaN or ±Inf value is rejected
    * @param p        algorithm parameters (paper defaults)
    * @param sizes    optional precomputed block sizes (metadata); counted by the σ pilot if absent
    * @param seed     RNG seed; the pilots use seed and seed+1, the main pass seed+2
    */
  def run(
      df: DataFrame,
      valueCol: String,
      p: IslaParams = IslaParams(),
      sizes: Option[Map[Long, Long]] = None,
      blockCol: String = "block",
      seed: Long = 7L,
  ): IslaResult = {
    val eq1: (Double, Long) => Double = (sigma, m) => SampleSize.rate(sigma, p.e, p, m) * p.rateFraction
    val momentRate: PreEstimation.MomentRate = p.rateOverride.map(r => (_: Long) => r)
      .toLeft { pres => val pr = pres.head; _ => eq1(pr.sigma, pr.size) }
    val scan = PreEstimation.oneScan(df, col(blockCol), valueCol, sizes, p, seed, "ISLA", pooled = true, momentRate,
      shifted = true)
    val pre = scan.pres.head
    calculate(scan, p, pre.sketch0, pre.sigma, p.rateOverride.getOrElse(eq1(pre.sigma, pre.size)))
  }

  /** Calculation and Summarization, shared by both pipelines: modulation
    * (Algorithm 2) of each block's moment sample from `scan`, on the
    * footnote-1 shifted scale and against its group's sketch₀, then the
    * size-weighted merge, shifted back. `sketch0`, `sigma` and `rate` are
    * the pipeline's, reported as given.
    */
  private[core] def calculate(scan: PreEstimation.Scan, p: IslaParams, sketch0: Double, sigma: Double,
                              rate: Double): IslaResult = {
    val blocks = Moments.of(scan.moments, scan.sizes)
      .map(bm => Modulation.solveBlock(bm, scan.pre(bm.block).sketch0 + scan.shift, p))
    IslaResult(summarize(blocks) - scan.shift, sketch0, sigma, rate, scan.sizes.values.sum, scan.shift, blocks)
  }

  /** Summarization module (§II-C): Σ avg_j·|Bⱼ| / M. */
  def summarize(blocks: Seq[BlockResult]): Double = {
    val m = blocks.map(_.blockSize).sum
    require(m > 0, "no data behind the partial answers")
    blocks.map(b => b.avg * b.blockSize).sum / m
  }
}
