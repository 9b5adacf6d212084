package repro.baselines

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col

import repro.core.{IslaParams, PreEstimation, SampleAgg}

/** The measure-biased comparators of §VIII-C, re-implemented from the
  * paper's definitions (the sample+seek originals are closed source).
  *
  * MV  — "probabilities on values": uniform samples re-weighted by
  *       Eq. 4, prob(a) = a/Σa′, so the AVG estimate collapses to
  *       Σa²/Σa over the sample. On N(μ,σ²) this converges to
  *       (μ²+σ²)/μ — the ≈104 signature of Table III.
  *
  * MVB — "probabilities on values and boundaries": samples are split by
  *       the paper's data boundaries (all five regions); each region's
  *       probability mass is n_reg/m (∝ its sample count) and is spread
  *       within the region ∝ value, giving
  *       answer = Σ_reg (n_reg/m)·(Σ_reg a²/Σ_reg a).
  *       MVB therefore needs the same pre-estimation pass as ISLA to fix
  *       sketch₀ and σ for the boundaries.
  */
object MeasureBiased {

  /** MV: measure-biased re-weighting on values only. */
  def runMV(df: DataFrame, valueCol: String, rate: Double,
            blockCol: String = "block", seed: Long = 17L): BaselineResult = {
    require(rate > 0 && rate <= 1, s"rate must be in (0,1]: $rate")
    val rows = SampleAgg.run(df, col(blockCol), col(valueCol), "MV", seed, _ => rate)
      .toSeq.sortBy(_._1)
      .collect { case (b, s) if s.n > 0 => (b, if (s.all.sum == 0) 0.0 else s.all.sum2 / s.all.sum, s.all.n) }
    require(rows.nonEmpty, "MV sample came back empty")
    val answer = rows.map { case (_, est, n) => est * n }.sum / rows.map(_._3).sum
    BaselineResult(answer, rows.map { case (b, est, _) => (b, est) })
  }

  /** MVB: measure-biased re-weighting on values and data boundaries.
    *
    * Runs its own pre-estimation (pilot σ and sketch₀) to build the same
    * boundaries ISLA uses, and one pass collecting per-region {n, Σa, Σa²}
    * for each block. As in [[repro.core.Isla.run]], the σ pilot (seed),
    * sketch₀ (seed+1) and the MVB pass (seed+2) share one scan; a sampled
    * NaN or ±Inf value is rejected.
    */
  def runMVB(df: DataFrame, valueCol: String, rate: Double,
             p: IslaParams = IslaParams(),
             sizes: Option[Map[Long, Long]] = None,
             blockCol: String = "block", seed: Long = 19L): BaselineResult = {
    require(rate > 0 && rate <= 1, s"rate must be in (0,1]: $rate")
    val blocks = PreEstimation.oneScan(df, col(blockCol), valueCol, sizes, p, seed, "MVB", pooled = true,
      Left(_ => rate)).moments.toSeq.sortBy(_._1).filter(_._2.n > 0)
    require(blocks.nonEmpty, "MVB sample came back empty")
    // Per block Σ_reg (n_reg/m)·(Σa²/Σa); an all-zero region contributes nothing.
    val partials = blocks.map { case (b, s) =>
      b -> s.regions.map(r => if (r.sum == 0) 0.0 else (r.n / s.n.toDouble) * (r.sum2 / r.sum)).sum
    }
    val answer = blocks.zip(partials).map { case ((_, s), (_, est)) => est * s.n }.sum / blocks.map(_._2.n).sum
    BaselineResult(answer, partials)
  }
}
