package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.{col, lit}

/** Output of the Pre-estimation module (§III): the estimated standard
  * deviation, the initial sketch estimator, and a pilot minimum used to
  * shift negative data (footnote 1 of §IV-A2).
  */
final case class PreEstimate(sigma: Double, sketch0: Double, pilotMin: Double, pilotMean: Double)

/** Pre-estimation module (§III): two small uniform [[SampleAgg]] passes.
  *
  * Pass 1 draws a fixed-size pilot (proportionally across blocks — a
  * global Bernoulli rate achieves exactly that) to estimate σ; σ only
  * feeds Eq. 1 and the data boundaries, so its own error needs no
  * assurance (§III-A). Pass 2 draws the sketch sample at the Eq.-1 rate
  * for the *relaxed* precision t_e·e, giving sketch₀ its relaxed
  * confidence interval (sketch₀ − t_e·e, sketch₀ + t_e·e) (§III-B).
  */
object PreEstimation {

  /** Run both pilot passes.
    *
    * @param df       blocked input data
    * @param valueCol numeric aggregation column
    * @param dataSize total data size M (from metadata / block sizes)
    * @param p        ISLA parameters (β, e, t_e, pilot size)
    * @param seed     RNG seed; pass 2 uses seed+1
    */
  def run(df: DataFrame, valueCol: String, dataSize: Long, p: IslaParams, seed: Long = 7L): PreEstimate = {
    // Both pilots pool the input: a constant block id.
    def pilot(label: String, seed: Long, rate: Double): BlockSample =
      SampleAgg.run(df, lit(0L), col(valueCol), label, seed, _ => rate)
        .getOrElse(0L, new BlockSample(1))

    // Pass 1: σ (and min, for the negative-data shift) from a small pilot.
    val pilotRate = math.min(1.0, p.sigmaPilot.toDouble / dataSize)
    val pass1 = pilot("ISLA σ pilot", seed, pilotRate)
    val sigma = pass1.sd
    require(!sigma.isNaN, "pilot produced NaN sigma — empty input?")

    // Pass 2: sketch₀ at the relaxed precision t_e·e (Eq. 1 with e' = t_e·e).
    val sketchRate =
      if (sigma <= 0) pilotRate // constant column: any sample gives the exact mean
      else SampleSize.samplingRate(sigma, p.te * p.e, p.beta, dataSize)
    val pass2 = pilot("ISLA sketch₀", seed + 1, sketchRate)
    val sketch0 = if (pass2.n == 0) pass1.avg else pass2.avg

    PreEstimate(sigma = math.max(sigma, 0.0), sketch0 = sketch0, pilotMin = pass1.min, pilotMean = pass1.avg)
  }
}
