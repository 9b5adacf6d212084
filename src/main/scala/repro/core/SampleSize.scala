package repro.core

/** Sampling-rate machinery of the Pre-estimation module (§III-A, Eq. 1).
  *
  * For a desired precision `e` at confidence `β`, the confidence interval
  * `(z̄ − uσ/√m, z̄ + uσ/√m)` of Definition 1 must have half-width `e`,
  * giving the required sample size `m = u²σ²/e²` and rate `r = m/M`.
  */
object SampleSize {

  /** Required sample size `m = u²σ²/e²` (Eq. 1, numerator).
    *
    * @param sigma estimated standard deviation of the data
    * @param e     desired precision (confidence-interval half width)
    * @param beta  confidence level in (0,1)
    */
  def sampleSize(sigma: Double, e: Double, beta: Double): Long = {
    require(sigma >= 0, s"sigma must be non-negative, got $sigma")
    require(e > 0, s"precision must be positive, got $e")
    val u = Gaussian.twoSidedQuantile(beta)
    math.max(1L, math.ceil(u * u * sigma * sigma / (e * e)).toLong)
  }

  /** Sampling rate `r = u²σ²/(M e²)` (Eq. 1), capped at 1. */
  def samplingRate(sigma: Double, e: Double, beta: Double, dataSize: Long): Double = {
    require(dataSize > 0, s"data size must be positive, got $dataSize")
    math.min(1.0, sampleSize(sigma, e, beta).toDouble / dataSize)
  }

  /** Eq. 1's rate in a group of `n` rows with pilot σ̂ `sigma`, at precision
    * `e` and `p`'s confidence; for constant data (σ̂ ≤ 0) any sample gives
    * the exact mean, so the pilot's rate.
    */
  def rate(sigma: Double, e: Double, p: IslaParams, n: Long): Double =
    if (sigma <= 0) pilotRate(p.sigmaPilot, n) else samplingRate(sigma, e, p.beta, n)

  /** A standard deviation `sd` of values with mean `mean` and minimum
    * `min`, or 0 where it is rounding noise: at most 10⁻¹² of the larger of
    * |mean| and |min|. The sums behind a standard deviation round, so
    * constant data such as 3.7 leave one of about 10⁻¹⁶ instead of 0,
    * which would make Eq. 1 ask for a single row; [[rate]] treats 0 as
    * constant data.
    */
  def sigma(sd: Double, mean: Double, min: Double): Double =
    if (sd <= 1e-12 * math.max(math.abs(mean), math.abs(min))) 0.0 else sd

  /** The σ pilot's rate in a group of `n` rows: min(1, k/n). */
  def pilotRate(k: Int, n: Long): Double = math.min(1.0, k.toDouble / n)
}
