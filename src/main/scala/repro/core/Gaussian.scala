package repro.core

import org.apache.commons.math3.special.Erf

/** Standard-normal math needed by the paper's precision machinery.
  *
  * Eq. (1) needs the two-sided quantile `u` for a confidence `β`
  * (`u = Φ⁻¹((1+β)/2)`, e.g. β=0.95 → u≈1.96), taken from the inverse
  * error function of commons-math3, which Spark ships. Φ stays the A&S
  * polynomial below: κ(p₁,p₂) reads it, and every modulated answer reads
  * κ, so an exact Φ would move their last bits. Both are pure functions
  * used by [[SampleSize]] and by tests that predict region proportions.
  */
object Gaussian {

  /** Cumulative distribution function Φ(x) of N(0,1).
    *
    * Uses the Zelen & Severo A&S 26.2.17 polynomial on the tail;
    * |abs err| < 7.5e-8, plenty for predicting region proportions.
    */
  def cdf(x: Double): Double = {
    if (x.isNaN) return Double.NaN
    val t = 1.0 / (1.0 + 0.2316419 * math.abs(x))
    val poly = t * (0.319381530 + t * (-0.356563782 + t * (1.781477937 +
      t * (-1.821255978 + t * 1.330274429))))
    val tail = math.exp(-x * x / 2.0) / math.sqrt(2.0 * math.Pi) * poly
    if (x >= 0) 1.0 - tail else tail
  }

  /** Quantile function Φ⁻¹(p) = √2·erf⁻¹(2p − 1) of N(0,1), with Giles's
    * erf⁻¹ ("Approximating the erfinv function", 2011).
    *
    * Defined for p ∈ (0,1); throws outside.
    */
  def inverseCdf(p: Double): Double = {
    require(p > 0.0 && p < 1.0, s"quantile argument must be in (0,1), got $p")
    math.sqrt(2.0) * Erf.erfInv(2.0 * p - 1.0)
  }

  /** Two-sided confidence quantile: `u` with P(|Z| ≤ u) = β (Def. 1). */
  def twoSidedQuantile(beta: Double): Double = {
    require(beta > 0.0 && beta < 1.0, s"confidence must be in (0,1), got $beta")
    inverseCdf((1.0 + beta) / 2.0)
  }
}
