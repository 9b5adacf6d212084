package repro.core

/** Leverage math of §IV and Appendix A: the closed form
  * `μ̂ = f(α) = kα + c` of Theorem 3, computed from the O(1) region
  * moments that Algorithm 2 uses (no samples stored, sequence-insensitive).
  * The tests cross-validate it against the appendix's 5 explicit steps.
  */
object Leverage {

  /** Coefficients of the l-estimator `μ̂ = kα + c`. */
  final case class LinearForm(k: Double, c: Double) {
    /** Evaluate the l-estimator at leverage degree α. */
    def muHat(alpha: Double): Double = k * alpha + c
  }

  /** Theorem 3: (k, c) from the S and L moments and the leverage
    * allocating parameter q.
    *
    * c = (Σx+Σy)/(u+v) — the plain uniform answer over S∪L samples.
    * k = (TΣx − Σx³)/((1 + v/(qu))(uT − Σx²)) + vΣy³/((qu+v)Σy²) − c,
    * with T = Σx² + Σy².
    *
    * Requires u>0, v>0 and positive square sums (the paper's positivity
    * assumption; negative data are shifted first, see [[repro.core.Isla]]).
    */
  def kc(s: RegionMoments, l: RegionMoments, q: Double): LinearForm = {
    require(s.n > 0 && l.n > 0, s"Theorem 3 needs samples in both regions: |S|=${s.n} |L|=${l.n}")
    require(q > 0, s"q must be positive: $q")
    val u = s.n.toDouble
    val v = l.n.toDouble
    val t = s.sum2 + l.sum2
    require(t > 0 && l.sum2 > 0, s"square sums must be positive: T=$t ΣY²=${l.sum2}")
    val c = (s.sum + l.sum) / (u + v)
    val denomS = (1.0 + v / (q * u)) * (u * t - s.sum2)
    require(denomS != 0.0, "degenerate S region (u·T == Σx²)")
    val termS = (t * s.sum - s.sum3) / denomS
    val termL = (v * l.sum3) / ((q * u + v) * l.sum2)
    LinearForm(termS + termL - c, c)
  }
}
