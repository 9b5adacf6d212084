package repro.core

/** Appendix-A reference path over explicit samples: walks the 5 steps
  * (original leverages, normalization, probabilities, l-estimator) that
  * [[Leverage.kc]] collapses into Theorem 3, and reproduces the paper's
  * worked example (Table II).
  *
  * @param xs S samples, @param ys L samples, @param q leverage allocator
  */
final case class ExplicitLeverage(xs: Seq[Double], ys: Seq[Double], q: Double) {
  require(xs.nonEmpty && ys.nonEmpty, "need samples in both S and L")
  private val u = xs.size.toDouble
  private val v = ys.size.toDouble
  /** T = Σx² + Σy². */
  val t: Double = xs.map(x => x * x).sum + ys.map(y => y * y).sum
  private val sumX2 = xs.map(x => x * x).sum
  private val sumY2 = ys.map(y => y * y).sum

  /** Step 1 — original leverage scores: 1−x²/T for S, y²/T for L. */
  def originalLeverageS(x: Double): Double = 1.0 - x * x / t
  def originalLeverageL(y: Double): Double = y * y / t

  /** Theoretical leverage mass of each region under Constraints 1+2:
    * levSum_S/levSum_L = q·u/v and levSum_S + levSum_L = 1.
    */
  val theoreticalSumS: Double = q * u / (q * u + v)
  val theoreticalSumL: Double = v / (q * u + v)

  /** Step 2 — normalization factors (appendix formulas). */
  val facX: Double = (u + v / q) * (1.0 - sumX2 / (u * t))
  val facY: Double = (q * u / v + 1.0) * (sumY2 / t)

  /** Step 3 — normalized leverages. */
  def leverageS(x: Double): Double = originalLeverageS(x) / facX
  def leverageL(y: Double): Double = originalLeverageL(y) / facY

  /** Step 4 — re-weighted probability at leverage degree α (Eq. 2),
    * with uniform probability 1/(u+v).
    */
  def probS(x: Double, alpha: Double): Double = alpha * leverageS(x) + (1.0 - alpha) / (u + v)
  def probL(y: Double, alpha: Double): Double = alpha * leverageL(y) + (1.0 - alpha) / (u + v)

  /** Step 5 — the l-estimator μ̂(α) = Σx·prob + Σy·prob. */
  def muHat(alpha: Double): Double =
    xs.map(x => x * probS(x, alpha)).sum + ys.map(y => y * probL(y, alpha)).sum

  /** Sum of all normalized leverages — must be 1 (Theorem 2). */
  def leverageSum: Double = xs.map(leverageS).sum + ys.map(leverageL).sum

  /** Sum of all probabilities at α — must be 1 for any α. */
  def probabilitySum(alpha: Double): Double =
    xs.map(probS(_, alpha)).sum + ys.map(probL(_, alpha)).sum
}
