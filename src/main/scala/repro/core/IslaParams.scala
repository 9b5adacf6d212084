package repro.core

/** The ISLA parameters a caller chooses, plus the fixed ones they imply.
  *
  * Fixed by the paper's §VIII parameter list: step-length factor λ=0.8,
  * boundaries p₁=0.5 / p₂=2.0, convergence speed η=0.5, q′=5 for
  * dev∈(0.94,0.97)∪(1.03,1.06) and q′=10 further out (q=1 in the inner
  * band), case-5 "no deviation" band dev∈(0.99,1.01).
  *
  * Fixed where the paper leaves them open (DESIGN.md §3): relaxed-precision
  * factor t_e=3 for sketch₀, pilot size 2000 for σ, iteration threshold
  * thr=e/2 (calibrated so the modulation magnitude matches the paper's
  * Table IV partials; see EXPERIMENTS.md), |α| ≤ 1 and a cap of 200
  * modulation iterations.
  *
  * @param e             desired precision (confidence-interval half width)
  * @param beta          confidence level in (0,1)
  * @param rateFraction  fraction of the Eq.-1 rate actually used (Table V uses 1/3)
  * @param rateOverride  explicit sampling rate, bypassing Eq. 1 (§VIII-G fixes
  *                      absolute sample sizes; None = use Eq. 1)
  */
final case class IslaParams(
    e: Double = 0.1,
    beta: Double = 0.95,
    rateFraction: Double = 1.0,
    rateOverride: Option[Double] = None,
) {
  require(e > 0, s"e must be positive: $e")
  require(beta > 0 && beta < 1, s"beta must be in (0,1): $beta")
  require(rateFraction > 0 && rateFraction <= 1, s"rateFraction in (0,1]: $rateFraction")
  require(rateOverride.forall(r => r > 0 && r <= 1), s"rateOverride in (0,1]: $rateOverride")

  /** Inner data-boundary factor p₁ (S/N and N/L split, ×σ; §VIII). */
  val p1: Double = 0.5
  /** Outer data-boundary factor p₂ (TS/S and L/TL split, ×σ; §VIII). */
  val p2: Double = 2.0
  /** Step-length factor λ: min step = λ·max step in cases 1/4 (§VIII). */
  val lambda: Double = 0.8
  /** Convergence speed η: D ← ηD per iteration (§VIII). */
  val eta: Double = 0.5
  /** Relaxed-precision factor t_e for sketch₀ (§III-B; DESIGN §3). */
  val te: Double = 3.0
  /** Pilot sample size used to estimate σ (§III-A; DESIGN §3). */
  val sigmaPilot: Int = 2000
  /** Bound on |α|: Eq. 2's range, mirrored for case 4's negative α (DESIGN §3). */
  val alphaBound: Double = 1.0
  /** Hard cap on modulation iterations (guards thr→0; DESIGN §3). */
  val maxIterations: Int = 200

  /** Iteration threshold thr for |D| (§V-D; DESIGN §3). */
  def thr: Double = e / 2

  /** Leverage-allocating parameter q from dev = |S|/|L| (§IV-A4).
    *
    * q scales levSum_S/levSum_L = q·u/v. dev>1 (S heavier) → q=1/q′ to
    * shrink the S mass; dev<1 → q=q′ to shrink the L mass.
    */
  def chooseQ(dev: Double): Double = {
    require(dev > 0, s"dev must be positive: $dev")
    val innerBand = 0.03 // q = 1
    val midBand = 0.06   // q′ = 5; q′ = 10 beyond
    val qPrime =
      if (dev > 1.0 - innerBand && dev < 1.0 + innerBand) 1.0
      else if (dev > 1.0 - midBand && dev < 1.0 + midBand) 5.0
      else 10.0
    if (qPrime == 1.0) 1.0
    else if (dev > 1.0) 1.0 / qPrime
    else qPrime
  }

  /** Case-5 test: dev within (0.99, 1.01) means |S|≈|L|. */
  def isBalanced(dev: Double): Boolean = {
    val band = 0.01
    dev > 1.0 - band && dev < 1.0 + band
  }
}
