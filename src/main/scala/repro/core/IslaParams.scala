package repro.core

/** All tunables of ISLA, defaulted to the paper's §VIII parameter list.
  *
  * Paper defaults: desired precision e=0.1, confidence β=0.95, step-length
  * factor λ=0.8, boundaries p₁=0.5 / p₂=2.0, convergence speed η=0.5,
  * q′=5 for dev∈(0.94,0.97)∪(1.03,1.06) and q′=10 further out (q=1 in the
  * inner band), case-5 "no deviation" band dev∈(0.99,1.01).
  *
  * Values the paper leaves unspecified (documented in DESIGN.md §3):
  * relaxed-precision factor t_e=3 for sketch₀, pilot size 2000 for σ,
  * iteration threshold thr=e/2 (calibrated so the modulation magnitude
  * matches the paper's Table IV partials; see EXPERIMENTS.md).
  *
  * @param e             desired precision (confidence-interval half width)
  * @param beta          confidence level in (0,1)
  * @param p1            inner data-boundary factor (S/N and N/L split, ×σ)
  * @param p2            outer data-boundary factor (TS/S and L/TL split, ×σ)
  * @param lambda        step-length factor λ∈(0,1): min step = λ·max step
  * @param eta           convergence speed η∈(0,1): D ← ηD per iteration
  * @param thrFraction   iteration threshold as a fraction of e (thr = thrFraction·e)
  * @param te            relaxed-precision factor t_e>1 for sketch₀ (§III-B)
  * @param sigmaPilot    pilot sample size used to estimate σ (§III-A)
  * @param case5Band     half-width w of the |S|≈|L| band: dev∈(1−w,1+w) returns sketch₀
  * @param qInnerBand    half-width of the dev band where q=1 (paper: 0.03)
  * @param qMidBand      half-width of the dev band where q′=5 (paper: 0.06)
  * @param qMid          q′ for the middle deviation band (paper: 5)
  * @param qOuter        q′ for severe deviation (paper: 10)
  * @param rateFraction  fraction of the Eq.-1 rate actually used (Table V uses 1/3)
  * @param rateOverride  explicit sampling rate, bypassing Eq. 1 (§VIII-G fixes
  *                      absolute sample sizes; None = use Eq. 1)
  * @param clampPartials clamp each modulated partial to sketch₀'s relaxed
  *                      confidence interval (sketch₀ ± t_e·e) — the modulation
  *                      boundary the paper proposes in §VII-B
  * @param geometricLambda use the Theorem-1-consistent step-length factor
  *                      λ_geom = |κ(p₁,p₂)| for cases 2/3 (see
  *                      [[Modulation]]); false restores the literal fixed-λ
  *                      steps of §V-C for ablation
  * @param alphaBound    bound on |α| — Eq. 2 requires the leverage degree in
  *                      (0,1); case 4 motivates the symmetric negative range
  * @param maxIterations hard cap on modulation iterations (guards thr→0 misuse)
  */
final case class IslaParams(
    e: Double = 0.1,
    beta: Double = 0.95,
    p1: Double = 0.5,
    p2: Double = 2.0,
    lambda: Double = 0.8,
    eta: Double = 0.5,
    thrFraction: Double = 0.5,
    te: Double = 3.0,
    sigmaPilot: Int = 2000,
    case5Band: Double = 0.01,
    qInnerBand: Double = 0.03,
    qMidBand: Double = 0.06,
    qMid: Double = 5.0,
    qOuter: Double = 10.0,
    rateFraction: Double = 1.0,
    rateOverride: Option[Double] = None,
    clampPartials: Boolean = true,
    geometricLambda: Boolean = true,
    alphaBound: Double = 1.0,
    maxIterations: Int = 200,
) {
  require(e > 0, s"e must be positive: $e")
  require(beta > 0 && beta < 1, s"beta must be in (0,1): $beta")
  require(p1 > 0 && p1 < p2, s"need 0 < p1 < p2: p1=$p1 p2=$p2")
  require(lambda > 0 && lambda < 1, s"lambda must be in (0,1): $lambda")
  require(eta > 0 && eta < 1, s"eta must be in (0,1): $eta")
  require(te > 1, s"te must exceed 1: $te")
  require(rateFraction > 0 && rateFraction <= 1, s"rateFraction in (0,1]: $rateFraction")
  require(rateOverride.forall(r => r > 0 && r <= 1), s"rateOverride in (0,1]: $rateOverride")

  /** Iteration threshold thr for |D| (§V-D). */
  def thr: Double = thrFraction * e

  /** Leverage-allocating parameter q from dev = |S|/|L| (§IV-A4).
    *
    * q scales levSum_S/levSum_L = q·u/v. dev>1 (S heavier) → q=1/q′ to
    * shrink the S mass; dev<1 → q=q′ to shrink the L mass.
    */
  def chooseQ(dev: Double): Double = {
    require(dev > 0, s"dev must be positive: $dev")
    val qPrime =
      if (dev > 1.0 - qInnerBand && dev < 1.0 + qInnerBand) 1.0
      else if (dev > 1.0 - qMidBand && dev < 1.0 + qMidBand) qMid
      else qOuter
    if (qPrime == 1.0) 1.0
    else if (dev > 1.0) 1.0 / qPrime
    else qPrime
  }

  /** Case-5 test: dev within (1−case5Band, 1+case5Band) means |S|≈|L|. */
  def isBalanced(dev: Double): Boolean =
    dev > 1.0 - case5Band && dev < 1.0 + case5Band
}
