package repro.core

/** The five modulation strategies of §V-C, keyed by the sign of
  * D⁰ = c − sketch₀ and the relation of |S| and |L|.
  */
sealed abstract class ModulationCase(val id: Int)
object ModulationCase {
  /** D⁰<0, |S|<|L|: c < sketch₀ < μ — both rise, μ̂ rises more (kδα>δsketch). */
  case object Case1 extends ModulationCase(1)
  /** D⁰<0, |S|>|L|: c,μ < sketch₀ — μ̂ rises slightly, sketch falls. */
  case object Case2 extends ModulationCase(2)
  /** D⁰>0, |S|<|L|: c,μ > sketch₀ — both rise, sketch rises more (kδα<δsketch). */
  case object Case3 extends ModulationCase(3)
  /** D⁰>0, |S|>|L|: c > sketch₀ > μ — both fall, μ̂ falls more (α goes negative). */
  case object Case4 extends ModulationCase(4)
  /** |S|≈|L|: sketch₀ is already ≈μ — return it untouched. */
  case object Case5 extends ModulationCase(5)
}

/** One block's solved answer plus the diagnostics the paper reports. */
final case class BlockResult(
    block: Long,
    blockSize: Long,
    avg: Double,
    modCase: ModulationCase,
    alpha: Double,
    q: Double,
    dev: Double,
    d0: Double,
    iterations: Int,
    sketchFinal: Double,
)

/** Algorithm 2 (iteration phase): drive D = μ̂ − sketch to |D| ≤ thr by
  * geometric halving, splitting each reduction between the two estimators
  * with the step-length factor λ (§V-D).
  *
  * Every iteration satisfies Δμ̂ − Δsketch = −(1−η)D, i.e. D ← ηD exactly,
  * and min(|Δμ̂|,|Δsketch|) = λ·max(|Δμ̂|,|Δsketch|) (§V-D).
  *
  * '''Step-length calibration (Theorem 1).''' §V-D requires λ to reflect
  * the ratio of the two estimators' deviations (λ = ε/(ε+ε′)). For the
  * consistent-evidence cases 2 and 3, that ratio is derivable from the
  * S/L band geometry: writing δ = sketch₀ − μ, the mean of the band
  * (sketch₀±[p₁σ, p₂σ]) under N(μ,σ²) shifts by κδ with
  * κ = (p₂φ(p₂) − p₁φ(p₁)) / (Φ(p₂) − Φ(p₁)),
  * so E[c] = μ + κδ, E[D⁰] = (κ−1)δ, and the estimators meet exactly at
  * μ when each iteration uses
  *   Δμ̂     = (1−η)·D·κ/(1−κ),
  *   Δsketch = (1−η)·D/(1−κ),
  * i.e. λ_geom = |κ| in §V-D's rule. For the paper's p₁=0.5, p₂=2 this
  * gives κ ≈ −0.238: sketch closes ~80% of the gap, μ̂ ~19% — matching
  * the paper's own Table IV partials (≈ c with slight modulation), which
  * a fixed λ=0.8 chase cannot produce.
  *
  * Cases 1 and 4 (contradictory evidence → unbalanced sampling, rare per
  * §V-C) use §V-C's literal fixed-λ steps, with P = (1−η)|D|:
  *
  *  - Case 1: (+P/(1−λ), +λP/(1−λ))   — μ̂ chases from below, sketch follows
  *  - Case 4: (−P/(1−λ), −λP/(1−λ))   — both fall, μ̂ falls more (α<0)
  *
  * α advances by Δμ̂/k and is clamped to |α| ≤ 1, the validity range
  * Eq. 2 imposes on the re-weighted probabilities (case 4's small
  * negative α included).
  */
object Modulation {

  /** Band-mean sensitivity κ(p₁,p₂) = (p₂φ(p₂) − p₁φ(p₁))/(Φ(p₂) − Φ(p₁)):
    * how far the S∪L sample mean shifts per unit of sketch₀ deviation.
    * Clipped away from 1 to keep the step formulas finite.
    */
  def kappa(p1: Double, p2: Double): Double = {
    def phi(x: Double) = math.exp(-x * x / 2.0) / math.sqrt(2.0 * math.Pi)
    val k = (p2 * phi(p2) - p1 * phi(p1)) / (Gaussian.cdf(p2) - Gaussian.cdf(p1))
    math.max(-10.0, math.min(0.9, k))
  }

  /** Pick the §V-C case from the initial objective value and dev=|S|/|L|. */
  def chooseCase(d0: Double, dev: Double, p: IslaParams): ModulationCase = {
    import ModulationCase._
    if (p.isBalanced(dev)) Case5
    else if (d0 < 0 && dev < 1.0) Case1
    else if (d0 < 0) Case2
    else if (d0 > 0 && dev < 1.0) Case3
    else if (d0 > 0) Case4
    else Case5 // D⁰ == 0: estimators already agree; sketch₀ is the answer
  }

  /** Signed per-iteration steps (Δμ̂, Δsketch) for the current D. */
  def step(d: Double, modCase: ModulationCase, p: IslaParams): (Double, Double) = {
    val pAmt = (1.0 - p.eta) * math.abs(d)
    modCase match {
      case ModulationCase.Case1 => (pAmt / (1 - p.lambda), p.lambda * pAmt / (1 - p.lambda))
      case ModulationCase.Case2 | ModulationCase.Case3 =>
        val k = kappa(p.p1, p.p2)
        ((1.0 - p.eta) * d * k / (1.0 - k), (1.0 - p.eta) * d / (1.0 - k))
      case ModulationCase.Case4 => (-pAmt / (1 - p.lambda), -p.lambda * pAmt / (1 - p.lambda))
      case ModulationCase.Case5 => (0.0, 0.0)
    }
  }

  /** Predicted iteration count t = ⌈log₂(|D⁰|/thr)⌉ (§VI-B). */
  def iterationBound(d0: Double, p: IslaParams): Int =
    if (math.abs(d0) <= p.thr) 0
    else math.ceil(math.log(math.abs(d0) / p.thr) / math.log(1.0 / p.eta)).toInt

  /** Solve one block: Algorithm 2 end to end.
    *
    * Degenerate blocks (no S or no L samples, or a vanishing k) cannot
    * form Theorem 3's objective; the sketch estimator — which carries its
    * own relaxed confidence assurance — is returned unmodulated, matching
    * the paper's "return sketch₀" fallback semantics.
    */
  def solveBlock(bm: BlockMoments, sketch0: Double, p: IslaParams): BlockResult = {
    val u = bm.s.n
    val v = bm.l.n
    if (u == 0 || v == 0)
      return BlockResult(bm.block, bm.blockSize, sketch0, ModulationCase.Case5,
        alpha = 0.0, q = 1.0, dev = if (v == 0) Double.PositiveInfinity else 0.0,
        d0 = 0.0, iterations = 0, sketchFinal = sketch0)

    val dev = u.toDouble / v.toDouble
    if (p.isBalanced(dev)) // Case 5: |S| ≈ |L| — sketch₀ is already good
      return BlockResult(bm.block, bm.blockSize, sketch0, ModulationCase.Case5,
        alpha = 0.0, q = 1.0, dev = dev, d0 = 0.0, iterations = 0, sketchFinal = sketch0)

    val q = p.chooseQ(dev)
    val form = Leverage.kc(bm.s, bm.l, q)
    val d0 = form.c - sketch0
    val modCase = chooseCase(d0, dev, p)
    if (modCase == ModulationCase.Case5 || math.abs(form.k) < 1e-12) {
      // D⁰==0 (estimators agree) or α has no effect (k≈0): answer is c.
      val avg = if (math.abs(form.k) < 1e-12 && modCase != ModulationCase.Case5) form.c else sketch0
      return BlockResult(bm.block, bm.blockSize, avg, ModulationCase.Case5,
        alpha = 0.0, q = q, dev = dev, d0 = d0, iterations = 0, sketchFinal = sketch0)
    }

    var d = d0
    var alpha = 0.0
    var sketch = sketch0
    var iters = 0
    var exhausted = false
    while (!exhausted && math.abs(d) > p.thr && iters < p.maxIterations) {
      val (dMu, dSk) = step(d, modCase, p)
      val next = alpha + dMu / form.k
      if (math.abs(next) > p.alphaBound) {
        // Eq. 2 bounds the leverage degree; the leverage effect is
        // exhausted — freeze α at the boundary and stop iterating.
        alpha = math.signum(next) * p.alphaBound
        exhausted = true
      } else {
        alpha = next
        sketch += dSk
        d *= p.eta // exact: Δμ̂ − Δsketch = −(1−η)D by construction
      }
      iters += 1
    }
    // §VII-B: sketch₀'s relaxed confidence interval is a modulation
    // boundary — the answer "could not be far away from it".
    val avg = math.max(sketch0 - p.te * p.e, math.min(sketch0 + p.te * p.e, form.muHat(alpha)))
    BlockResult(bm.block, bm.blockSize, avg, modCase,
      alpha = alpha, q = q, dev = dev, d0 = d0, iterations = iters, sketchFinal = sketch)
  }
}
