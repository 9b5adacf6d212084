package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** Tests of the modulation machinery (§V): case selection, q bands,
  * step-length relations, geometric convergence, the iteration bound,
  * and Algorithm 2's block solver.
  */
class ModulationSpec extends AnyFunSuite {

  private val p = IslaParams()

  // ---- q selection (§IV-A4 + the §VIII parameter list) ----

  test("q is 1 inside the inner dev band") {
    Seq(0.975, 0.99, 1.0, 1.01, 1.025).foreach { dev =>
      assert(p.chooseQ(dev) == 1.0, s"dev=$dev")
    }
  }

  test("q' = 5 in the middle band, applied as 5 when |S|<|L|") {
    assert(p.chooseQ(0.95) == 5.0)
    assert(p.chooseQ(0.945) == 5.0)
  }

  test("q' = 5 in the middle band, applied as 1/5 when |S|>|L|") {
    assert(p.chooseQ(1.05) == 0.2)
  }

  test("q' = 10 under severe deviation") {
    assert(p.chooseQ(0.5) == 10.0)
    assert(p.chooseQ(0.93) == 10.0)
    assert(math.abs(p.chooseQ(1.07) - 0.1) < 1e-12)
    assert(math.abs(p.chooseQ(3.0) - 0.1) < 1e-12)
  }

  test("q rejects non-positive dev") {
    intercept[IllegalArgumentException](p.chooseQ(0.0))
  }

  test("case-5 balance band is (0.99, 1.01)") {
    assert(p.isBalanced(1.0))
    assert(p.isBalanced(0.995) && p.isBalanced(1.005))
    assert(!p.isBalanced(0.99) && !p.isBalanced(1.01))
  }

  // ---- case selection (§V-C) ----

  test("Case 1 when D⁰<0 and |S|<|L|") {
    assert(Modulation.chooseCase(-0.5, 0.9, p) == ModulationCase.Case1)
  }

  test("Case 2 when D⁰<0 and |S|>|L|") {
    assert(Modulation.chooseCase(-0.5, 1.1, p) == ModulationCase.Case2)
  }

  test("Case 3 when D⁰>0 and |S|<|L|") {
    assert(Modulation.chooseCase(0.5, 0.9, p) == ModulationCase.Case3)
  }

  test("Case 4 when D⁰>0 and |S|>|L|") {
    assert(Modulation.chooseCase(0.5, 1.1, p) == ModulationCase.Case4)
  }

  test("Case 5 when |S| ≈ |L| regardless of D⁰") {
    assert(Modulation.chooseCase(0.5, 1.0, p) == ModulationCase.Case5)
    assert(Modulation.chooseCase(-0.5, 0.995, p) == ModulationCase.Case5)
  }

  test("Case 5 when D⁰ = 0") {
    assert(Modulation.chooseCase(0.0, 0.9, p) == ModulationCase.Case5)
  }

  // ---- step lengths (§V-C relations + §V-D λ rule) ----

  private def checkStep(d: Double, c: ModulationCase, pp: IslaParams,
                        expectedLambda: Double): (Double, Double) = {
    val (dMu, dSk) = Modulation.step(d, c, pp)
    // Every case must reduce D exactly to ηD: Δμ̂ − Δsketch = −(1−η)D.
    assert(math.abs((dMu - dSk) + (1 - pp.eta) * d) < 1e-12, s"case $c: D-reduction broken")
    // §V-D: the smaller magnitude equals λ times the larger.
    val (lo, hi) = (math.min(math.abs(dMu), math.abs(dSk)), math.max(math.abs(dMu), math.abs(dSk)))
    assert(math.abs(lo - expectedLambda * hi) < 1e-12, s"case $c: λ relation broken")
    (dMu, dSk)
  }

  test("κ(0.5, 2) ≈ −0.238 — the paper-default band-mean sensitivity") {
    assert(math.abs(Modulation.kappa(0.5, 2.0) + 0.238) < 0.001)
  }

  test("κ grows more negative as p₁ grows (Fig. 6d mechanism)") {
    val ks = Seq(0.25, 0.5, 0.75, 1.0, 1.25).map(Modulation.kappa(_, 2.0))
    assert(ks == ks.sorted.reverse, s"ks=$ks")
  }

  test("κ is clipped away from 1") {
    assert(Modulation.kappa(0.01, 0.02) <= 0.9)
  }

  test("Case 1 steps (always literal): both rise, μ̂ rises more (kδα > δsketch)") {
    val (dMu, dSk) = checkStep(-0.4, ModulationCase.Case1, p, p.lambda)
    assert(dMu > 0 && dSk > 0 && dMu > dSk)
  }

  test("Case 2 geometric steps: μ̂ rises slightly, sketch falls, λ = |κ|") {
    val lam = math.abs(Modulation.kappa(p.p1, p.p2))
    val (dMu, dSk) = checkStep(-0.4, ModulationCase.Case2, p, lam)
    assert(dMu > 0 && dSk < 0 && math.abs(dMu) < math.abs(dSk))
  }

  test("Case 3 geometric steps: μ̂ eases toward μ, sketch rises, λ = |κ|") {
    val lam = math.abs(Modulation.kappa(p.p1, p.p2))
    val (dMu, dSk) = checkStep(0.4, ModulationCase.Case3, p, lam)
    // With κ<0 the meeting point is below c: μ̂ falls while sketch rises.
    assert(dMu < 0 && dSk > 0 && math.abs(dMu) < math.abs(dSk))
  }

  test("Case 4 steps (always literal): both fall, μ̂ falls more") {
    val (dMu, dSk) = checkStep(0.4, ModulationCase.Case4, p, p.lambda)
    assert(dMu < 0 && dSk < 0 && math.abs(dMu) > math.abs(dSk))
  }

  test("Case 5 steps are zero") {
    assert(Modulation.step(0.4, ModulationCase.Case5, p) == ((0.0, 0.0)))
  }

  test("geometric steps drive the estimators to the Theorem-1 meeting point") {
    // With E[c] = μ + κδ and D⁰ = (κ−1)δ, full convergence must land on μ.
    val kap = Modulation.kappa(p.p1, p.p2)
    val mu = 100.0
    val delta = -0.3 // sketch₀ below μ
    val sketch0 = mu + delta
    val c = mu + kap * delta
    var d = c - sketch0
    var muHat = c; var sk = sketch0
    val mc = Modulation.chooseCase(d, if (delta > 0) 1.2 else 0.8, p)
    (1 to 60).foreach { _ =>
      val (dMu, dSk) = Modulation.step(d, mc, p)
      muHat += dMu; sk += dSk; d *= p.eta
    }
    assert(math.abs(muHat - mu) < 1e-6, s"muHat=$muHat")
    assert(math.abs(sk - mu) < 1e-6, s"sketch=$sk")
  }

  // ---- iteration bound (§VI-B) ----

  test("iteration bound t = ⌈log₂(|D⁰|/thr)⌉ with η = 1/2") {
    val pp = IslaParams(e = 0.02) // thr = e/2 = 0.01
    assert(Modulation.iterationBound(0.08, pp) == 3)  // 0.08→0.04→0.02→0.01
    assert(Modulation.iterationBound(0.005, pp) == 0) // already below thr
    assert(Modulation.iterationBound(-0.32, pp) == 5)
  }

  // ---- Algorithm 2: solveBlock ----

  /** Moments for an S/L sample with the given counts and value spreads. */
  private def mk(u: Int, v: Int, sMean: Double = 75.0, lMean: Double = 125.0): BlockMoments = {
    val rnd = new scala.util.Random(12)
    val xs = Seq.fill(u)(sMean + rnd.nextDouble() * 10 - 5)
    val ys = Seq.fill(v)(lMean + rnd.nextDouble() * 10 - 5)
    BlockMoments(0L, 1000L, RegionMoments.of(xs), RegionMoments.of(ys))
  }

  test("balanced block returns sketch₀ untouched (Case 5)") {
    val r = Modulation.solveBlock(mk(500, 500), sketch0 = 101.0, p)
    assert(r.modCase == ModulationCase.Case5)
    assert(r.avg == 101.0 && r.iterations == 0)
  }

  test("block with no S samples falls back to sketch₀") {
    val bm = BlockMoments(3L, 100L, RegionMoments.empty, RegionMoments.of(Seq(120.0)))
    val r = Modulation.solveBlock(bm, 99.5, p)
    assert(r.avg == 99.5 && r.modCase == ModulationCase.Case5)
  }

  test("block with no L samples falls back to sketch₀") {
    val bm = BlockMoments(3L, 100L, RegionMoments.of(Seq(80.0)), RegionMoments.empty)
    val r = Modulation.solveBlock(bm, 99.5, p)
    assert(r.avg == 99.5)
  }

  test("unbalanced block iterates until |D| ≤ thr and hits the §VI-B bound") {
    val bm = mk(400, 500)
    val sketch0 = 99.0
    val r = Modulation.solveBlock(bm, sketch0, p)
    assert(r.modCase != ModulationCase.Case5)
    assert(r.iterations == Modulation.iterationBound(r.d0, p), s"iters=${r.iterations} d0=${r.d0}")
    // After the loop the residual objective is below thr.
    val residual = r.d0 * math.pow(p.eta, r.iterations)
    assert(math.abs(residual) <= p.thr + 1e-12)
  }

  /** μ̂ = kα + c before the §VII-B clamp, recomputed from a solved block. */
  private def unclampedMuHat(bm: BlockMoments, r: BlockResult): Double =
    Leverage.kc(bm.s, bm.l, r.q).muHat(r.alpha)

  test("the two estimators converge: |μ̂ − sketch| ≤ thr after iteration (unclamped)") {
    val bm = mk(430, 500)
    val r = Modulation.solveBlock(bm, 99.2, p)
    val muHat = unclampedMuHat(bm, r)
    assert(math.abs(muHat - r.sketchFinal) <= p.thr + 1e-9,
      s"muHat=$muHat sketch=${r.sketchFinal}")
  }

  test("solved answer equals kα + c (Algorithm 2 line 12, unclamped)") {
    val bm = mk(430, 500)
    val sketch0 = 99.2
    val r = Modulation.solveBlock(bm, sketch0, p)
    val clamped = math.max(sketch0 - p.te * p.e, math.min(sketch0 + p.te * p.e, unclampedMuHat(bm, r)))
    assert(r.avg == clamped, s"avg=${r.avg} clamped kα + c=$clamped")
  }

  test("clamped partial stays inside sketch₀'s relaxed confidence interval (§VII-B)") {
    val bm = mk(200, 500) // severe imbalance → aggressive modulation
    val sketch0 = 99.0
    val r = Modulation.solveBlock(bm, sketch0, p)
    assert(r.avg >= sketch0 - p.te * p.e - 1e-12)
    assert(r.avg <= sketch0 + p.te * p.e + 1e-12)
  }

  test("Case 4 drives α negative (balancing unbalanced sampling)") {
    // D⁰>0 and |S|>|L|: c above sketch₀ with S-heavy counts.
    val bm = mk(520, 490, sMean = 80, lMean = 130)
    val form0 = Leverage.kc(bm.s, bm.l, p.chooseQ(bm.s.n.toDouble / bm.l.n))
    val sketch0 = form0.c - 0.5 // force D⁰ = +0.5
    val r = Modulation.solveBlock(bm, sketch0, p)
    assert(r.modCase == ModulationCase.Case4, s"case=${r.modCase}")
    // The leverage term kα must be negative: μ̂ is modulated downward.
    assert(form0.k * r.alpha < 0, s"alpha=${r.alpha} k=${form0.k}")
  }

  test("dev recorded as |S|/|L|") {
    val r = Modulation.solveBlock(mk(400, 500), 99.0, p)
    assert(math.abs(r.dev - 0.8) < 1e-12)
  }

  test("iteration respects the maxIterations guard") {
    val pp = IslaParams(e = 1e-100) // thr far below what 200 halvings of D⁰ reach
    val r = Modulation.solveBlock(mk(400, 500), 99.0, pp)
    assert(r.iterations == pp.maxIterations && pp.maxIterations == 200)
  }

  test("Theorem 3 preconditions reject zero square sums") {
    val s = RegionMoments(10L, 0.0, 1e-20, 0.0)
    intercept[IllegalArgumentException] {
      Leverage.kc(s, RegionMoments(10L, 0.0, 0.0, 0.0), 1.0)
    }
  }

  test("α is clamped to ±alphaBound when the leverage capacity is exhausted") {
    // Case 1 with a huge |D⁰| demands a μ̂ move far beyond what |k| can
    // deliver at |α| ≤ 1 — the loop must freeze α at the boundary.
    val bm = mk(400, 500)
    val r = Modulation.solveBlock(bm, sketch0 = 110.0, p)
    assert(r.modCase == ModulationCase.Case1)
    assert(math.abs(r.alpha) == p.alphaBound, s"alpha=${r.alpha}")
    assert(r.iterations < Modulation.iterationBound(r.d0, p), "should stop early")
  }

  test("solveBlock is deterministic") {
    val bm = mk(430, 500)
    val a = Modulation.solveBlock(bm, 99.2, p)
    val b = Modulation.solveBlock(bm, 99.2, p)
    assert(a == b)
  }
}
