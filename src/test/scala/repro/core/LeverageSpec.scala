package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** Leverage math tests: the paper's Table II worked example digit by
  * digit, Theorem 2's constraint, Constraint 2, and the equivalence of
  * the appendix's explicit 5-step path with Theorem 3's closed form.
  */
class LeverageSpec extends AnyFunSuite {

  // Table II setting: sketch₀=6.2, p₁σ=1, p₂σ=3; S={4,5}, L={8}, q=1.
  private val ex = ExplicitLeverage(Seq(4.0, 5.0), Seq(8.0), q = 1.0)

  test("Table II: T = Σx²+Σy² = 105") { assert(ex.t == 105.0) }

  test("Table II: original leverage of 4 is 89/105") {
    assert(math.abs(ex.originalLeverageS(4.0) - 89.0 / 105.0) < 1e-12)
  }

  test("Table II: original leverage of 5 is 16/21") {
    assert(math.abs(ex.originalLeverageS(5.0) - 16.0 / 21.0) < 1e-12)
  }

  test("Table II: original leverage of 8 is 64/105") {
    assert(math.abs(ex.originalLeverageL(8.0) - 64.0 / 105.0) < 1e-12)
  }

  test("Table II: normalization factor for S is 169/70") {
    assert(math.abs(ex.facX - 169.0 / 70.0) < 1e-12)
  }

  test("Table II: normalization factor for L is 64/35") {
    assert(math.abs(ex.facY - 64.0 / 35.0) < 1e-12)
  }

  test("Table II: normalized leverage of 4 is 178/507") {
    assert(math.abs(ex.leverageS(4.0) - 178.0 / 507.0) < 1e-12)
  }

  test("Table II: normalized leverage of 5 is 160/507") {
    assert(math.abs(ex.leverageS(5.0) - 160.0 / 507.0) < 1e-12)
  }

  test("Table II: normalized leverage of 8 is 1/3") {
    assert(math.abs(ex.leverageL(8.0) - 1.0 / 3.0) < 1e-12)
  }

  test("Table II: probability of each sample at α=0.1 matches the Prob column") {
    assert(math.abs(ex.probS(4.0, 0.1) - (178.0 / 507.0 * 0.1 + 0.9 / 3.0)) < 1e-12)
    assert(math.abs(ex.probS(5.0, 0.1) - (160.0 / 507.0 * 0.1 + 0.9 / 3.0)) < 1e-12)
    assert(math.abs(ex.probL(8.0, 0.1) - (1.0 / 3.0 * 0.1 + 0.9 / 3.0)) < 1e-12)
  }

  test("Table II: the leverage-based answer at α=0.1 is ≈ 5.67 (paper's number)") {
    assert(math.abs(ex.muHat(0.1) - 5.67) < 0.01)
  }

  test("Theorem 2: normalized leverages sum to 1") {
    assert(math.abs(ex.leverageSum - 1.0) < 1e-12)
  }

  test("probabilities sum to 1 for any α") {
    Seq(0.0, 0.1, 0.5, 0.9, -0.2).foreach { a =>
      assert(math.abs(ex.probabilitySum(a) - 1.0) < 1e-12, s"alpha=$a")
    }
  }

  test("Constraint 2 with q=1: region leverage mass is proportional to counts") {
    val xs = Seq(4.0, 5.0); val ys = Seq(8.0)
    assert(math.abs(xs.map(ex.leverageS).sum - 2.0 / 3.0) < 1e-12)
    assert(math.abs(ys.map(ex.leverageL).sum - 1.0 / 3.0) < 1e-12)
  }

  test("Constraint 2 with q: levSum_S/levSum_L = q·u/v") {
    val rnd = new scala.util.Random(8)
    (1 to 100).foreach { _ =>
      val xs = Seq.fill(rnd.nextInt(8) + 2)(rnd.nextDouble() * 50 + 50)
      val ys = Seq.fill(rnd.nextInt(8) + 2)(rnd.nextDouble() * 50 + 110)
      val q = Seq(0.1, 0.2, 1.0, 5.0, 10.0)(rnd.nextInt(5))
      val e = ExplicitLeverage(xs, ys, q)
      val sS = xs.map(e.leverageS).sum
      val sL = ys.map(e.leverageL).sum
      assert(math.abs(sS / sL - q * xs.size / ys.size) < 1e-9, s"q=$q u=${xs.size} v=${ys.size}")
      assert(math.abs(sS + sL - 1.0) < 1e-9)
    }
  }

  test("μ̂(0) is the uniform S∪L answer c") {
    assert(math.abs(ex.muHat(0.0) - 17.0 / 3.0) < 1e-12)
  }

  test("Theorem 3 closed form matches the Table II example: μ̂ = kα + c") {
    val form = Leverage.kc(RegionMoments.of(Seq(4.0, 5.0)), RegionMoments.of(Seq(8.0)), 1.0)
    assert(math.abs(form.c - 17.0 / 3.0) < 1e-12)
    assert(math.abs(form.muHat(0.1) - ex.muHat(0.1)) < 1e-12)
  }

  test("Theorem 3 k for Table II is 756/253.5 + 512/192 − 17/3") {
    val form = Leverage.kc(RegionMoments.of(Seq(4.0, 5.0)), RegionMoments.of(Seq(8.0)), 1.0)
    val expected = 756.0 / 253.5 + 512.0 / 192.0 - 17.0 / 3.0
    assert(math.abs(form.k - expected) < 1e-12)
  }

  test("Theorem 3 equals the explicit path on random inputs and α") {
    val rnd = new scala.util.Random(9)
    (1 to 200).foreach { _ =>
      val xs = Seq.fill(rnd.nextInt(20) + 1)(rnd.nextDouble() * 40 + 60)
      val ys = Seq.fill(rnd.nextInt(20) + 1)(rnd.nextDouble() * 40 + 110)
      val q = Seq(0.1, 0.5, 1.0, 2.0, 5.0, 10.0)(rnd.nextInt(6))
      val alpha = rnd.nextDouble() * 2 - 1
      val explicit = ExplicitLeverage(xs, ys, q)
      val form = Leverage.kc(RegionMoments.of(xs), RegionMoments.of(ys), q)
      assert(math.abs(form.muHat(alpha) - explicit.muHat(alpha)) < 1e-7,
        s"u=${xs.size} v=${ys.size} q=$q alpha=$alpha")
    }
  }

  test("c is the sequence-insensitive uniform mean of the S∪L samples") {
    val rnd = new scala.util.Random(10)
    (1 to 100).foreach { _ =>
      val xs = Seq.fill(rnd.nextInt(10) + 1)(rnd.nextDouble() * 30 + 60)
      val ys = Seq.fill(rnd.nextInt(10) + 1)(rnd.nextDouble() * 30 + 110)
      val form = Leverage.kc(RegionMoments.of(xs), RegionMoments.of(ys), 1.0)
      val mean = (xs.sum + ys.sum) / (xs.size + ys.size)
      assert(math.abs(form.c - mean) < 1e-9)
    }
  }

  test("moments are permutation invariant, hence so is μ̂ (sampling-sequence insensitivity)") {
    val rnd = new scala.util.Random(11)
    val xs = Seq.fill(10)(rnd.nextDouble() * 30 + 60)
    val ys = Seq.fill(10)(rnd.nextDouble() * 30 + 110)
    val f1 = Leverage.kc(RegionMoments.of(xs), RegionMoments.of(ys), 1.0)
    val f2 = Leverage.kc(RegionMoments.of(rnd.shuffle(xs)), RegionMoments.of(rnd.shuffle(ys)), 1.0)
    assert(math.abs(f1.k - f2.k) < 1e-9 && math.abs(f1.c - f2.c) < 1e-9)
  }

  test("larger S-values get smaller leverages; larger L-values get larger ones (Fig. 4)") {
    val e = ExplicitLeverage(Seq(62.0, 75.0, 88.0), Seq(112.0, 125.0, 138.0), 1.0)
    assert(e.leverageS(62.0) > e.leverageS(75.0))
    assert(e.leverageS(75.0) > e.leverageS(88.0))
    assert(e.leverageL(112.0) < e.leverageL(125.0))
    assert(e.leverageL(125.0) < e.leverageL(138.0))
  }

  test("kc rejects empty regions") {
    intercept[IllegalArgumentException](
      Leverage.kc(RegionMoments.empty, RegionMoments.of(Seq(8.0)), 1.0))
    intercept[IllegalArgumentException](
      Leverage.kc(RegionMoments.of(Seq(4.0)), RegionMoments.empty, 1.0))
  }

  test("kc rejects non-positive q") {
    intercept[IllegalArgumentException](
      Leverage.kc(RegionMoments.of(Seq(4.0)), RegionMoments.of(Seq(8.0)), 0.0))
  }
}
