package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** Unit tests for the normal-distribution math behind Eq. 1. */
class GaussianSpec extends AnyFunSuite {

  private val rnd = new scala.util.Random(1)

  test("cdf at 0 is 1/2") { assert(math.abs(Gaussian.cdf(0.0) - 0.5) < 1e-7) }

  test("cdf at +1.96 matches the 97.5th percentile") {
    assert(math.abs(Gaussian.cdf(1.959964) - 0.975) < 1e-6)
  }

  test("cdf at -1.96 matches the 2.5th percentile") {
    assert(math.abs(Gaussian.cdf(-1.959964) - 0.025) < 1e-6)
  }

  test("cdf at 1 matches the 3-sigma-rule table") {
    assert(math.abs(Gaussian.cdf(1.0) - 0.8413447) < 1e-6)
  }

  test("cdf at 2 matches the 3-sigma-rule table (4.6% beyond ±2σ)") {
    assert(math.abs(Gaussian.cdf(2.0) - 0.9772499) < 1e-6)
  }

  test("cdf at 3 matches the 3-sigma-rule table") {
    assert(math.abs(Gaussian.cdf(3.0) - 0.9986501) < 1e-6)
  }

  test("cdf is symmetric: Φ(-x) = 1 - Φ(x)") {
    (1 to 200).foreach { _ =>
      val x = rnd.nextDouble() * 12 - 6
      assert(math.abs(Gaussian.cdf(-x) - (1.0 - Gaussian.cdf(x))) < 1e-7)
    }
  }

  test("cdf is monotone non-decreasing") {
    (1 to 200).foreach { _ =>
      val x = rnd.nextDouble() * 12 - 6
      val d = rnd.nextDouble()
      assert(Gaussian.cdf(x + d) >= Gaussian.cdf(x) - 1e-12)
    }
  }

  test("inverseCdf at 0.5 is 0") { assert(math.abs(Gaussian.inverseCdf(0.5)) < 1e-9) }

  test("inverseCdf at 0.975 is 1.95996") {
    assert(math.abs(Gaussian.inverseCdf(0.975) - 1.959964) < 1e-5)
  }

  test("inverseCdf at 0.995 is 2.5758") {
    assert(math.abs(Gaussian.inverseCdf(0.995) - 2.575829) < 1e-5)
  }

  test("inverseCdf at 0.9 is 1.28155") {
    assert(math.abs(Gaussian.inverseCdf(0.9) - 1.281552) < 1e-5)
  }

  test("inverseCdf is within 1e-12 of the published quantiles") {
    Seq(0.9 -> 1.2815515655446004, 0.95 -> 1.6448536269514722, 0.975 -> 1.959963984540054,
      0.995 -> 2.5758293035489004).foreach { case (p, z) =>
      assert(math.abs(Gaussian.inverseCdf(p) - z) <= 1e-12, s"p=$p: ${Gaussian.inverseCdf(p)} vs $z")
    }
  }

  test("inverseCdf lower-tail branch (p < 0.02425) agrees with cdf") {
    val x = Gaussian.inverseCdf(0.001)
    assert(math.abs(Gaussian.cdf(x) - 0.001) < 1e-6)
  }

  test("inverseCdf upper-tail branch agrees with cdf") {
    val x = Gaussian.inverseCdf(0.999)
    assert(math.abs(Gaussian.cdf(x) - 0.999) < 1e-6)
  }

  test("inverseCdf is antisymmetric: Φ⁻¹(1-p) = -Φ⁻¹(p)") {
    (1 to 200).foreach { _ =>
      val p = rnd.nextDouble() * 0.499 + 1e-6
      assert(math.abs(Gaussian.inverseCdf(1.0 - p) + Gaussian.inverseCdf(p)) < 1e-6)
    }
  }

  test("cdf∘inverseCdf roundtrips over (0,1)") {
    (1 to 200).foreach { _ =>
      val p = rnd.nextDouble() * (1 - 2e-6) + 1e-6
      assert(math.abs(Gaussian.cdf(Gaussian.inverseCdf(p)) - p) < 1e-6)
    }
  }

  test("inverseCdf rejects p outside (0,1)") {
    intercept[IllegalArgumentException](Gaussian.inverseCdf(0.0))
    intercept[IllegalArgumentException](Gaussian.inverseCdf(1.0))
    intercept[IllegalArgumentException](Gaussian.inverseCdf(-0.3))
  }

  test("twoSidedQuantile(0.95) is the textbook 1.96") {
    assert(math.abs(Gaussian.twoSidedQuantile(0.95) - 1.959964) < 1e-5)
  }

  test("twoSidedQuantile(0.8) is 1.28155") {
    assert(math.abs(Gaussian.twoSidedQuantile(0.8) - 1.281552) < 1e-5)
  }

  test("twoSidedQuantile(0.99) is 2.5758") {
    assert(math.abs(Gaussian.twoSidedQuantile(0.99) - 2.575829) < 1e-5)
  }

  test("twoSidedQuantile grows with confidence") {
    (1 to 100).foreach { _ =>
      val b = rnd.nextDouble() * 0.48 + 0.5
      val d = rnd.nextDouble() * 0.009 + 0.001
      assert(Gaussian.twoSidedQuantile(b + d) > Gaussian.twoSidedQuantile(b))
    }
  }

  test("twoSidedQuantile rejects invalid confidence") {
    intercept[IllegalArgumentException](Gaussian.twoSidedQuantile(0.0))
    intercept[IllegalArgumentException](Gaussian.twoSidedQuantile(1.0))
  }
}
