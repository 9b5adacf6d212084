package repro.core

import org.scalacheck.{Gen, Prop, Properties}

/** ScalaCheck properties for the leverage invariants (Theorems 2 and 3). */
object LeverageProps extends Properties("Leverage") {

  private val samplesGen: Gen[(List[Double], List[Double], Double)] = for {
    u <- Gen.choose(1, 25)
    v <- Gen.choose(1, 25)
    xs <- Gen.listOfN(u, Gen.choose(60.0, 90.0))
    ys <- Gen.listOfN(v, Gen.choose(110.0, 140.0))
    q <- Gen.oneOf(0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0)
  } yield (xs, ys, q)

  property("normalized leverages sum to 1 (Theorem 2)") =
    Prop.forAll(samplesGen) { case (xs, ys, q) =>
      math.abs(ExplicitLeverage(xs, ys, q).leverageSum - 1.0) < 1e-9
    }

  property("probabilities sum to 1 for any α (Eq. 2)") =
    Prop.forAll(samplesGen, Gen.choose(-1.0, 1.0)) { case ((xs, ys, q), a) =>
      math.abs(ExplicitLeverage(xs, ys, q).probabilitySum(a) - 1.0) < 1e-9
    }

  property("region leverage masses satisfy Constraint 2") =
    Prop.forAll(samplesGen) { case (xs, ys, q) =>
      val e = ExplicitLeverage(xs, ys, q)
      val ratio = xs.map(e.leverageS).sum / ys.map(e.leverageL).sum
      math.abs(ratio - q * xs.size / ys.size) < 1e-6
    }

  property("Theorem 3's closed form equals the explicit 5-step path") =
    Prop.forAll(samplesGen, Gen.choose(-1.0, 1.0)) { case ((xs, ys, q), a) =>
      val explicit = ExplicitLeverage(xs, ys, q).muHat(a)
      val closed = Leverage.kc(RegionMoments.of(xs), RegionMoments.of(ys), q).muHat(a)
      math.abs(explicit - closed) < 1e-6
    }

  property("μ̂(0) = c is the uniform S∪L mean") =
    Prop.forAll(samplesGen) { case (xs, ys, q) =>
      val c = Leverage.kc(RegionMoments.of(xs), RegionMoments.of(ys), q).c
      math.abs(c - (xs.sum + ys.sum) / (xs.size + ys.size)) < 1e-9
    }

  property("moments fold is order-insensitive (sequence robustness)") =
    Prop.forAll(samplesGen, Gen.long) { case ((xs, ys, _), seed) =>
      val shuffled = new scala.util.Random(seed).shuffle(xs)
      val a = RegionMoments.of(xs)
      val b = RegionMoments.of(shuffled)
      a.n == b.n &&
        math.abs(a.sum - b.sum) < 1e-7 &&
        math.abs(a.sum2 - b.sum2) < 1e-4 &&
        math.abs(a.sum3 - b.sum3) < 1e-1
    }
}
