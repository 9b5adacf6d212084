package repro.core

/** The five data regions of §IV-A1 (Fig. 3). */
sealed abstract class Region(val name: String, val index: Int)
object Region {
  case object TS extends Region("TS", 0) // too small — discarded outlier
  case object S  extends Region("S", 1)  // small — participates, leverage 1−h
  case object N  extends Region("N", 2)  // normal — discarded (middle mass)
  case object L  extends Region("L", 3)  // large — participates, leverage h
  case object TL extends Region("TL", 4) // too large — discarded outlier
  val all: Seq[Region] = Seq(TS, S, N, L, TL) // in index order
}

/** Data boundaries (§IV-A1): `sketch₀ ± p₁σ` and `sketch₀ ± p₂σ` divide
  * the value axis into TS | S | N | L | TL.
  *
  *  - TS: (−∞, sketch₀ − p₂σ]
  *  - S : (sketch₀ − p₂σ, sketch₀ − p₁σ)
  *  - N : [sketch₀ − p₁σ, sketch₀ + p₁σ]
  *  - L : (sketch₀ + p₁σ, sketch₀ + p₂σ)
  *  - TL: [sketch₀ + p₂σ, +∞)
  */
final case class Boundaries(sketch0: Double, sigma: Double, p1: Double, p2: Double) {
  require(sigma >= 0, s"sigma must be non-negative: $sigma")
  require(p1 > 0 && p1 < p2, s"need 0 < p1 < p2: p1=$p1 p2=$p2")

  /** TS/S split: sketch₀ − p₂σ. */ val lo2: Double = sketch0 - p2 * sigma
  /** S/N split: sketch₀ − p₁σ. */  val lo1: Double = sketch0 - p1 * sigma
  /** N/L split: sketch₀ + p₁σ. */  val hi1: Double = sketch0 + p1 * sigma
  /** L/TL split: sketch₀ + p₂σ. */ val hi2: Double = sketch0 + p2 * sigma

  /** Region of a scalar value (boundary inclusion per §IV-A1). */
  def classify(a: Double): Region =
    if (a <= lo2) Region.TS
    else if (a < lo1) Region.S
    else if (a <= hi1) Region.N
    else if (a < hi2) Region.L
    else Region.TL

  /** True iff `a` lies in the S region (strictly between lo2 and lo1). */
  def isS(a: Double): Boolean = a > lo2 && a < lo1

  /** True iff `a` lies in the L region (strictly between hi1 and hi2). */
  def isL(a: Double): Boolean = a > hi1 && a < hi2
}
