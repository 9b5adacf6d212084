package repro.baselines

import repro.core.{Boundaries, Region}

/** Driver-side reference MVB estimate over explicit samples. */
object ReferenceMvb {

  /** MVB estimate of explicit samples: Σ_reg (n_reg/m)·(Σa²/Σa). */
  def mvbOf(samples: Seq[Double], bounds: Boundaries): Double = {
    val m = samples.size.toDouble
    require(m > 0, "empty sample")
    Region.all.map { reg =>
      val in = samples.filter(a => bounds.classify(a) == reg)
      val s = in.sum
      if (s == 0) 0.0 else (in.size / m) * (in.map(a => a * a).sum / s)
    }.sum
  }
}
