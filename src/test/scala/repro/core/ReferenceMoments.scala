package repro.core

/** Driver-side reference implementation of Algorithm 1 over explicit
  * samples — pins the semantics of the Spark moment pass.
  */
object ReferenceMoments {

  /** S and L moments of `samples`; TS, N and TL samples are dropped. */
  def fromSamples(samples: Seq[Double], bounds: Boundaries): (RegionMoments, RegionMoments) =
    samples.foldLeft((RegionMoments.empty, RegionMoments.empty)) { case ((s, l), a) =>
      if (bounds.isS(a)) (s.add(a), l)
      else if (bounds.isL(a)) (s, l.add(a))
      else (s, l) // "Drop a" — TS, N, TL samples leave no trace
    }
}
