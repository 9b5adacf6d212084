package repro.core

import repro.SparkSpec
import repro.baselines.{BaselineResult, MeasureBiased}

/** Fixed-seed pins of i.i.d. ISLA, MVB and [[PreEstimation.run]], as the
  * hex bits of every double, so that a change to how the pre-estimates are
  * resolved cannot change an answer. The input is [[CountedInput]]: its
  * values are N(−20, 30²), so ISLA's footnote-1 shift fires, while MVB
  * runs unshifted.
  */
class IslaPinSpec extends SparkSpec {

  private def hex(d: Double) = java.lang.Double.doubleToLongBits(d).toHexString

  private def pins(r: IslaResult): Seq[String] =
    Seq(s"answer ${hex(r.answer)} sketch0 ${hex(r.sketch0)} sigma ${hex(r.sigma)} rate ${hex(r.rate)} " +
      s"m ${r.dataSize} shift ${hex(r.shift)}") ++
      r.blocks.map(b => s"block ${b.block} ${b.blockSize} partial ${hex(b.avg)} ${b.modCase} alpha ${hex(b.alpha)} " +
        s"q ${hex(b.q)} dev ${hex(b.dev)} d0 ${hex(b.d0)} it ${b.iterations} sketch ${hex(b.sketchFinal)}")

  private def pins(r: BaselineResult): Seq[String] =
    s"answer ${hex(r.answer)}" +: r.partials.map { case (b, avg) => s"block $b partial ${hex(avg)}" }

  private def pins(pr: BlockPre): String =
    s"pre ${pr.block} ${pr.size} sigma ${hex(pr.sigma)} sketch0 ${hex(pr.sketch0)} min ${hex(pr.pilotMin)}"

  /** Recorded from the implementation that resolved the one scan in stages. */
  private val expected: Map[String, String] = Map(
    "ISLA" -> """
        |answer c0334309762405ec sketch0 c033bc179f359d3f sigma 403e06d3a6fb7cec rate 3fbddae357cc5b64 m 29703 shift 4061137d5ba98351
        |block 0 5941 partial 405db3749b35ed57 Case3 alpha 3f8c4f2b52c16a5c q 4024000000000000 dev 3feb6132a7041b61 d0 40028f938f3c0720 it 3 sketch 405da0e507a6b150
        |block 1 5941 partial 405cac69611b21e8 Case2 alpha 3f9028b1bbacdc78 q 3fb999999999999a dev 3ff2a6c405d9f739 d0 c004f8eaffc8f280 it 3 sketch 405cc1624c1aeadb
        |block 2 5446 partial 405dcda8e9acc155 Case3 alpha 3f91d105bb07eacd q 4024000000000000 dev 3feb101767dce435 d0 40067fc6a4c9e4c0 it 3 sketch 405db7292307f771
        |block 3 5940 partial 405d3620ddfd6e7d Case1 alpha 0 q 3ff0000000000000 dev 3fef50c522397f51 d0 bf9d3f18830d5000 it 0 sketch 405d37f4cf859f52
        |block 4 5940 partial 405d4bdaa1a3293f Case3 alpha 0 q 4014000000000000 dev 3fee578b464ceec2 d0 3fd3e5d21d89ed00 it 0 sketch 405d37f4cf859f52
        |block 5 495 partial 405dc8ab063c2d45 Case3 alpha 3f93cdd69a7eb1b8 q 4024000000000000 dev 3fe5555555555555 d0 4005bfb8758da940 it 3 sketch 405db2eb4dc69f9c""",
    "override" -> """
        |answer c033f862b8e11bc8 sketch0 c034791f970611ce sigma 403e7e030833b34b rate 3fc999999999999a m 29703 shift 4066799d4ae2b0b2
        |block 0 5941 partial 40641405c9e7ebce Case3 alpha 3f814524b3b0e3ec q 4024000000000000 dev 3fee0eb8d7ec5ee0 d0 3ff846a0bb3c8e00 it 2 sketch 406407e2798a4d87
        |block 1 5941 partial 4063f2e2ffba1757 Case3 alpha 0 q 3ff0000000000000 dev 3fef937f26fe4dfd d0 3fd0d34f7051be00 it 0 sketch 4063ea795801ee78
        |block 2 5446 partial 4063e0821d50b646 Case2 alpha 0 q 3ff0000000000000 dev 3ff0387f1e0387f2 d0 bfd3ee7562706400 it 0 sketch 4063ea795801ee78
        |block 3 5940 partial 4063fe28fc7c8c53 Case3 alpha 3f69947cebe43c5b q 4014000000000000 dev 3fee9f1d2505838b d0 3fe5c7d14d6adf00 it 1 sketch 4063f34513d5d6e3
        |block 4 5940 partial 4064066ca09580bc Case3 alpha 3f6c257f21447bc3 q 4024000000000000 dev 3fecedc5598f7482 d0 3feeec8b77fb3700 it 1 sketch 4063f6f65ad98320
        |block 5 495 partial 40638a795801ee78 Case2 alpha 3fa2d3fd73424283 q 3fb999999999999a dev 3ff79e79e79e79e8 d0 c0172da1018c6e60 it 4 sketch 40635e11dd541190""",
    "MVB" -> """
        |answer c0329637e54d2599
        |block 0 partial c03393329c9d9bf6
        |block 1 partial c032157633e7eb34
        |block 2 partial c0322afe1d9a2efa
        |block 3 partial c0312e7ebb1d3f48
        |block 4 partial c033a1fbe1149d57
        |block 5 partial c03592ba0ef0dfd8""",
    "PreEstimation.run" -> """
        |pre 0 29703 sigma 403d9334d843fb9b sketch0 c035769d0e2ddcc4 min c06143315cae033e""",
  ).map { case (k, v) => k -> v.stripMargin.trim }

  test("i.i.d. ISLA, MVB and PreEstimation.run are bit-identical to their recorded answers") {
    val df = CountedInput(spark, contiguous = false).cache()
    try {
      val sizes = Moments.blockSizes(df)
      val p = IslaParams(e = 1.0)
      def check(name: String, got: Seq[String]) = assert(got.mkString("\n") == expected(name), name)
      // Replayed from the one scan, and, at fusedCap 0, each pass run on its own.
      for (cap <- Seq(PreEstimation.fusedCap.value, 0.0); given <- Seq(true, false))
        PreEstimation.fusedCap.withValue(cap) {
          check("ISLA", pins(Isla.run(df, "value", p, Option.when(given)(sizes), seed = 101)))
          check("override",
            pins(Isla.run(df, "value", p.copy(rateOverride = Some(0.2)), Option.when(given)(sizes), seed = 102)))
          check("MVB", pins(MeasureBiased.runMVB(df, "value", 0.2, p, Option.when(given)(sizes), seed = 103)))
          check("PreEstimation.run", Seq(pins(PreEstimation.run(df, "value", sizes.values.sum, p, seed = 104))))
        }
    } finally { df.unpersist(); () }
  }
}
