package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.SparkSpec
import repro.data.Distributions

/** Fixed-seed pins of non-i.i.d. ISLA, as the hex bits of every double, so
  * that a change to how the passes are scanned cannot change an answer.
  */
class IslaNonIidPinSpec extends SparkSpec {

  /** The §VIII-D specs over 5 blocks of 4000 rows, laid out as
    * `Distributions.nonIidBlocks` lays them out (block = id % 5) or
    * contiguous, in exactly 4 partitions so that the rows and the samples
    * do not depend on the core count.
    */
  private def input(contiguous: Boolean): DataFrame = {
    val specs = Distributions.nonIidSpecs
    val block = if (contiguous) col("id") / 4000 else col("id") % specs.size
    val spec = (block + 1).cast("int")
    spark.range(0, 20000, 1, 4).select(
      (element_at(typedLit(specs.map(_._1)), spec) + element_at(typedLit(specs.map(_._2)), spec) * randn(81))
        .as("value"),
      block.cast("long").as("block"))
  }

  private def hex(d: Double) = java.lang.Double.doubleToLongBits(d).toHexString

  private def pins(r: IslaResult): Seq[String] =
    Seq(s"answer ${hex(r.answer)} rate ${hex(r.rate)} shift ${hex(r.shift)} sigma ${hex(r.sigma)} m ${r.dataSize}") ++
      r.blocks.map(b => s"block ${b.block} ${b.blockSize} partial ${hex(b.avg)}")

  private def pins(pr: BlockPre): String =
    s"pre ${pr.block} ${pr.size} sigma ${hex(pr.sigma)} sketch0 ${hex(pr.sketch0)} min ${hex(pr.pilotMin)}"

  /** Recorded from the three-pass implementation that the one scan
    * replaced, except the pooled `sigma` of "seed 92", "contiguous" and
    * "override": taken around the blocks' weighted mean, it moved by 2–5
    * ulps from the E[sⱼ²] − s̄² form, which rates and answers do not see.
    */
  private val expected: Map[String, String] = Map(
    "seed 91" -> """
        |answer 40592081069ecda2 rate 3fdf089a02752546 shift 40582141aafa35bc sigma 40491f51b44237ea m 20000
        |block 0 4000 partial 4068b393228f0a24
        |block 1 4000 partial 4062623beb45968d
        |block 2 4000 partial 4065fc3a6b9ebfaa
        |block 3 4000 partial 406ef1b5afa1c7d2
        |block 4 4000 partial 406b20a792e9603d""",
    "seed 92" -> """
        |answer 4059355418023958 rate 3fdf141205bc01a3 shift 4060570f5190a002 sigma 404923ce7203f102 m 20000
        |block 0 4000 partial 406d1211e3ea9a15
        |block 1 4000 partial 4066afb3c62fb492
        |block 2 4000 partial 406a2748d3df7bac
        |block 3 4000 partial 40719fdd67929f1c
        |block 4 4000 partial 406f8fd586b9a6dc""",
    "contiguous" -> """
        |answer 4058efa7d2648e8a rate 3fdded288ce703b0 shift 405f98c67aa06c98 sigma 4048ab96a19ed56c m 20000
        |block 0 4000 partial 406c1ebe2d0a8540
        |block 1 4000 partial 4065e0e576acb830
        |block 2 4000 partial 4069a553c9d7eae1
        |block 3 4000 partial 40714949653102d4
        |block 4 4000 partial 406f1d89889b45d9""",
    "override" -> """
        |answer 4058dcccd76fdda6 rate 3fc999999999999a shift 406065f7f882e42a sigma 4048e3659abbfb89 m 20000
        |block 0 4000 partial 406ce3d9062da861
        |block 1 4000 partial 40669304994024d2
        |block 2 4000 partial 406a2c0896b21d5a
        |block 3 4000 partial 40719c515ee43469
        |block 4 4000 partial 406f4a4f013dcb8f""",
    "preEstimate" -> """
        |pre 0 4000 sigma 4033d8cbd33c9947 sketch0 4058cd6726f3f106 min 404262065f2b406c
        |pre 1 4000 sigma 402420a3dea50960 sketch0 4048c77af6c80f26 min 4031d3f2e682e282
        |pre 2 4000 sigma 403d3fdb62cd9d99 sketch0 4053452eaa42a998 min c03571e0ff804e7c
        |pre 3 4000 sigma 404df8aef3e08f94 sketch0 4062dc8271f80b1a min c051af66c64a97b0
        |pre 4 4000 sigma 4043ef4619bcf7fc sketch0 405df33ba742f576 min c0350f86c7ac0700""",
  ).map { case (k, v) => k -> v.stripMargin.trim }

  test("non-i.i.d. ISLA and its pre-estimates are bit-identical to the three-pass implementation") {
    val df = input(false).cache()
    val contiguous = input(true).cache()
    try {
      val sizes = Moments.blockSizes(df)
      val p = IslaParams(e = 1.0)
      def check(name: String, got: Seq[String]) = assert(got.mkString("\n") == expected(name), name)
      for (seed <- Seq(91L, 92L); given <- Seq(true, false))
        check(s"seed $seed", pins(IslaNonIid.run(df, "value", p, Option.when(given)(sizes), seed = seed)))
      for (given <- Seq(true, false))
        check("contiguous", pins(IslaNonIid.run(contiguous, "value", p, Option.when(given)(sizes), seed = 95)))
      check("override", pins(IslaNonIid.run(df, "value", p.copy(rateOverride = Some(0.2)), Some(sizes), seed = 93)))
      check("preEstimate", IslaNonIid.preEstimate(df, "value", sizes, p, seed = 94).map(pins))
    } finally { df.unpersist(); contiguous.unpersist(); () }
  }
}
