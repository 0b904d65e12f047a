package repro.core

import org.apache.spark.sql.catalyst.expressions.{BoundReference, SpecificInternalRow}
import org.apache.spark.sql.types.DoubleType
import org.scalatest.funsuite.AnyFunSuite

import repro.spark.ReproSum

/** The bytes of the serialized states, pinned. The round-trip tests cannot
  * see a change of the format or of the canonical state that both the
  * writer and the reader make; these images can. Each holds fixed values at
  * L=2: ordinary ones, then the same plus a huge value (its sidecar image
  * follows in place) or an infinity (the non-finite flag and side sum).
  */
class StateImageSpec extends AnyFunSuite {
  private def hex(b: Array[Byte]): String = b.map(x => f"${x & 0xff}%02x").mkString

  private val plainD = Seq(1.0, 2.5, -0.375, 1e-3, 12345.678, -7.0e-9)
  private val plainF = Seq(1.0f, 2.5f, -0.375f, 1e-3f, 12345.678f, -7.0e-9f)
  private val extraD = Seq("plain" -> Seq.empty[Double], "huge" -> Seq(1.0e300), "-Inf" -> Seq(Double.NegativeInfinity))
  private val extraF = Seq("plain" -> Seq.empty[Float], "huge" -> Seq(3.0e37f), "+Inf" -> Seq(Float.PositiveInfinity))

  // Written by the binary32 float kernel and the double kernel before they
  // became one; the shared kernel must write the same bytes.
  private val imagesD = Map(
    "plain" ->
      ("0000000200000028000000000000000000427800000303ccdd3ff8002f18beb3" +
       "1d0000000000000000000000000000000000000000"),
    "huge" ->
      ("0000000200000028000000000000000000427800000303ccdd3ff8002f18beb3" +
       "1d000000000000000000000000000000000000003500000002000001b8000000" +
       "0000000000005b7800000000017e58f80043c880075a00000000000000000000" +
       "00000000000000000000"),
    "-Inf" ->
      ("000000020000002801fff0000000000000427800000303ccdd3ff8002f18beb3" +
       "1d0000000000000000000000000000000000000000"))

  private val imagesF = Map(
    "plain" ->
      ("0000000200000024000000000051c0000248de079a0000000000000000ffffff" +
       "ffffffffff00000000"),
    "huge" ->
      ("0000000200000024000000000051c0000248de079a0000000000000000ffffff" +
       "ffffffffff000000290000000200000048000000000063c0b48e5ac148000000" +
       "000000000000000000000000000000000000"),
    "+Inf" ->
      ("0000000200000024017f80000051c0000248de079a0000000000000000ffffff" +
       "ffffffffff00000000"))

  test("ReproDouble.serialize images are pinned") {
    for ((name, extra) <- extraD) {
      val st = new ReproDouble(2)
      (plainD ++ extra).foreach(st.add)
      assert(hex(st.serialize()) == imagesD(name), name)
    }
  }

  test("BufferedReproDouble.serialize images are pinned") {
    for ((name, extra) <- extraD) {
      val st = new BufferedReproDouble(2, 16)
      (plainD ++ extra).foreach(st.add)
      assert(hex(st.serialize()) == "0000000200000010" + imagesD(name), name)
    }
  }

  test("ReproSum.serialize images (Spark's shuffle image) are pinned") {
    val agg = ReproSum(BoundReference(0, DoubleType, nullable = false), 2, 16)
    val row = new SpecificInternalRow(Seq(DoubleType))
    for ((name, extra) <- extraD) {
      val vals = plainD ++ extra
      val st = agg.createAggregationBuffer()
      vals.foreach { v => row.setDouble(0, v); agg.update(st, row) }
      val image = agg.serialize(st)
      assert(hex(image) == f"${vals.size.toLong}%016x" + "0000000200000010" + imagesD(name), name)
      assert(hex(agg.serialize(agg.deserialize(image))) == hex(image), s"$name: deserialize, then serialize")
    }
  }

  test("ReproFloat.serialize images are pinned") {
    for ((name, extra) <- extraF) {
      val st = new ReproFloat(2)
      (plainF ++ extra).foreach(st.add)
      assert(hex(st.serialize()) == imagesF(name), name)
    }
  }

  // Four ways to reach a NaN side sum, whose NaN bits differ: a negative
  // NaN, the positive `NaN` constant, and Inf + -Inf in both orders.
  private val nansD = Seq(
    Seq(java.lang.Double.longBitsToDouble(0xfff8000000000000L)), Seq(Double.NaN),
    Seq(Double.PositiveInfinity, Double.NegativeInfinity), Seq(Double.NegativeInfinity, Double.PositiveInfinity))
  private val nansF = Seq(
    Seq(java.lang.Float.intBitsToFloat(0xffc00000)), Seq(Float.NaN),
    Seq(Float.PositiveInfinity, Float.NegativeInfinity), Seq(Float.NegativeInfinity, Float.PositiveInfinity))

  /** For each of `nans`, the images of three states that hold `plain ++
    * nan`: fed directly, merged into an empty state, and a state fed only
    * `nan` merged into one fed `plain`.
    */
  private def nanImages[V, S](plain: Seq[V], nans: Seq[Seq[V]], make: () => S, add: (S, V) => Unit,
                              merge: (S, S) => Unit, image: S => Array[Byte]): Seq[String] = {
    def fed(xs: Seq[V]): S = { val st = make(); xs.foreach(add(st, _)); st }
    nans.flatMap { nan =>
      val direct = fed(plain ++ nan)
      val intoEmpty = make()
      merge(intoEmpty, direct)
      val intoPlain = fed(plain)
      merge(intoPlain, fed(nan))
      Seq(direct, intoEmpty, intoPlain).map(s => hex(image(s)))
    }
  }

  private def oneCanonicalImage(images: Seq[String], sideSum: String): Unit = {
    assert(images.distinct.size == 1, images.distinct.mkString("\n"))
    assert(images.head.contains("01" + sideSum), images.head)
  }

  test("ReproDouble.serialize writes one image for a NaN state, before and after a merge") {
    oneCanonicalImage(nanImages[Double, ReproDouble](plainD, nansD, () => new ReproDouble(2),
      _.add(_), _.merge(_), _.serialize()), "7ff8000000000000")
  }

  test("BufferedReproDouble.serialize writes one image for a NaN state, before and after a merge") {
    oneCanonicalImage(nanImages[Double, BufferedReproDouble](plainD, nansD, () => new BufferedReproDouble(2, 16),
      _.add(_), _.merge(_), _.serialize()), "7ff8000000000000")
  }

  test("ReproFloat.serialize writes one image for a NaN state, before and after a merge") {
    oneCanonicalImage(nanImages[Float, ReproFloat](plainF, nansF, () => new ReproFloat(2),
      _.add(_), _.merge(_), _.serialize()), "7fc00000")
  }
}
