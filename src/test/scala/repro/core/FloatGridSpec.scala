package repro.core

import java.util.Arrays

import scala.util.Random

import org.scalatest.funsuite.AnyFunSuite

import repro.FullDomain

/** Float RSUM runs in double arithmetic over float's grid (see [[RsumD]]).
  * Differential tests against the binary32 reference [[RsumFRef]]: the
  * scalar add, the batched kernel, merge trees and eval must give its
  * state (running sums narrowed to float, carries, frame) and its value,
  * bit for bit, over the whole float domain.
  */
class FloatGridSpec extends AnyFunSuite {
  import ExactSum.bitsF
  import FpF.{E1MIN, ELMIN, M, W}

  private type Ref = (Array[Float], Array[Long], Int)
  private type St  = (Array[Double], Array[Long], Int)

  private def emptyRef(l: Int): Ref = (new Array[Float](l), new Array[Long](l), RsumFRef.EMPTY)
  private def emptySt(l: Int): St   = (new Array[Double](l), new Array[Long](l), RsumD.EMPTY)

  private def refAdd(l: Int, r: Ref, vals: Seq[Float]): Ref = {
    val (s, c) = (r._1.clone, r._2.clone)
    (s, c, vals.foldLeft(r._3)((e1, v) => RsumFRef.add(s, c, 0, l, e1, v)))
  }

  private def add(l: Int, st: St, vals: Seq[Float]): St = {
    val (s, c) = (st._1.clone, st._2.clone)
    (s, c, vals.foldLeft(st._3)((e1, v) => RsumD.add(s, c, 0, l, e1, v.toDouble, M, W, E1MIN, ELMIN)))
  }

  /** The reference's state, and its value, bit for bit. */
  private def same(l: Int, r: Ref, st: St): Boolean = {
    val narrowed = st._1.map(_.toFloat)
    val exact = st._1.indices.forall(i => narrowed(i).toDouble == st._1(i))
    val value = bitsF(RsumFRef.eval(r._1.clone, r._2.clone, 0, l, r._3)) ==
      bitsF(RsumD.eval(st._1.clone, st._2.clone, 0, l, st._3, M, W, ELMIN).toFloat)
    exact && r._3 == st._3 && Arrays.equals(r._1, narrowed) && Arrays.equals(r._2, st._2) && value
  }

  private def sign(r: Random): Float = if (r.nextBoolean()) 1f else -1f

  /** Value classes of the float domain below the huge threshold. */
  private val domains: Seq[(String, Random => Float)] = Seq(
    "±0 and subnormals" -> { r =>
      if (r.nextInt(4) == 0) sign(r) * 0f else (r.nextInt(2001) - 1000) * Float.MinPositiveValue },
    "mixed magnitudes" -> { r => (r.nextFloat() * 2 - 1) * math.pow(2.0, r.nextInt(80) - 40).toFloat },
    "a tight frame, [2048, 4096)" -> { r => 2048f + 2048f * r.nextFloat() },
    "just below 2^120" -> { r =>
      if (r.nextInt(8) == 0) sign(r) * Math.nextDown(ReproFloat.HugeThreshold)
      else sign(r) * math.scalb(1f + r.nextFloat(), 100 + r.nextInt(19)) },
    "all of these" -> { r =>
      r.nextInt(5) match {
        case 0 => sign(r) * 0f
        case 1 => (r.nextInt(2001) - 1000) * Float.MinPositiveValue
        case 2 => sign(r) * (2048f + 2048f * r.nextFloat())
        case 3 => sign(r) * math.scalb(1f + r.nextFloat(), r.nextInt(245) - 126)
        case _ => Math.nextDown(ReproFloat.HugeThreshold) * sign(r)
      } })

  for (l <- 1 to 4; ((name, draw), di) <- domains.zipWithIndex) {
    test(s"L=$l, $name: scalar add, batched run, merge trees and eval == binary32 RSUM") {
      val r = new Random(1000L * l + di)
      // Past two block boundaries of the batched kernel (4096 values).
      val vals = Array.fill(9000)(draw(r))
      val ref = refAdd(l, emptyRef(l), vals.toSeq)
      assert(same(l, ref, add(l, emptySt(l), vals.toSeq)), "scalar add")

      val k = new RsumBatchD(l)
      for (maxLen <- Seq(1, 7, 64, 5000, vals.length)) {
        val (s, c) = (new Array[Double](l), new Array[Long](l))
        var e1 = RsumD.EMPTY
        var i = 0
        while (i < vals.length) {
          val len = math.min(1 + r.nextInt(maxLen), vals.length - i)
          e1 = k.run(vals, i, len, s, c, 0, e1)
          assert(e1 != RsumBatchD.OutOfRange)
          i += len
        }
        assert(same(l, ref, (s, c, e1)), s"batched, chunks up to $maxLen")
      }

      // A random merge tree over 9 parts, each merge checked against the
      // reference's (which consumes its B, so it gets a copy).
      for (tree <- 1 to 3) {
        val parts = vals.groupBy(_ => r.nextInt(9)).values.toVector
        var refs = parts.map(p => refAdd(l, emptyRef(l), p.toSeq)) :+ emptyRef(l)
        var sts  = parts.map(p => add(l, emptySt(l), p.toSeq)) :+ emptySt(l)
        while (refs.length > 1) {
          val a = r.nextInt(refs.length)
          val b = (a + 1 + r.nextInt(refs.length - 1)) % refs.length
          val (ra, rb) = (refs(a), refs(b))
          val (sa, sb) = (sts(a), sts(b))
          val refMerged = (ra._1, ra._2, RsumFRef.merge(ra._1, ra._2, 0, ra._3, rb._1.clone, rb._2.clone, 0, rb._3, l))
          val (bs, bc) = (sb._1.clone, sb._2.clone)
          val (ms, mc) = (sa._1.clone, sa._2.clone)
          val merged = (ms, mc, RsumD.merge(ms, mc, 0, sa._3, sb._1, sb._2, 0, sb._3, l, W, ELMIN))
          assert(Arrays.equals(bs, sb._1) && Arrays.equals(bc, sb._2), "merge wrote its B")
          assert(same(l, refMerged, merged), s"merge, tree $tree")
          refs = refs.patch(math.max(a, b), Nil, 1).updated(math.min(a, b), refMerged)
          sts  = sts.patch(math.max(a, b), Nil, 1).updated(math.min(a, b), merged)
        }
        assert(same(l, ref, sts.head), s"merge tree $tree == sequential")
      }
    }
  }

  /** `ReproFloat`'s routing on the reference arithmetic: huge values go to
    * a sidecar scaled by 2^-60, NaN and ±Inf to a float side sum.
    */
  private final class RefFloat(l: Int) {
    private val (s, c) = (new Array[Float](l), new Array[Long](l))
    private var e1 = RsumFRef.EMPTY
    private var nonFinite = 0f
    private var huge: RefFloat = _

    def add(b: Float): Unit =
      if (Math.abs(b) < ReproFloat.HugeThreshold) e1 = RsumFRef.add(s, c, 0, l, e1, b)
      else if (java.lang.Float.isFinite(b)) {
        if (huge == null) huge = new RefFloat(l)
        huge.add(b * ReproFloat.HugeScaleDown)
      } else nonFinite += b

    def value: Float =
      if (nonFinite.isNaN) Float.NaN
      else if (nonFinite != 0f) nonFinite
      else {
        val base = RsumFRef.eval(s, c, 0, l, e1)
        if (huge == null) base else Math.scalb(huge.value, ReproFloat.HugeScaleLog) + base
      }
  }

  test("ReproFloat.value == binary32 RSUM's on full-domain input, huge and non-finite values included") {
    for (l <- 1 to 4; seed <- 1L to 3L) {
      val (keys, vals) = FullDomain.floats(20000, 70L + seed)
      for ((key, rows) <- keys.indices.groupBy(keys)) {
        val (st, ref) = (new ReproFloat(l), new RefFloat(l))
        rows.foreach { i => st.add(vals(i)); ref.add(vals(i)) }
        assert(bitsF(st.value) == bitsF(ref.value), s"L=$l, seed=$seed, key=$key")
      }
    }
  }

  test("the carry term of eval overflows to ±Inf as binary32 RSUM's does") {
    // 512 values of -2^119 carry -2^128 at level 0 (e1 = 126), and one
    // 2^110 leaves a deviation beside it: float's -Inf, not the finite
    // -2^128 + 2^110.
    for (l <- 1 to 4) {
      val vals = Seq.fill(512)(-math.scalb(1f, 119)) :+ math.scalb(1f, 110)
      val (ref, st) = (refAdd(l, emptyRef(l), vals), add(l, emptySt(l), vals))
      assert(same(l, ref, st), s"L=$l")
      assert(RsumD.eval(st._1, st._2, 0, l, st._3, M, W, ELMIN).toFloat == Float.NegativeInfinity, s"L=$l")
    }
  }
}
