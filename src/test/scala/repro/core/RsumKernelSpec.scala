package repro.core

import java.util.Arrays

import org.scalatest.funsuite.AnyFunSuite

/** The batched kernel called directly: the unrolled lanes' tails, the
  * single-level path and the block boundaries are tested here, against
  * the scalar kernel on the same state: `RsumD.add` for doubles and the
  * binary32 reference `RsumFRef.add` for floats (the float states are
  * widened for the kernel and must narrow back exactly). In the test
  * names, `RsumBatchF.run` is the kernel's float entry point and
  * `RsumF.add` the reference: the names are kept from when each was a
  * class of its own, so that results stay comparable across versions.
  */
class RsumKernelSpec extends AnyFunSuite {
  import ExactSum._

  private type StateD = (Array[Double], Array[Long], Int)
  private type StateF = (Array[Float], Array[Long], Int)

  private def scalarD(l: Int, st: StateD, vals: Array[Double]): StateD = {
    val (s, c) = (st._1.clone, st._2.clone)
    (s, c, vals.foldLeft(st._3)((e1, v) => RsumD.add(s, c, 0, l, e1, v)))
  }

  private def batchD(k: RsumBatchD, st: StateD, vals: Array[Double]): StateD = {
    val (s, c) = (st._1.clone, st._2.clone)
    (s, c, k.run(vals, 0, vals.length, s, c, 0, st._3))
  }

  private def scalarF(l: Int, st: StateF, vals: Array[Float]): StateF = {
    val (s, c) = (st._1.clone, st._2.clone)
    (s, c, vals.foldLeft(st._3)((e1, v) => RsumFRef.add(s, c, 0, l, e1, v)))
  }

  private def batchF(k: RsumBatchD, st: StateF, vals: Array[Float]): StateF = {
    val (s, c) = (st._1.map(_.toDouble), st._2.clone)
    val e1 = k.run(vals, 0, vals.length, s, c, 0, st._3)
    assert(s.forall(x => x.toFloat.toDouble == x), "sums off float's grid")
    (s.map(_.toFloat), c, e1)
  }

  private def sameD(a: StateD, b: StateD): Boolean =
    a._3 == b._3 && Arrays.equals(a._1, b._1) && Arrays.equals(a._2, b._2)

  private def sameF(a: StateF, b: StateF): Boolean =
    a._3 == b._3 && Arrays.equals(a._1, b._1) && Arrays.equals(a._2, b._2)

  /** The empty state, and one holding three values far below the batches'
    * own, so the batch demotes the loaded state.
    */
  private def startsD(l: Int): Seq[StateD] = {
    val empty = (new Array[Double](l), new Array[Long](l), RsumD.EMPTY)
    Seq(empty, scalarD(l, empty, mixedMagnitudeVals(3, 401).map(_ * 1e-12)))
  }

  private def startsF(l: Int): Seq[StateF] = {
    val empty = (new Array[Float](l), new Array[Long](l), RsumD.EMPTY)
    Seq(empty, scalarF(l, empty, mixedMagnitudeVals(3, 402).map(v => (v * 1e-12).toFloat)))
  }

  for (l <- 1 to 4) {
    val top = 2 * 64 + 1
    test(s"L=$l: RsumBatchF.run == scalar RsumF.add at every length 1..$top") {
      val k = new RsumBatchD(l)
      for (n <- 1 to top; start <- startsF(l); late <- Seq(false, true)) {
        val vals = mixedMagnitudeVals(n, 411 + n).map(v => (v * 1e-6).toFloat)
        if (late) vals(n - 1) = 3.0e9f // raises the frame in the last block
        assert(sameF(batchF(k, start, vals), scalarF(l, start, vals)), s"n=$n, late=$late, e1=${start._3}")
      }
    }

    val nb = FpD.V * FpD.NB
    val lens = (1 to 2 * FpD.V + 1) ++ Seq(nb - 1, nb, nb + 1, 2 * nb - 1, 2 * nb, 2 * nb + 1)
    test(s"L=$l: RsumBatchD.run == scalar RsumD.add around V, V*NB and 2*V*NB, frame raised in a later block") {
      val k = new RsumBatchD(l)
      for (n <- lens; start <- startsD(l); late <- Seq(false, true)) {
        val vals = mixedMagnitudeVals(n, 421 + n).map(_ * 1e-6)
        if (late) vals(n - 1) = math.pow(2.0, 45)
        assert(sameD(batchD(k, start, vals), scalarD(l, start, vals)), s"n=$n, late=$late, e1=${start._3}")
      }
    }
  }

  // Same-sign values just below the frame's limit move every lane by up to
  // ufp / 8 per block, the most the frame admits, so the lane sums the
  // horizontal merge adds span the widest range. A tight frame: [2048, 4096)
  // floats and [2^26, 2^27) doubles each need e1 = W exactly.
  for (l <- 1 to 4) {
    val nf = 64
    test(s"L=$l: RsumBatchF.run == scalar RsumF.add on same-sign values of a tight frame, ${2 * nf}..${8 * nf} values") {
      val k = new RsumBatchD(l)
      val rnd = new scala.util.Random(441 + l)
      for (n <- 2 * nf to 8 * nf; start <- startsF(l); sign <- Seq(1f, -1f)) {
        val vals = Array.fill(n)(sign * (2048f + 2048f * rnd.nextFloat()))
        assert(sameF(batchF(k, start, vals), scalarF(l, start, vals)), s"n=$n, sign=$sign, e1=${start._3}")
      }
    }

    val nd = FpD.V * FpD.NB
    test(s"L=$l: RsumBatchD.run == scalar RsumD.add on same-sign values of a tight frame") {
      val k = new RsumBatchD(l)
      val rnd = new scala.util.Random(451 + l)
      for (n <- Seq(2 * nd, 3 * nd + 1, 4 * nd - 1, 8 * nd); start <- startsD(l); sign <- Seq(1.0, -1.0)) {
        val vals = Array.fill(n)(sign * math.scalb(1.0 + rnd.nextDouble(), 26))
        assert(sameD(batchD(k, start, vals), scalarD(l, start, vals)), s"n=$n, sign=$sign, e1=${start._3}")
      }
    }
  }

  test("blocks of zeros before, between and after values, and only zeros") {
    for (l <- 1 to 4) {
      val (nd, nf) = (FpD.V * FpD.NB, 64)
      val vd = new Array[Double](5 * nd)
      Array(nd + 3, 3 * nd + 1).foreach(i => vd(i) = 1.5e-3 * i)
      val vf = new Array[Float](5 * nf)
      Array(nf + 3, 3 * nf + 1).foreach(i => vf(i) = 1.5e-3f * i)
      val kd = new RsumBatchD(l)
      val kf = new RsumBatchD(l)
      for (start <- startsD(l); n <- Seq(2 * nd, 5 * nd)) {
        val v = vd.take(n)
        assert(sameD(batchD(kd, start, v), scalarD(l, start, v)), s"L=$l, n=$n, e1=${start._3}")
      }
      for (start <- startsF(l); n <- Seq(2 * nf, 5 * nf)) {
        val v = vf.take(n)
        assert(sameF(batchF(kf, start, v), scalarF(l, start, v)), s"L=$l, n=$n, e1=${start._3}")
      }
      val empty = startsD(l).head
      assert(batchD(kd, empty, new Array[Double](3 * nd))._3 == RsumD.EMPTY)
      assert(batchF(kf, startsF(l).head, new Array[Float](3 * nf))._3 == RsumD.EMPTY)
    }
  }

  // At the first value, in the tail after the last full group of V lanes
  // (n = 19), and past the first `tile` values (past the kernel's first
  // block for `tile = V * NB`).
  private def placements(tile: Int): Seq[(Int, Int)] = Seq((20, 0), (19, 17), (tile + 20, tile + 5))

  test("RsumBatchD.run refuses huge, ±Inf and NaN values and leaves the caller's state untouched") {
    val specials = Seq(ReproDouble.HugeThreshold, math.pow(2.0, 1000), -Double.MaxValue,
                       Double.PositiveInfinity, Double.NegativeInfinity, Double.NaN)
    val k = new RsumBatchD(2)
    for (sp <- specials; (n, at) <- placements(FpD.V * FpD.NB); start <- startsD(2)) {
      val vals = Array.fill(n)(1.5)
      vals(at) = sp
      val (s, c) = (start._1.clone, start._2.clone)
      assert(k.run(vals, 0, n, s, c, 0, start._3) == RsumBatchD.OutOfRange, s"$sp at $at of $n")
      assert(Arrays.equals(s, start._1) && Arrays.equals(c, start._2), s"$sp at $at of $n")

      val pre = if (start._3 == RsumD.EMPTY) Seq.empty[Double] else Seq(2.5, -0.75)
      val (st, ref) = (new ReproDouble(2), new ReproDouble(2))
      pre.foreach { v => st.add(v); ref.add(v) }
      st.addBatch(vals, 0, n, k)
      vals.foreach(ref.add)
      assert(st.bitEquals(ref) && bits(st.value) == bits(ref.value), s"$sp at $at of $n")
    }
  }

  test("RsumBatchF.run refuses huge, ±Inf and NaN values and leaves the caller's state untouched") {
    val specials = Seq(ReproFloat.HugeThreshold, math.pow(2.0, 125).toFloat, -Float.MaxValue,
                       Float.PositiveInfinity, Float.NegativeInfinity, Float.NaN)
    val k = new RsumBatchD(2)
    for (sp <- specials; (n, at) <- (placements(64) ++ placements(FpD.V * FpD.NB)).distinct; start <- startsF(2)) {
      val vals = Array.fill(n)(1.5f)
      vals(at) = sp
      val (s, c) = (start._1.map(_.toDouble), start._2.clone)
      assert(k.run(vals, 0, n, s, c, 0, start._3) == RsumBatchD.OutOfRange, s"$sp at $at of $n")
      assert(Arrays.equals(s, start._1.map(_.toDouble)) && Arrays.equals(c, start._2), s"$sp at $at of $n")

      val pre = if (start._3 == RsumD.EMPTY) Seq.empty[Float] else Seq(2.5f, -0.75f)
      val (st, ref) = (new ReproFloat(2), new ReproFloat(2))
      pre.foreach { v => st.add(v); ref.add(v) }
      st.addBatch(vals, 0, n, k)
      vals.foreach(ref.add)
      assert(st.bitEquals(ref) && bitsF(st.value) == bitsF(ref.value), s"$sp at $at of $n")
    }
  }

  test("the largest values below the huge threshold go through the kernels") {
    for (l <- 1 to 4) {
      val vd = Array.fill(20)(1.5)
      vd(17) = -Math.nextDown(ReproDouble.HugeThreshold)
      val startD = startsD(l).head
      val d = batchD(new RsumBatchD(l), startD, vd)
      assert(d._3 != RsumBatchD.OutOfRange && sameD(d, scalarD(l, startD, vd)), s"L=$l")
      val vf = Array.fill(20)(1.5f)
      vf(17) = Math.nextDown(ReproFloat.HugeThreshold)
      val startF = startsF(l).head
      val f = batchF(new RsumBatchD(l), startF, vf)
      assert(f._3 != RsumBatchD.OutOfRange && sameF(f, scalarF(l, startF, vf)), s"L=$l")
    }
  }

  /** Bytes the calling thread allocates in `calls(10000)`, after
    * `calls(20000)` to warm up, less the probe's own.
    */
  private def allocatedBy(calls: Int => Unit): Long = {
    val mx = java.lang.management.ManagementFactory.getThreadMXBean
      .asInstanceOf[com.sun.management.ThreadMXBean]
    assert(mx.isThreadAllocatedMemorySupported)
    mx.setThreadAllocatedMemoryEnabled(true)
    calls(20000)
    val t = Thread.currentThread.getId
    val probe = { val a = mx.getThreadAllocatedBytes(t); mx.getThreadAllocatedBytes(t) - a }
    val before = mx.getThreadAllocatedBytes(t)
    calls(10000)
    mx.getThreadAllocatedBytes(t) - before - probe
  }

  test("10^4 warm ReproDouble/ReproFloat.addBatch calls allocate 0 bytes") {
    val vd = mixedMagnitudeVals(4096, 431)
    val vf = vd.map(_.toFloat)
    val d = new ReproDouble(2)
    val f = new ReproFloat(2)
    val kd = new RsumBatchD(2)
    val kf = new RsumBatchD(2)
    // short chunks, whose tails run without a loop, long ones, and across
    // a block boundary
    val lens = Array(1, 2, 3, 7, 11, 12, 16, 100, 128, 1000, 4096)
    assert(allocatedBy { n =>
      var i = 0
      while (i < n) {
        val len = lens(i % lens.length)
        d.addBatch(vd, 0, len, kd)
        f.addBatch(vf, 0, len, kf)
        i += 1
      }
    } == 0)
  }

  test("10^4 warm ReproDouble/ReproFloat merges of a lower-frame state allocate 0 bytes") {
    val (d, lowD) = (new ReproDouble(2), new ReproDouble(2))
    val (f, lowF) = (new ReproFloat(2), new ReproFloat(2))
    // One level below: lowD's level 0 meets d's level 1 (e1 40 and 80),
    // and lowF's level 0 meets f's level 1 (e1 36 and 54).
    d.add(3.0e9); lowD.add(1.5e-3); lowD.add(-2.0e-7)
    f.add(3.0e9f); lowF.add(1.0e5f); lowF.add(-3.0e4f)
    assert(d.slots.e1(0) - lowD.slots.e1(0) == FpD.W && f.slots.e1(0) - lowF.slots.e1(0) == FpF.W)
    val (imgD, imgF) = (lowD.serialize().toSeq, lowF.serialize().toSeq)
    assert(allocatedBy { n =>
      var i = 0
      while (i < n) { d.merge(lowD); f.merge(lowF); i += 1 }
    } == 0)
    assert(lowD.serialize().toSeq == imgD && lowF.serialize().toSeq == imgF, "the merged state changed")
  }
}
