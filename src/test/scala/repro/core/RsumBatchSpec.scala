package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** The batched ("SIMD") kernel must be bit-identical to the scalar path on
  * the same multiset of values — that is what lets summation buffers keep
  * the reproducibility guarantee (paper §V-A).
  */
class RsumBatchSpec extends AnyFunSuite {
  import ExactSum._

  private def scalarState(vals: Array[Double], l: Int): ReproDouble = {
    val st = new ReproDouble(l); vals.foreach(st.add); st
  }

  private def batchState(vals: Array[Double], l: Int, chunk: Int): ReproDouble = {
    val st = new ReproDouble(l)
    val scratch = new RsumBatchD(l)
    var i = 0
    while (i < vals.length) {
      val len = math.min(chunk, vals.length - i)
      st.addBatch(vals, i, len, scratch)
      i += len
    }
    st
  }

  val gens: Seq[(String, Int => Array[Double])] = Seq(
    ("U[1,2)", n => uniformVals(n, 211)),
    ("Exp(1)", n => expVals(n, 212)),
    ("mixed-magnitude", n => mixedMagnitudeVals(n, 213)))

  for (l <- 1 to 4; (name, gen) <- gens) {
    test(s"L=$l, $name: batch == scalar bitwise (single call)") {
      val vals = gen(20000)
      assert(batchState(vals, l, vals.length).bitEquals(scalarState(vals, l)))
    }
  }

  for (l <- Seq(1, 2, 4); chunk <- Seq(1, 3, 7, 64, 255, 4096, 4097)) {
    test(s"L=$l, chunk=$chunk: chunked batch == scalar bitwise") {
      val vals = mixedMagnitudeVals(10000, 221 + l)
      assert(batchState(vals, l, chunk).bitEquals(scalarState(vals, l)),
             s"chunk=$chunk differs from scalar")
    }
  }

  test("batch handles sizes around the V*NB tile boundary") {
    val nb = FpD.V * FpD.NB
    for (n <- Seq(nb - 1, nb, nb + 1, 2 * nb - 3, 2 * nb, 2 * nb + 5)) {
      val vals = uniformVals(n, 231)
      assert(batchState(vals, 2, n).bitEquals(scalarState(vals, 2)), s"n=$n")
    }
  }

  test("batch handles sizes around the lane width V") {
    for (n <- 0 to 2 * FpD.V + 1) {
      val vals = expVals(math.max(n, 1), 241).take(n)
      assert(batchState(vals, 2, math.max(n, 1)).bitEquals(scalarState(vals, 2)), s"n=$n")
    }
  }

  test("batch with zeros only leaves the state empty") {
    val vals = Array.fill(100)(0.0)
    val st = batchState(vals, 2, 100)
    assert(st.isEmpty && st.value == 0.0)
  }

  test("batch with leading zeros then values matches scalar") {
    val vals = Array.fill(50)(0.0) ++ uniformVals(50, 251)
    assert(batchState(vals, 2, 100).bitEquals(scalarState(vals, 2)))
  }

  test("batch with a huge magnitude jump mid-block (demote inside batch)") {
    val vals = uniformVals(1000, 261) ++ Array(1e200) ++ uniformVals(1000, 262)
    for (l <- 1 to 4)
      assert(batchState(vals, l, vals.length).bitEquals(scalarState(vals, l)), s"L=$l")
  }

  test("batch routes non-finite values like the scalar path") {
    val vals = uniformVals(100, 271) ++ Array(Double.PositiveInfinity) ++ uniformVals(10, 272)
    val a = batchState(vals, 2, vals.length)
    val b = scalarState(vals, 2)
    assert(bits(a.value) == bits(b.value))
    assert(a.value == Double.PositiveInfinity)
  }

  test("batch routes huge (|b| >= 2^987) values like the scalar path") {
    val vals = uniformVals(100, 281) ++ Array(1.6e308, -2e300) ++ uniformVals(10, 282)
    val a = batchState(vals, 3, vals.length)
    val b = scalarState(vals, 3)
    assert(a.bitEquals(b))
  }

  test("interleaving scalar adds and batch calls matches pure scalar") {
    val vals = mixedMagnitudeVals(5000, 291)
    val r = new Random(292)
    val st = new ReproDouble(2)
    val scratch = new RsumBatchD(2)
    var i = 0
    while (i < vals.length) {
      if (r.nextBoolean()) { st.add(vals(i)); i += 1 }
      else {
        val len = math.min(1 + r.nextInt(300), vals.length - i)
        st.addBatch(vals, i, len, scratch)
        i += len
      }
    }
    assert(st.bitEquals(scalarState(vals, 2)))
  }

  test("scratch object is reusable across states without contamination") {
    val scratch = new RsumBatchD(2)
    val a = uniformVals(500, 301)
    val b = expVals(500, 302)
    val sa = new ReproDouble(2); sa.addBatch(a, 0, a.length, scratch)
    val sb = new ReproDouble(2); sb.addBatch(b, 0, b.length, scratch)
    assert(sa.bitEquals(scalarState(a, 2)))
    assert(sb.bitEquals(scalarState(b, 2)))
  }

  test("empty batch call is a no-op") {
    val st = new ReproDouble(2)
    st.addBatch(new Array[Double](0), 0, 0, new RsumBatchD(2))
    assert(st.isEmpty)
    st.add(5.0)
    st.addBatch(new Array[Double](10), 3, 0, new RsumBatchD(2))
    assert(st.value == 5.0)
  }

  /** 20 chunks of `n` finite values, one in four a zero or subnormal (the
    * batched kernel runs them), then one chunk per special value, holding
    * it at a random position.
    */
  private def boundaryChunks(r: Random, n: Int, tiny: Double, specials: Seq[Double]): Seq[Array[Double]] = {
    def chunk() = Array.fill(n)(r.nextInt(4) match {
      case 0 => if (r.nextBoolean()) 0.0 else -0.0
      case 1 => (r.nextInt(2001) - 1000) * tiny
      case _ => (r.nextDouble() * 2 - 1) * math.pow(2.0, r.nextInt(80) - 40)
    })
    Seq.fill(20)(chunk()) ++ specials.map { sp => val c = chunk(); c(r.nextInt(n)) = sp; c }
  }

  // "BatchMin" in these names, and in the next test's, is the length 8
  // below which `addBatch` once routed a chunk per value. Every length now
  // takes the kernel; the names, the lengths (7, 8, 9 here, 1..8 there) and
  // the seeds are kept.
  for (d <- -1 to 1; l <- Seq(1, 2, 4)) {
    val at = if (d == 0) "BatchMin" else f"BatchMin$d%+d"
    test(s"L=$l: ReproDouble.addBatch at len=$at == scalar bitwise, full domain") {
      val n = 8 + d
      val chunks = boundaryChunks(new Random(331L * n + l), n, Double.MinPositiveValue,
        Seq(Double.MaxValue, -3e300, Double.PositiveInfinity, Double.NegativeInfinity, Double.NaN))
      val (st, ref, scratch) = (new ReproDouble(l), new ReproDouble(l), new RsumBatchD(l))
      for (c <- chunks) {
        st.addBatch(c, 0, n, scratch)
        c.foreach(ref.add)
        assert(st.bitEquals(ref) && bits(st.value) == bits(ref.value))
      }
    }

    test(s"L=$l: ReproFloat.addBatch at len=$at == scalar bitwise, full domain") {
      val n = 8 + d
      val chunks = boundaryChunks(new Random(337L * n + l), n, Float.MinPositiveValue.toDouble,
        Seq(Float.MaxValue.toDouble, -3e37, Double.PositiveInfinity, Double.NegativeInfinity, Double.NaN))
          .map(_.map(_.toFloat))
      val (st, ref, scratch) = (new ReproFloat(l), new ReproFloat(l), new RsumBatchD(l))
      for (c <- chunks) {
        st.addBatch(c, 0, n, scratch)
        c.foreach(ref.add)
        assert(st.bitEquals(ref) && bitsF(st.value) == bitsF(ref.value))
      }
    }
  }

  test("the batched kernel itself == scalar RsumD.add for every length up to BatchMin") {
    val scratch = new RsumBatchD(2)
    for (n <- 1 to 8) {
      val vals = mixedMagnitudeVals(n, 341 + n)
      val (s, c) = (new Array[Double](2), new Array[Long](2))
      val e = scratch.run(vals, 0, n, s, c, 0, RsumD.EMPTY)
      val (rs, rc) = (new Array[Double](2), new Array[Long](2))
      val re = vals.foldLeft(RsumD.EMPTY)((e1, v) => RsumD.add(rs, rc, 0, 2, e1, v))
      assert(bits(RsumD.eval(s, c, 0, 2, e)) == bits(RsumD.eval(rs, rc, 0, 2, re)), s"n=$n")
    }
  }

  // Every length from a lone value to two full lane groups and a tail, so
  // the block's tail of 1 to V - 1 values runs at every level, from the
  // empty state and from one framed far above the values, whose bits then
  // reach the lower levels too.
  for (l <- 1 to 4) {
    val top = 2 * FpD.V + 3
    test(s"L=$l: RsumBatchD.run == scalar RsumD.add/RsumFRef.add at every length 1..$top, empty and framed") {
      val k = new RsumBatchD(l)
      val pre = mixedMagnitudeVals(3, 371).map(_ * 1e9)
      for (n <- 1 to top; framed <- Seq(false, true)) {
        val vd = mixedMagnitudeVals(n, 373 + n)
        val (s, c) = (new Array[Double](l), new Array[Long](l))
        val e0 = if (framed) pre.foldLeft(RsumD.EMPTY)((e1, v) => RsumD.add(s, c, 0, l, e1, v)) else RsumD.EMPTY
        val (rs, rc) = (s.clone, c.clone)
        val re = vd.foldLeft(e0)((e1, v) => RsumD.add(rs, rc, 0, l, e1, v))
        val e = k.run(vd, 0, n, s, c, 0, e0)
        assert(e == re && java.util.Arrays.equals(s, rs) && java.util.Arrays.equals(c, rc),
               s"double, n=$n, framed=$framed")

        val vf = vd.map(_.toFloat)
        val (fs, fc) = (new Array[Float](l), new Array[Long](l))
        val f0 = if (framed) pre.foldLeft(RsumD.EMPTY)((e1, v) => RsumFRef.add(fs, fc, 0, l, e1, v.toFloat)) else RsumD.EMPTY
        val (ws, wc) = (fs.map(_.toDouble), fc.clone)
        val rf = vf.foldLeft(f0)((e1, v) => RsumFRef.add(fs, fc, 0, l, e1, v))
        val f = k.run(vf, 0, n, ws, wc, 0, f0)
        assert(ws.forall(x => x.toFloat.toDouble == x), s"float, n=$n, framed=$framed: sums off float's grid")
        assert(f == rf && java.util.Arrays.equals(ws.map(_.toFloat), fs) && java.util.Arrays.equals(wc, fc),
               s"float, n=$n, framed=$framed")
      }
    }
  }

  // RsumBatchD.sumOf: the sum of an empty state after a batch, with no
  // state written, must have the bits of addBatch into an empty slot, then
  // value. The values sit at an offset, after a value sumOf must not read.
  private val sumOfLengths = (1 to 11) :+ RsumBatchD.SpreadMax

  /** Per input, `n` doubles: each of them as float is below float's huge
    * threshold too.
    */
  private def sumOfInputs(n: Int, seed: Long): Seq[(String, Array[Double], Array[Float])] = {
    val r = new Random(seed)
    def sign = if (r.nextBoolean()) 1.0 else -1.0
    def both(name: String, d: Array[Double]): (String, Array[Double], Array[Float]) = (name, d, d.map(_.toFloat))
    val fullD = FullDomainFinite.doubles(n, seed)
    val fullF = FullDomainFinite.floats(n, seed)
    Seq(
      both("U[1,2)", uniformVals(n, seed)),
      ("full domain, finite, below the huge threshold", fullD, fullF),
      ("subnormals", Array.fill(n)((r.nextInt(2001) - 1000) * Double.MinPositiveValue),
        Array.fill(n)((r.nextInt(2001) - 1000) * Float.MinPositiveValue)),
      both("+0/-0", Array.fill(n)(sign * 0.0)),
      ("just below the huge threshold, one sign",
        Array.fill(n)(Math.nextDown(ReproDouble.HugeThreshold) * (0.5 + r.nextDouble() / 2)),
        Array.fill(n)(Math.nextDown(ReproFloat.HugeThreshold) * (0.5f + r.nextFloat() / 2))),
      ("just below the huge threshold, both signs",
        Array.fill(n)(sign * Math.nextDown(ReproDouble.HugeThreshold)),
        Array.fill(n)(sign.toFloat * Math.nextDown(ReproFloat.HugeThreshold))))
  }

  private def slotSum(vals: Array[Double], from: Int, len: Int, k: RsumBatchD): Double = {
    val st = new ReproSlotsD(1, k.levels)
    st.clear(0)
    st.addBatch(0, vals, from, len, k)
    st.value(0)
  }

  private def slotSumF(vals: Array[Float], from: Int, len: Int, k: RsumBatchD): Float = {
    val st = new ReproSlotsF(1, k.levels)
    st.clear(0)
    st.addBatch(0, vals, from, len, k)
    st.value(0)
  }

  for (l <- 1 to 4) {
    test(s"L=$l: RsumBatchD.sumOf == clear, addBatch, value bitwise at lengths ${sumOfLengths.mkString("/")}, double and float") {
      val k = new RsumBatchD(l)
      for (n <- sumOfLengths; (name, vd, vf) <- sumOfInputs(n, 400L * l + n)) {
        val clue = s"$name, n=$n"
        val d = 3.0 +: vd
        val f = 3.0f +: vf
        assert(bits(k.sumOf(d, 1, n)) == bits(slotSum(d, 1, n, k)), s"double, $clue")
        assert(bits(k.sumOf(f, 1, n)) == bits(slotSumF(f, 1, n, k).toDouble), s"float, $clue")
      }
    }
  }

  test("RsumBatchD.sumOf refuses a huge, ±Inf or NaN value and a batch of more than SpreadMax values") {
    val k = new RsumBatchD(2)
    for (n <- Seq(1, 4, RsumBatchD.SpreadMax); at <- Seq(0, n - 1)) {
      for (sp <- Seq(ReproDouble.HugeThreshold, -Double.MaxValue, Double.PositiveInfinity, Double.NegativeInfinity,
                     Double.NaN)) {
        val d = uniformVals(n, 411); d(at) = sp
        assert(k.sumOf(d, 0, n).isNaN, s"double $sp at $at of $n")
      }
      for (sp <- Seq(ReproFloat.HugeThreshold, -Float.MaxValue, Float.PositiveInfinity, Float.NegativeInfinity,
                     Float.NaN)) {
        val f = uniformVals(n, 412).map(_.toFloat); f(at) = sp
        assert(k.sumOf(f, 0, n).isNaN, s"float $sp at $at of $n")
      }
    }
    for (n <- Seq(RsumBatchD.SpreadMax + 1, 31, 32, 64, 1024, FpD.V * FpD.NB + 1)) {
      val d = 3.0 +: uniformVals(n, 413)
      assert(k.sumOf(d, 1, n).isNaN && k.sumOf(d.map(_.toFloat), 1, n).isNaN, s"$n values")
    }
    val d = uniformVals(RsumBatchD.SpreadMax + 1, 414)
    assert(!k.sumOf(d, 1, RsumBatchD.SpreadMax).isNaN && !k.sumOf(d.map(_.toFloat), 0, RsumBatchD.SpreadMax).isNaN)
  }
}

/** `FullDomain`'s values that are finite and below the huge threshold:
  * zeros, subnormals and ordinary values of many magnitudes.
  */
private object FullDomainFinite {
  def doubles(n: Int, seed: Long): Array[Double] =
    Iterator.from(0).map(i => repro.FullDomain.doubles(4 * n, seed + i)._2)
      .flatMap(_.filter(v => Math.abs(v) < ReproDouble.HugeThreshold)).take(n).toArray

  def floats(n: Int, seed: Long): Array[Float] =
    Iterator.from(0).map(i => repro.FullDomain.floats(4 * n, seed + i)._2)
      .flatMap(_.filter(v => Math.abs(v) < ReproFloat.HugeThreshold)).take(n).toArray
}

/** Summation buffers must also be bit-identical to the unbuffered paths. */
class BufferedReproSpec extends AnyFunSuite {
  import ExactSum._

  for (l <- 1 to 4; bsz <- Seq(0, 1, 16, 256, 1024)) {
    test(s"L=$l, bsz=$bsz: buffered == unbuffered bitwise") {
      val vals = mixedMagnitudeVals(5000, 311 + l)
      val buf = new BufferedReproDouble(l, bsz)
      vals.foreach(buf.add)
      val ref = { val st = new ReproDouble(l); vals.foreach(st.add); st }
      assert(bits(buf.value) == bits(ref.value))
      buf.flush()
      assert(buf.state.bitEquals(ref))
    }
  }

  test("buffered value is idempotent (flush-at-eval)") {
    val buf = new BufferedReproDouble(2, 64)
    (1 to 100).foreach(i => buf.add(i.toDouble))
    assert(buf.value == 5050.0)
    assert(buf.value == 5050.0)
    buf.add(1.0)
    assert(buf.value == 5051.0)
  }

  test("buffered merge == sequential bitwise, across buffer sizes") {
    val vals = mixedMagnitudeVals(4000, 321)
    val ref = { val st = new ReproDouble(2); vals.foreach(st.add); st }
    val r = new Random(322)
    val parts = Array(new BufferedReproDouble(2, 7), new BufferedReproDouble(2, 64),
                      new BufferedReproDouble(2, 0), new BufferedReproDouble(2, 1024))
    vals.foreach(v => parts(r.nextInt(parts.length)).add(v))
    val acc = new BufferedReproDouble(2, 128)
    parts.foreach(acc.merge)
    acc.flush()
    assert(acc.state.bitEquals(ref))
  }

  test("buffered serialization flushes and round-trips") {
    val buf = new BufferedReproDouble(3, 100)
    (1 to 57).foreach(i => buf.add(i * 0.25))
    val back = BufferedReproDouble.deserialize(buf.serialize())
    assert(bits(back.value) == bits(buf.value))
  }

  test("empty buffered state") {
    val buf = new BufferedReproDouble(2, 8)
    assert(buf.isEmpty && buf.value == 0.0)
    val back = BufferedReproDouble.deserialize(buf.serialize())
    assert(back.isEmpty)
  }

  for (bsz <- Seq(1, 15, 16, 17, 100, 1024)) {
    // at and around each growth step of the pending buffer, and around bsz
    val counts = (Seq(15, 16, 17, 31, 32, 33, 63, 64, 65) ++ Seq(bsz - 1, bsz, bsz + 1, 2 * bsz + 1))
      .filter(_ > 0).distinct.sorted
    test(s"bsz=$bsz: buffered == unbuffered bitwise at counts ${counts.mkString("/")}, serialized while pending") {
      val vals = mixedMagnitudeVals(counts.last, 351 + bsz)
      for (n <- counts) {
        val buf = new BufferedReproDouble(2, bsz)
        val ref = new ReproDouble(2)
        vals.take(n).foreach { v => buf.add(v); ref.add(v) }
        val back = BufferedReproDouble.deserialize(buf.serialize())
        assert(back.state.bitEquals(ref), s"n=$n: image taken with values pending")
        assert(bits(buf.value) == bits(ref.value), s"n=$n")
        buf.flush()
        assert(buf.state.bitEquals(ref), s"n=$n")
      }
    }
  }

  test("a buffered state holds no kernel and grows its buffer from min(bsz, 16) to bsz") {
    assert(!classOf[BufferedReproDouble].getDeclaredFields.exists(_.getType == classOf[RsumBatchD]))
    for (bsz <- Seq(1, 15, 16, 17, 100, 1024)) {
      val buf = new BufferedReproDouble(2, bsz)
      assert(buf.pendingCapacity == 0)
      for (i <- 1 to 2 * bsz + 1) {
        buf.add(i.toDouble)
        val pending = i % bsz
        val cap = buf.pendingCapacity
        if (i < bsz) assert(cap == math.min(bsz, math.max(16, Integer.highestOneBit(i - 1) << 1)), s"bsz=$bsz, i=$i")
        assert(cap <= bsz && cap >= pending, s"bsz=$bsz, i=$i")
      }
    }
  }

  test("per-thread kernels: eight threads flush the same multiset to the same bits") {
    import java.util.concurrent.{Callable, Executors, TimeUnit}
    val vals = mixedMagnitudeVals(3000, 361)
    val ref = Seq(2, 3).map(l => l -> { val st = new ReproDouble(l); vals.foreach(st.add); bits(st.value) }).toMap
    val pool = Executors.newFixedThreadPool(8)
    try {
      // states filled, but not flushed, on this thread; flushed on the pool's
      val handedOver = for (l <- Seq(2, 3); bsz <- Seq(7, 64, 5000)) yield {
        val b = new BufferedReproDouble(l, bsz); vals.foreach(b.add); b
      }
      val tasks = (0 until 64).map { t =>
        pool.submit(new Callable[Seq[(Int, Long)]] {
          def call(): Seq[(Int, Long)] = {
            val own = for (l <- Seq(2, 3); bsz <- Seq(16, 100, 256)) yield {
              val b = new BufferedReproDouble(l, bsz); vals.foreach(b.add); l -> bits(b.value)
            }
            val k = RsumBatchD.forThread(2)
            assert(k eq RsumBatchD.forThread(2))
            val other = handedOver(t % handedOver.size)
            val moved = other.synchronized(other.levels -> bits(other.value))
            own :+ moved
          }
        })
      }
      for (f <- tasks; (l, b) <- f.get(60, TimeUnit.SECONDS)) assert(b == ref(l), s"L=$l")
      val kernels = (0 until 8).map(_ => pool.submit(new Callable[RsumBatchD] {
        def call(): RsumBatchD = RsumBatchD.forThread(2)
      }).get)
      val main = RsumBatchD.forThread(2)
      assert(kernels.forall(_ ne main))
    } finally pool.shutdownNow()
  }
}
