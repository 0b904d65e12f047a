package repro.core

import java.nio.ByteBuffer

/** `n` states of the paper's `repro<ScalarT,L>` type (§IV) in one
  * struct-of-arrays layout: slot `i` is the [[RsumD]] state at
  * `s/c(i*L until (i+1)*L)` with frame `e1(i)`, the non-finite side sum
  * `nonFinite(i)`, and slot `i` of the `huge` sidecar, a lazily allocated
  * layout of the same shape. [[ReproDouble]] and [[ReproFloat]] are the
  * one-slot views; the exec tables keep one slot per group.
  *
  * The storage is double for both precisions. [[ReproSlotsD]] and
  * [[ReproSlotsF]] are the typed entry points: they route a value and give
  * RSUM their grid. A float state's sums lie on float's grid, so they
  * narrow to float exactly in `value` and in the image.
  *
  * The side sums are stored after the levels in `s`, which saves an array
  * per state: millions of one-slot states can be alive at once (per-group
  * references, Spark buffers), and each object more per state costs
  * allocation and GC time. The frames `e1` keep an array of their own:
  * stored after the carries in `c`, they made the JIT's code for `add`
  * too big to inline into the table loops and `ReproDouble` callers.
  *
  * These classes alone decide where a value goes (thresholds for double,
  * then float):
  *   - |b| < 2^987 (2^120): the RSUM state;
  *   - finite |b| >= 2^987 (2^120) would need an extractor exponent beyond
  *     the format's range (`E(b) + M - W + 2 > 1023` (127)), so
  *     `b * 2^-600` (`2^-60`; power-of-two scaling is exact) goes into the
  *     sidecar; `value` adds it back scaled by `2^600` (`2^60`),
  *     overflowing to ±Inf deterministically;
  *   - NaN/±Inf: the side sum, which is order-independent on the
  *     non-finite subset (Inf+Inf=Inf, Inf-Inf=NaN, NaN sticky) and is
  *     non-finite exactly when a non-finite value was added.
  *
  * `add`, `addBatch`, `merge` and `value` are bit-reproducible: a slot's
  * value depends only on the multiset of values that reached it.
  *
  * `A` is the value-array type, `Array[Double]` or `Array[Float]`: the
  * operations declared here take it, so the exec tables are written once
  * for both precisions.
  */
sealed abstract class ReproSlots[T <: ReproSlots[T, A], A](val n: Int, val levels: Int) extends Serializable {
  require(levels >= 1 && levels <= 16, s"levels must be in [1,16], got $levels")

  private val tail = n * levels
  private[core] val s = new Array[Double](tail + n)
  private[core] val c = new Array[Long](tail)
  private[core] val e1 = new Array[Int](n)
  private[core] var huge: T = _
  java.util.Arrays.fill(e1, RsumD.EMPTY)

  /** An empty layout of the same shape and precision. */
  protected def make(): T

  /** Bytes of a sum in the image: 8, or 4 for float. */
  protected def sumBytes: Int

  private[core] def nonFinite(i: Int): Double = s(tail + i)
  private[core] def setNonFinite(i: Int, v: Double): Unit = s(tail + i) = v
  private[core] def hasNonFinite(i: Int): Boolean = !java.lang.Double.isFinite(nonFinite(i))

  protected final def hugeSlots: T = {
    if (huge == null) huge = make()
    huge
  }

  /** Add `values(from until from+len)` to slot `i` through the batched
    * kernel; the state is bit-identical to adding the values one by one.
    * A batch the kernel refuses, because it holds a huge or non-finite
    * value, is routed per value.
    */
  def addBatch(i: Int, values: A, from: Int, len: Int, scratch: RsumBatchD): Unit

  /** The paper's `operator+=(repro<ScalarT,L>)`: merge slot `j` of `o` into
    * slot `i`. `o` is left untouched.
    */
  def merge(i: Int, o: T, j: Int): Unit

  /** [[RsumBatchD.sumOf]] of `values(from until from+len)` on this
    * precision's grid: the [[result]] of an empty slot after [[addBatch]],
    * or NaN where the kernel refuses.
    */
  def sumOf(values: A, from: Int, len: Int, kernel: RsumBatchD): Double

  /** `value(i)`, widened to double for float. */
  def result(i: Int): Double

  /** True if nothing contributing to the sum reached slot `i`. */
  def isEmpty(i: Int): Boolean =
    e1(i) == RsumD.EMPTY && nonFinite(i) == 0.0 && (huge == null || huge.isEmpty(i))

  /** Merge slot `j` of `o` into slot `i` on the grid `(W, ELMIN)`; `o` is
    * left untouched.
    */
  protected final def mergeSlot(i: Int, o: T, j: Int, W: Int, ELMIN: Int): Unit = {
    // Not `require`: its message closure would be allocated on every merge.
    if (o.levels != levels)
      throw new IllegalArgumentException(s"cannot merge a state of ${o.levels} levels into one of $levels")
    if (o.hasNonFinite(j)) setNonFinite(i, nonFinite(i) + o.nonFinite(j))
    if (o.huge != null && !o.huge.isEmpty(j)) hugeSlots.mergeSlot(i, o.huge, j, W, ELMIN)
    e1(i) = RsumD.merge(s, c, i * levels, e1(i), o.s, o.c, j * levels, o.e1(j), levels, W, ELMIN)
  }

  /** Return slot `i` to the empty state. */
  def clear(i: Int): Unit = {
    java.util.Arrays.fill(s, i * levels, (i + 1) * levels, 0.0)
    java.util.Arrays.fill(c, i * levels, (i + 1) * levels, 0L)
    e1(i) = RsumD.EMPTY
    setNonFinite(i, 0.0)
    if (huge != null) huge.clear(i)
  }

  def copy(): T = {
    val o = make()
    System.arraycopy(s, 0, o.s, 0, s.length)
    System.arraycopy(c, 0, o.c, 0, c.length)
    System.arraycopy(e1, 0, o.e1, 0, n)
    if (huge != null) o.huge = huge.copy()
    o
  }

  private def hasHuge: Boolean = huge != null && !huge.isEmpty(0)

  /** Bitwise equality of slot 0 with slot 0 of `o` on the grid `(W,
    * ELMIN)`, the reproducibility criterion used in tests. Both states are
    * normalized first (normalization is content-preserving).
    */
  private[core] def sameState(o: T, W: Int, ELMIN: Int): Boolean = {
    if (levels != o.levels) return false
    if (e1(0) != RsumD.EMPTY) RsumD.propagate(s, c, 0, levels, e1(0), W, ELMIN)
    if (o.e1(0) != RsumD.EMPTY) RsumD.propagate(o.s, o.c, 0, levels, o.e1(0), W, ELMIN)
    val hugeEq = if (!hasHuge || !o.hasHuge) hasHuge == o.hasHuge else huge.sameState(o.huge, W, ELMIN)
    hugeEq && e1(0) == o.e1(0) && java.util.Arrays.equals(s, o.s) && java.util.Arrays.equals(c, o.c)
  }

  /** Bytes of the image of slot 0: levels, `e1`, the non-finite flag and
    * side sum, the levels' sums and carries, then the length and image of
    * the huge sidecar (0 and nothing when it holds nothing). Sums take
    * [[sumBytes]] each.
    */
  private[core] def imageSize: Int =
    4 + 4 + 1 + sumBytes + (sumBytes + 8) * levels + 4 + (if (hasHuge) huge.imageSize else 0)

  /** The image of slot 0 in an array of its own. */
  private[core] def image(): Array[Byte] = {
    val bb = ByteBuffer.allocate(imageSize)
    write(bb)
    bb.array()
  }

  /** Writes the image of slot 0 at `bb`'s position. A NaN side sum is
    * written as `Double.NaN` (`Float.NaN`): its sign depends on the order in
    * which the compiled code put the operands of `nonFinite + b`. This is
    * done here, not in `add`, to keep `add`'s compiled code small enough to
    * inline.
    */
  private[core] def write(bb: ByteBuffer): Unit = {
    def putSum(x: Double): Unit = if (sumBytes == 4) bb.putFloat(x.toFloat) else bb.putDouble(x)
    bb.putInt(levels).putInt(e1(0))
    bb.put(if (hasNonFinite(0)) 1.toByte else 0.toByte)
    if (java.lang.Double.isNaN(nonFinite(0))) {
      if (sumBytes == 4) bb.putFloat(Float.NaN) else bb.putDouble(Double.NaN)
    } else putSum(nonFinite(0))
    var l = 0
    while (l < levels) { putSum(s(l)); l += 1 }
    l = 0
    while (l < levels) { bb.putLong(c(l)); l += 1 }
    if (hasHuge) { bb.putInt(huge.imageSize); huge.write(bb) }
    else bb.putInt(0)
  }

  /** Reads an image at `bb`'s position into slot 0, which must be empty. */
  private[core] def read(bb: ByteBuffer): Unit = {
    def getSum: Double = if (sumBytes == 4) bb.getFloat.toDouble else bb.getDouble
    val imageLevels = bb.getInt
    require(imageLevels == levels, s"cannot read an image of $imageLevels levels into a state of $levels")
    e1(0) = bb.getInt
    bb.get() // non-finite flag: implied by the side sum
    setNonFinite(0, getSum)
    var l = 0
    while (l < levels) { s(l) = getSum; l += 1 }
    l = 0
    while (l < levels) { c(l) = bb.getLong; l += 1 }
    if (bb.getInt > 0) hugeSlots.read(bb) // the huge image follows in place
  }
}

/** `repro<double,L>` slots on double's grid. */
final class ReproSlotsD(n: Int, levels: Int) extends ReproSlots[ReproSlotsD, Array[Double]](n, levels) {
  import FpD._

  protected def make(): ReproSlotsD = new ReproSlotsD(n, levels)
  protected def sumBytes: Int = 8

  /** The paper's `operator+=(ScalarT)` on slot `i`. */
  def add(i: Int, b: Double): Unit =
    if (Math.abs(b) < ReproDouble.HugeThreshold) e1(i) = RsumD.add(s, c, i * levels, levels, e1(i), b, M, W, E1MIN, ELMIN)
    else if (java.lang.Double.isFinite(b)) hugeSlots.add(i, b * ReproDouble.HugeScaleDown)
    else setNonFinite(i, nonFinite(i) + b)

  def addBatch(i: Int, values: Array[Double], from: Int, len: Int, scratch: RsumBatchD): Unit = {
    require(scratch.levels == levels, "scratch lane width mismatch")
    val e = scratch.run(values, from, len, s, c, i * levels, e1(i))
    if (e != RsumBatchD.OutOfRange) e1(i) = e
    else {
      var j = from
      while (j < from + len) { add(i, values(j)); j += 1 }
    }
  }

  def merge(i: Int, o: ReproSlotsD, j: Int): Unit = mergeSlot(i, o, j, W, ELMIN)

  def sumOf(values: Array[Double], from: Int, len: Int, kernel: RsumBatchD): Double =
    kernel.sumOf(values, from, len)

  def result(i: Int): Double = value(i)

  /** Finalized sum of slot `i` (a deterministic function of its canonical
    * state). Every NaN comes out as `Double.NaN`: the side sum's NaN bits
    * depend on the order in which NaN and ±Inf met.
    */
  def value(i: Int): Double = {
    val nf = nonFinite(i)
    if (java.lang.Double.isNaN(nf)) return Double.NaN
    if (nf != 0.0) return nf
    val base = RsumD.eval(s, c, i * levels, levels, e1(i), M, W, ELMIN)
    if (huge == null || huge.isEmpty(i)) base
    else Math.scalb(huge.value(i), ReproDouble.HugeScaleLog) + base
  }
}

/** `repro<float,L>` slots: float values, widened exactly, on float's grid;
  * results narrowed exactly, and `value` rounded as binary32 RSUM rounds.
  */
final class ReproSlotsF(n: Int, levels: Int) extends ReproSlots[ReproSlotsF, Array[Float]](n, levels) {
  import FpF._

  protected def make(): ReproSlotsF = new ReproSlotsF(n, levels)
  protected def sumBytes: Int = 4

  def add(i: Int, b: Float): Unit =
    if (Math.abs(b) < ReproFloat.HugeThreshold) e1(i) = RsumD.add(s, c, i * levels, levels, e1(i), b, M, W, E1MIN, ELMIN)
    else if (java.lang.Float.isFinite(b)) hugeSlots.add(i, b * ReproFloat.HugeScaleDown)
    else setNonFinite(i, nonFinite(i) + b)

  def addBatch(i: Int, values: Array[Float], from: Int, len: Int, scratch: RsumBatchD): Unit = {
    require(scratch.levels == levels, "scratch lane width mismatch")
    val e = scratch.run(values, from, len, s, c, i * levels, e1(i))
    if (e != RsumBatchD.OutOfRange) e1(i) = e
    else {
      var j = from
      while (j < from + len) { add(i, values(j)); j += 1 }
    }
  }

  def merge(i: Int, o: ReproSlotsF, j: Int): Unit = mergeSlot(i, o, j, W, ELMIN)

  def sumOf(values: Array[Float], from: Int, len: Int, kernel: RsumBatchD): Double =
    kernel.sumOf(values, from, len)

  def result(i: Int): Double = value(i).toDouble

  /** Finalized sum of slot `i`, in float arithmetic throughout: the huge
    * sidecar's `scalb(huge, 60) + base` must overflow to ±Inf as binary32
    * does, where a sum in double could come back finite.
    */
  def value(i: Int): Float = {
    val nf = nonFinite(i).toFloat
    if (java.lang.Float.isNaN(nf)) return Float.NaN
    if (nf != 0.0f) return nf
    val base = RsumD.eval(s, c, i * levels, levels, e1(i), M, W, ELMIN).toFloat
    if (huge == null || huge.isEmpty(i)) base
    else Math.scalb(huge.value(i), ReproFloat.HugeScaleLog) + base
  }
}
