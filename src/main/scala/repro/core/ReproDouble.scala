package repro.core

import java.nio.ByteBuffer

/** The paper's `repro<double,L>` data type (§IV): an *associative* drop-in
  * replacement for a floating-point accumulator. It is the one-slot view of
  * a [[ReproSlotsD]], which holds the L levels of running sum + carry count
  * and handles the full double domain (huge values, NaN/±Inf).
  *
  * `add`, `merge` and `value` are bit-reproducible: the result depends only
  * on the multiset of values added across the whole merge tree.
  */
final class ReproDouble private (private[core] val slots: ReproSlotsD) extends Serializable {

  def this(levels: Int) = this(new ReproSlotsD(1, levels))

  def levels: Int = slots.levels

  /** True if nothing contributing to the sum was added. */
  def isEmpty: Boolean = slots.isEmpty(0)

  /** The paper's `operator+=(ScalarT)`. */
  def add(b: Double): Unit = slots.add(0, b)

  /** Add a whole batch through the vectorized kernel (RSUM SIMD); the
    * resulting state is bit-identical to adding the values one by one.
    */
  def addBatch(values: Array[Double], from: Int, len: Int, scratch: RsumBatchD): Unit =
    slots.addBatch(0, values, from, len, scratch)

  /** The paper's `operator+=(repro<double,L>)`. `o` is left untouched. */
  def merge(o: ReproDouble): Unit = slots.merge(0, o.slots, 0)

  /** Finalized sum (deterministic function of the canonical state). */
  def value: Double = slots.value(0)

  def copy(): ReproDouble = new ReproDouble(slots.copy())

  def reset(): Unit = slots.clear(0)

  /** The huge-value sidecar as a state, or null if it holds nothing. */
  private def hugeState: ReproDouble =
    if (ReproDouble.hasHuge(slots)) new ReproDouble(slots.huge) else null

  /** Bitwise state equality — the reproducibility criterion used in tests.
    * Both states are normalized first (normalization is content-preserving).
    */
  def bitEquals(o: ReproDouble): Boolean = {
    val a = slots
    val b = o.slots
    if (levels != o.levels) return false
    if (a.e1(0) != RsumD.EMPTY) RsumD.propagate(a.s, a.c, 0, levels, a.e1(0))
    if (b.e1(0) != RsumD.EMPTY) RsumD.propagate(b.s, b.c, 0, levels, b.e1(0))
    val ha = hugeState
    val hb = o.hugeState
    val hugeEq = if (ha == null || hb == null) ha eq hb else ha.bitEquals(hb)
    hugeEq && a.e1(0) == b.e1(0) && java.util.Arrays.equals(a.s, b.s) && java.util.Arrays.equals(a.c, b.c)
  }

  /** Binary image (for Spark aggregation-buffer shipping). */
  def serialize(): Array[Byte] = {
    val bb = ByteBuffer.allocate(ReproDouble.imageSize(slots))
    ReproDouble.write(slots, bb)
    bb.array()
  }
}

object ReproDouble {
  /** |b| >= 2^987 needs an out-of-range extractor and is routed to the
    * scaled state.
    */
  val HugeThreshold: Double = java.lang.Math.scalb(1.0, 987)
  val HugeScaleLog: Int     = 600
  val HugeScaleDown: Double = java.lang.Math.scalb(1.0, -HugeScaleLog)

  private def hasHuge(sl: ReproSlotsD): Boolean = sl.huge != null && !sl.huge.isEmpty(0)

  /** Bytes of the image of slot 0 of `sl`: levels, `e1`, the non-finite
    * flag and side sum, the levels' sums and carries, then the length and
    * image of the huge sidecar (0 and nothing when it holds nothing).
    */
  private[core] def imageSize(sl: ReproSlotsD): Int =
    4 + 4 + 1 + 8 + 16 * sl.levels + 4 + (if (hasHuge(sl)) imageSize(sl.huge) else 0)

  /** Writes the image of slot 0 of `sl` at `bb`'s position. */
  private[core] def write(sl: ReproSlotsD, bb: ByteBuffer): Unit = {
    bb.putInt(sl.levels).putInt(sl.e1(0))
    bb.put(if (sl.hasNonFinite(0)) 1.toByte else 0.toByte)
    bb.putDouble(sl.nonFinite(0))
    var l = 0
    while (l < sl.levels) { bb.putDouble(sl.s(l)); l += 1 }
    l = 0
    while (l < sl.levels) { bb.putLong(sl.c(l)); l += 1 }
    if (hasHuge(sl)) { bb.putInt(imageSize(sl.huge)); write(sl.huge, bb) }
    else bb.putInt(0)
  }

  /** Reads an image at `bb`'s position into slot 0 of the empty `sl`. */
  private[core] def read(bb: ByteBuffer, sl: ReproSlotsD): Unit = {
    val levels = bb.getInt
    require(levels == sl.levels, s"cannot read a repro<double,$levels> image into repro<double,${sl.levels}>")
    sl.e1(0) = bb.getInt
    bb.get() // non-finite flag: implied by the side sum
    sl.setNonFinite(0, bb.getDouble)
    var l = 0
    while (l < levels) { sl.s(l) = bb.getDouble; l += 1 }
    l = 0
    while (l < levels) { sl.c(l) = bb.getLong; l += 1 }
    if (bb.getInt > 0) { sl.huge = new ReproSlotsD(1, levels); read(bb, sl.huge) } // the huge image follows in place
  }

  def deserialize(bytes: Array[Byte]): ReproDouble = {
    val bb = ByteBuffer.wrap(bytes)
    val st = new ReproDouble(bb.getInt(0))
    read(bb, st.slots)
    st
  }

  /** Convenience: reproducible sum of an array (scalar path). */
  def sum(values: Array[Double], levels: Int): Double = {
    val st = new ReproDouble(levels)
    var i = 0
    while (i < values.length) { st.add(values(i)); i += 1 }
    st.value
  }

  /** Convenience: reproducible sum of an array (batched path). */
  def sumBatched(values: Array[Double], levels: Int): Double = {
    val st = new ReproDouble(levels)
    st.addBatch(values, 0, values.length, new RsumBatchD(levels))
    st.value
  }
}
