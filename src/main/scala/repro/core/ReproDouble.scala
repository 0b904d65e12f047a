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
    if (slots.huge == null || slots.huge.isEmpty(0)) null else new ReproDouble(slots.huge)

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
    val huge = hugeState
    val hugeImg = if (huge == null) Array.emptyByteArray else huge.serialize()
    val bb = ByteBuffer.allocate(ReproDouble.baseByteSize(levels) + 4 + hugeImg.length)
    bb.putInt(levels).putInt(slots.e1(0))
    bb.put(if (slots.hasNonFinite(0)) 1.toByte else 0.toByte)
    bb.putDouble(slots.nonFinite(0))
    var l = 0
    while (l < levels) { bb.putDouble(slots.s(l)); l += 1 }
    l = 0
    while (l < levels) { bb.putLong(slots.c(l)); l += 1 }
    bb.putInt(hugeImg.length).put(hugeImg)
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

  private[core] def baseByteSize(levels: Int): Int = 4 + 4 + 1 + 8 + 16 * levels

  def deserialize(bytes: Array[Byte]): ReproDouble = deserialize(ByteBuffer.wrap(bytes))

  private def deserialize(bb: ByteBuffer): ReproDouble = {
    val st = new ReproDouble(bb.getInt)
    val sl = st.slots
    sl.e1(0) = bb.getInt
    bb.get() // non-finite flag: implied by the side sum
    sl.setNonFinite(0, bb.getDouble)
    var l = 0
    while (l < st.levels) { sl.s(l) = bb.getDouble; l += 1 }
    l = 0
    while (l < st.levels) { sl.c(l) = bb.getLong; l += 1 }
    if (bb.getInt > 0) sl.huge = deserialize(bb).slots // the huge image follows in place
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
