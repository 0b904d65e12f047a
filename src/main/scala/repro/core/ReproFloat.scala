package repro.core

import java.nio.ByteBuffer

/** The paper's `repro<float,L>` data type — binary32 mirror of
  * [[ReproDouble]], the one-slot view of a [[ReproSlotsF]]; see those
  * classes for semantics.
  */
final class ReproFloat private (private[core] val slots: ReproSlotsF) extends Serializable {

  def this(levels: Int) = this(new ReproSlotsF(1, levels))

  def levels: Int = slots.levels

  def isEmpty: Boolean = slots.isEmpty(0)

  def add(b: Float): Unit = slots.add(0, b)

  def addBatch(values: Array[Float], from: Int, len: Int, scratch: RsumBatchF): Unit =
    slots.addBatch(0, values, from, len, scratch)

  def merge(o: ReproFloat): Unit = slots.merge(0, o.slots, 0)

  def value: Float = slots.value(0)

  def copy(): ReproFloat = new ReproFloat(slots.copy())

  def reset(): Unit = slots.clear(0)

  private def hugeState: ReproFloat =
    if (slots.huge == null || slots.huge.isEmpty(0)) null else new ReproFloat(slots.huge)

  def bitEquals(o: ReproFloat): Boolean = {
    val a = slots
    val b = o.slots
    if (levels != o.levels) return false
    if (a.e1(0) != RsumF.EMPTY) RsumF.propagate(a.s, a.c, 0, levels, a.e1(0))
    if (b.e1(0) != RsumF.EMPTY) RsumF.propagate(b.s, b.c, 0, levels, b.e1(0))
    val ha = hugeState
    val hb = o.hugeState
    val hugeEq = if (ha == null || hb == null) ha eq hb else ha.bitEquals(hb)
    hugeEq && a.e1(0) == b.e1(0) && java.util.Arrays.equals(a.s, b.s) && java.util.Arrays.equals(a.c, b.c)
  }

  def serialize(): Array[Byte] = {
    val huge = hugeState
    val hugeImg = if (huge == null) Array.emptyByteArray else huge.serialize()
    val bb = ByteBuffer.allocate(ReproFloat.baseByteSize(levels) + 4 + hugeImg.length)
    bb.putInt(levels).putInt(slots.e1(0))
    bb.put(if (slots.hasNonFinite(0)) 1.toByte else 0.toByte)
    bb.putFloat(slots.nonFinite(0))
    var l = 0
    while (l < levels) { bb.putFloat(slots.s(l)); l += 1 }
    l = 0
    while (l < levels) { bb.putLong(slots.c(l)); l += 1 }
    bb.putInt(hugeImg.length).put(hugeImg)
    bb.array()
  }
}

object ReproFloat {
  val HugeThreshold: Float = java.lang.Math.scalb(1.0f, 120)
  val HugeScaleLog: Int    = 60
  val HugeScaleDown: Float = java.lang.Math.scalb(1.0f, -HugeScaleLog)

  private[core] def baseByteSize(levels: Int): Int = 4 + 4 + 1 + 4 + 12 * levels

  def deserialize(bytes: Array[Byte]): ReproFloat = deserialize(ByteBuffer.wrap(bytes))

  private def deserialize(bb: ByteBuffer): ReproFloat = {
    val st = new ReproFloat(bb.getInt)
    val sl = st.slots
    sl.e1(0) = bb.getInt
    bb.get()
    sl.setNonFinite(0, bb.getFloat)
    var l = 0
    while (l < st.levels) { sl.s(l) = bb.getFloat; l += 1 }
    l = 0
    while (l < st.levels) { sl.c(l) = bb.getLong; l += 1 }
    if (bb.getInt > 0) sl.huge = deserialize(bb).slots
    st
  }

  def sum(values: Array[Float], levels: Int): Float = {
    val st = new ReproFloat(levels)
    var i = 0
    while (i < values.length) { st.add(values(i)); i += 1 }
    st.value
  }

  def sumBatched(values: Array[Float], levels: Int): Float = {
    val st = new ReproFloat(levels)
    st.addBatch(values, 0, values.length, new RsumBatchF(levels))
    st.value
  }
}
