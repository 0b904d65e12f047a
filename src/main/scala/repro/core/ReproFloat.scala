package repro.core

import java.nio.ByteBuffer

/** The paper's `repro<float,L>` data type: the float-typed counterpart of
  * [[ReproDouble]], the one-slot view of a [[ReproSlotsF]]; see those
  * classes for semantics. Its value and image are binary32 RSUM's.
  */
final class ReproFloat private (private[core] val slots: ReproSlotsF) extends Serializable {

  def this(levels: Int) = this(new ReproSlotsF(1, levels))

  def levels: Int = slots.levels

  def isEmpty: Boolean = slots.isEmpty(0)

  def add(b: Float): Unit = slots.add(0, b)

  def addBatch(values: Array[Float], from: Int, len: Int, scratch: RsumBatchD): Unit =
    slots.addBatch(0, values, from, len, scratch)

  def merge(o: ReproFloat): Unit = slots.merge(0, o.slots, 0)

  def value: Float = slots.value(0)

  def copy(): ReproFloat = new ReproFloat(slots.copy())

  def reset(): Unit = slots.clear(0)

  def bitEquals(o: ReproFloat): Boolean = slots.sameState(o.slots, FpF.W, FpF.ELMIN)

  def serialize(): Array[Byte] = slots.image()
}

object ReproFloat {
  val HugeThreshold: Float = java.lang.Math.scalb(1.0f, 120)
  val HugeScaleLog: Int    = 60
  val HugeScaleDown: Float = java.lang.Math.scalb(1.0f, -HugeScaleLog)

  def deserialize(bytes: Array[Byte]): ReproFloat = {
    val bb = ByteBuffer.wrap(bytes)
    val st = new ReproFloat(bb.getInt(0))
    st.slots.read(bb)
    st
  }

  def sum(values: Array[Float], levels: Int): Float = {
    val st = new ReproFloat(levels)
    var i = 0
    while (i < values.length) { st.add(values(i)); i += 1 }
    st.value
  }
}
