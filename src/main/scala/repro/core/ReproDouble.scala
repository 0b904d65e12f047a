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
final class ReproDouble private[core] (private[core] val slots: ReproSlotsD) extends Serializable {

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

  /** Bitwise state equality — the reproducibility criterion used in tests.
    * Both states are normalized first (normalization is content-preserving).
    */
  def bitEquals(o: ReproDouble): Boolean = slots.sameState(o.slots, FpD.W, FpD.ELMIN)

  /** Binary image (for Spark aggregation-buffer shipping). */
  def serialize(): Array[Byte] = slots.image()
}

object ReproDouble {
  /** |b| >= 2^987 needs an out-of-range extractor and is routed to the
    * scaled state.
    */
  val HugeThreshold: Double = java.lang.Math.scalb(1.0, 987)
  val HugeScaleLog: Int     = 600
  val HugeScaleDown: Double = java.lang.Math.scalb(1.0, -HugeScaleLog)

  def deserialize(bytes: Array[Byte]): ReproDouble = {
    val bb = ByteBuffer.wrap(bytes)
    val st = new ReproDouble(bb.getInt(0))
    st.slots.read(bb)
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
