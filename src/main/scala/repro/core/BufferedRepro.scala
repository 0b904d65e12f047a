package repro.core

import java.nio.ByteBuffer

/** Summation buffer over `repro<double,L>` (paper §V-A, Fig. 5): the
  * intermediate aggregate is a reproducible state *plus* a `bsz`-slot buffer
  * of pending raw values and its fill offset. `add` only appends; when the
  * buffer fills it is flushed through the batched RSUM kernel, amortizing
  * the per-call state load/store cost.
  *
  * `bsz == 0` selects the unbuffered (scalar, per-value) path — the §IV
  * drop-in behaviour — so one type covers both experimental configurations.
  *
  * With many groups a buffer rarely fills (§V-C, Fig. 8), so a state pays
  * only for what it holds: the pending buffer starts at `min(bsz, 16)`
  * values on the first `add` and doubles up to `bsz`, and flushes use the
  * thread's kernel ([[RsumBatchD.forThread]]) instead of one of their own.
  *
  * The finalized value is bit-identical to the unbuffered path on the same
  * multiset of inputs (batched extraction captures the identical exact
  * content per value).
  *
  * The state is one [[ReproSlotsD]] slot; [[state]] is a [[ReproDouble]]
  * view over it. Spark's aggregation buffer is a subclass that adds the row
  * count, so [[BufferedReproDouble.read]] reads an image into any subclass.
  */
class BufferedReproDouble(final val levels: Int, final val bsz: Int) extends Serializable {
  require(bsz >= 0, s"buffer size must be >= 0, got $bsz")

  private val slots = new ReproSlotsD(1, levels)
  private var buf: Array[Double] = BufferedReproDouble.NoValues
  private var n: Int = 0

  /** The state without the pending values (see [[flush]]), as a
    * [[ReproDouble]] over the same slot.
    */
  final def state: ReproDouble = new ReproDouble(slots)

  final def add(v: Double): Unit = {
    if (bsz == 0) slots.add(0, v)
    else {
      if (n == buf.length) grow()
      buf(n) = v
      n += 1
      if (n == bsz) flush()
    }
  }

  private def grow(): Unit =
    buf = java.util.Arrays.copyOf(buf, if (n == 0) math.min(bsz, 16) else math.min(2 * n, bsz))

  /** Aggregate all pending values into the state (vectorized). */
  final def flush(): Unit = {
    if (n > 0) { slots.addBatch(0, buf, 0, n, RsumBatchD.forThread(levels)); n = 0 }
  }

  /** Merge `o` into this (both sides are flushed first; `o`'s state is not
    * mutated — see [[ReproDouble.merge]]).
    */
  final def merge(o: BufferedReproDouble): Unit = {
    flush(); o.flush()
    slots.merge(0, o.slots, 0)
  }

  final def value: Double = { flush(); slots.value(0) }

  final def isEmpty: Boolean = n == 0 && slots.isEmpty(0)

  private[core] def pendingCapacity: Int = buf.length

  /** Binary image: `levels`, `bsz`, then the [[ReproDouble]] image. Pending
    * values are flushed first, so only the state is shipped (the paper
    * makes the same observation for its merge phase: shipping buffers
    * would waste space).
    */
  final def serialize(): Array[Byte] = image(0).array()

  /** A heap buffer of `header` free bytes followed by the image, so that a
    * caller can prefix its own fields without copying the image.
    */
  private[repro] final def image(header: Int): ByteBuffer = {
    flush()
    val bb = ByteBuffer.allocate(header + 8 + slots.imageSize)
    bb.position(header)
    bb.putInt(levels).putInt(bsz)
    slots.write(bb)
    bb
  }
}

object BufferedReproDouble {
  private val NoValues = new Array[Double](0)

  def deserialize(bytes: Array[Byte]): BufferedReproDouble =
    read(ByteBuffer.wrap(bytes), new BufferedReproDouble(_, _))

  /** Reads an image at `bb`'s position, in place, into the state that
    * `make(levels, bsz)` returns.
    */
  private[repro] def read[S <: BufferedReproDouble](bb: ByteBuffer, make: (Int, Int) => S): S = {
    val levels = bb.getInt
    val out = make(levels, bb.getInt)
    out.slots.read(bb)
    out
  }
}
