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
  * The finalized value is bit-identical to the unbuffered path on the same
  * multiset of inputs (batched extraction captures the identical exact
  * content per value).
  */
final class BufferedReproDouble(val levels: Int, val bsz: Int) extends Serializable {
  require(bsz >= 0, s"buffer size must be >= 0, got $bsz")

  val state = new ReproDouble(levels)
  private val buf: Array[Double] = if (bsz > 0) new Array[Double](bsz) else null
  private var n: Int = 0
  @transient private var scratch: RsumBatchD = _

  private def scratchOrInit(): RsumBatchD = {
    if (scratch == null) scratch = new RsumBatchD(levels)
    scratch
  }

  def add(v: Double): Unit = {
    if (bsz == 0) state.add(v)
    else {
      buf(n) = v
      n += 1
      if (n == bsz) flush()
    }
  }

  /** Aggregate all pending values into the state (vectorized). */
  def flush(): Unit = {
    if (n > 0) { state.addBatch(buf, 0, n, scratchOrInit()); n = 0 }
  }

  /** Merge `o` into this (both sides are flushed first; `o`'s state is not
    * mutated — see [[ReproDouble.merge]]).
    */
  def merge(o: BufferedReproDouble): Unit = {
    flush(); o.flush()
    state.merge(o.state)
  }

  def value: Double = { flush(); state.value }

  def isEmpty: Boolean = n == 0 && state.isEmpty

  /** Binary image: pending values are flushed first, so only the state is
    * shipped (the paper makes the same observation for its merge phase:
    * shipping buffers would waste space).
    */
  def serialize(): Array[Byte] = {
    flush()
    val inner = state.serialize()
    val bb = ByteBuffer.allocate(8 + inner.length)
    bb.putInt(levels).putInt(bsz).put(inner)
    bb.array()
  }
}

object BufferedReproDouble {
  def deserialize(bytes: Array[Byte]): BufferedReproDouble = {
    val bb = ByteBuffer.wrap(bytes)
    val levels = bb.getInt
    val bsz = bb.getInt
    val rest = new Array[Byte](bytes.length - 8)
    bb.get(rest)
    val out = new BufferedReproDouble(levels, bsz)
    out.state.merge(ReproDouble.deserialize(rest))
    out
  }
}
