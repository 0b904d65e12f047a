package repro.exec

import repro.core._

/** Hash aggregation kernels (paper's HASHAGGREGATION, §IV/§V): open
  * addressing with identity hashing — the paper's choice, realistic for
  * column stores with dense domain-encoded keys. [[AggTable]] owns the keys
  * and the probe. The repro accumulators are written once for both
  * precisions, [[ReproTable]] and, with summation buffers, [[BufTable]].
  * Each final subclass, one per accumulator data type, keeps its own
  * `aggregate` row loop, so the cost differences between built-in,
  * DECIMAL, `repro<T,L>` and summation-buffer aggregates are those of the
  * accumulators, not of megamorphic dispatch.
  *
  * Tables are allocated once and reused: [[PartitionAndAggregate]] keeps
  * each calling thread's tables of the last shape it asked for, one per
  * worker, and resets them between partitions and calls (the paper's
  * operators do the same; per-partition allocation would dominate the run
  * time and wreck the cache footprint the experiments study). It keeps
  * the radix pass's output rows the same way, and `emit` writes each
  * partition's results into those rows.
  *
  * `aggregate` accumulates `keys/values(from until to)` probing from
  * `(key >>> shift) & (cap-1)` — after `d` partitioning levels the low
  * `8*d` key bits are constant within a partition, so `shift = 8*d`
  * spreads the probe sequence. `emit` finalizes the table into
  * `outKeys/outVals` at `outPos` and returns the new cursor. `merge` adds
  * another table's groups (Alg. 4 lines 4-6).
  */
object HashAgg {
  /** Slots of the largest table. */
  val MaxCapacity: Int = 1 << 30

  /** Smallest power of two >= 2*x (load factor <= 0.5). Throws
    * `IllegalArgumentException` if that is more than [[MaxCapacity]].
    */
  def capacityFor(x: Int): Int = {
    if (x > MaxCapacity / 2)
      throw new IllegalArgumentException(s"$x groups need more than the $MaxCapacity slots of the largest table")
    var cap = 16
    while (cap < 2 * x) cap <<= 1
    cap
  }
}

/** Open-addressing table of `cap` slots (a power of two) with linear
  * probing. Slot keys are `Long`s so that [[AggTable.Free]], which no `Int`
  * key equals, marks a free slot without a reserved key or a second array
  * read per probe. At least one slot always stays free, so every probe
  * ends: the key that would take the last free slot is refused with an
  * `IllegalArgumentException`.
  *
  * `A` is the value-array type of `aggregate`. A subclass starts the
  * accumulator of a newly claimed slot in `init`, adds another table's slot
  * to it in `mergeSlot` (after `checkMerge`) and finalizes it in `result`.
  * The table records the order in which its slots were claimed: `reset`
  * frees just those, `merge` reads the other table's keys in that order,
  * and `emit` marks them in a bitmap to visit them in slot order, so none
  * of them costs O(`cap`).
  */
abstract class AggTable[A](val cap: Int) {
  require(cap > 0 && (cap & (cap - 1)) == 0, s"capacity must be a power of two, got $cap")

  private val mask = cap - 1
  private val slotKey = new Array[Long](cap)
  // The claimed slots, in claim order.
  private val order = new Array[Int](cap)
  // How many slots are claimed, at `count(AggTable.Used)`: a cache line
  // from either end of an array of its own. A worker writes it on every
  // claim, and the collector may move the reused tables of other workers
  // next to this one; as a field it shared cache lines with the fields
  // they read on every row.
  private val count = new Array[Int](2 * AggTable.Used)
  // One bit per slot, set only inside `emit`: the claimed slots.
  private val marks = new Array[Long]((cap + 63) >>> 6)
  java.util.Arrays.fill(slotKey, AggTable.Free)

  def aggregate(keys: Array[Int], values: A, from: Int, to: Int, shift: Int): Unit

  /** Start the accumulator of slot `h`, just claimed by a new key. */
  protected def init(h: Int): Unit

  /** Throws unless `o`, a table of this class, can be merged into this
    * one; [[merge]] calls it before it claims a slot. The plain tables do
    * not merge: a merge of partial sums rounds differently from one sum
    * over both inputs.
    */
  protected def checkMerge(o: AggTable[A]): Unit = refuseMerge()

  /** Add slot `j` of `o`, which passed [[checkMerge]], to slot `h`, `o`'s
    * pending input included.
    */
  protected def mergeSlot(h: Int, o: AggTable[A], j: Int): Unit = refuseMerge()

  private def refuseMerge(): Nothing =
    throw new UnsupportedOperationException(s"${getClass.getSimpleName} does not merge")

  /** Finalized aggregate of slot `h`, its pending input included. It may
    * flush that input, but it must leave the table's later results as
    * they were.
    */
  protected def result(h: Int): Double

  /** Called on the running thread by `emit` before its first `result` and
    * by `merge` before its first `mergeSlot`.
    */
  protected def begin(): Unit = ()

  /** Number of keys in the table. */
  final def size: Int = count(AggTable.Used)

  /** The slot claimed `i`-th, for `i` in `0 until size`. */
  protected final def claimedAt(i: Int): Int = order(i)

  final def reset(): Unit = {
    var i = 0
    while (i < size) { slotKey(order(i)) = AggTable.Free; i += 1 }
    count(AggTable.Used) = 0
  }

  /** Slot of `key`; the key's first row claims the first free slot on its
    * probe path. Small enough for the JIT to inline into each subclass's
    * `aggregate`, where the call to `init` then binds statically.
    */
  protected final def slotOf(key: Int, shift: Int): Int = {
    val k = key.toLong
    var h = (key >>> shift) & mask
    var sk = slotKey(h)
    while (sk != k) {
      if (sk == AggTable.Free) {
        val used = count(AggTable.Used)
        if (used == mask) refuse(key)
        slotKey(h) = k
        order(used) = h
        count(AggTable.Used) = used + 1
        init(h)
        return h
      }
      h = (h + 1) & mask
      sk = slotKey(h)
    }
    h
  }

  private def refuse(key: Int): Nothing =
    throw new IllegalArgumentException(s"key $key would take the last free slot of a $cap-slot table")

  /** Adds every group of `o`, a table of this class, its pending input
    * included, with `o` left untouched: `o`'s keys in the order `o` claimed
    * them, probed from `shift` as in `aggregate`. A key new to this table
    * thus takes the slot it would have taken had `o`'s input come after
    * this table's. Throws `IllegalArgumentException` if `o` is of another
    * class, and `checkMerge`'s exception if it cannot merge, before it
    * claims a slot.
    */
  final def merge(o: AggTable[A], shift: Int): Unit = {
    if (o.getClass ne getClass)
      throw new IllegalArgumentException(s"cannot merge a ${o.getClass.getSimpleName} into a ${getClass.getSimpleName}")
    checkMerge(o)
    begin()
    var i = 0
    while (i < o.size) {
      val j = o.order(i)
      mergeSlot(slotOf(o.slotKey(j).toInt, shift), o, j)
      i += 1
    }
  }

  /** Adds the input a table still holds back into its accumulators, on the
    * calling thread. Neither `emit` nor [[merge]] needs it: `result` and
    * `mergeSlot` take a slot's pending input. It moves that work to the
    * thread that calls it, as [[PartitionAndAggregate]]'s workers do before
    * the caller merges their tables.
    */
  def flush(): Unit = ()

  final def emit(outKeys: Array[Int], outVals: Array[Double], outPos: Int): Int =
    emitInto(outKeys, outVals, null, outPos)

  /** [[emit]] into a float array. Only for the float tables, whose results
    * are floats widened, so narrowing them back loses nothing.
    */
  final def emitFloats(outKeys: Array[Int], outVals: Array[Float], outPos: Int): Int =
    emitInto(outKeys, null, outVals, outPos)

  /** Writes the key and result of every claimed slot from `outPos` on, in
    * slot order, into `outD` or, when that is null, `outF`; returns the new
    * cursor. The claim order sets the slots' marks, and the scan clears
    * each word as it reads it: O(size + cap/64). The output's room is
    * checked before any mark is set, so that no failed emit can leave a
    * mark for the next.
    */
  private def emitInto(outKeys: Array[Int], outD: Array[Double], outF: Array[Float], outPos: Int): Int = {
    val room = Math.min(outKeys.length, if (outD != null) outD.length else outF.length)
    if (outPos < 0 || size > room - outPos)
      throw new IndexOutOfBoundsException(
        s"emit of $size groups from position $outPos into arrays of ${outKeys.length} keys and " +
          s"${if (outD != null) outD.length else outF.length} values")
    begin()
    var i = 0
    while (i < size) { val h = order(i); marks(h >>> 6) |= 1L << h; i += 1 }
    var p = outPos
    var w = 0
    while (w < marks.length) {
      var m = marks(w)
      marks(w) = 0L
      while (m != 0L) {
        val h = w << 6 | java.lang.Long.numberOfTrailingZeros(m)
        outKeys(p) = slotKey(h).toInt
        if (outD != null) outD(p) = result(h) else outF(p) = result(h).toFloat
        p += 1
        m &= m - 1
      }
      w += 1
    }
    p
  }
}

object AggTable {
  final val Free: Long = Long.MinValue
  private final val Used = 16

  /** `cap`, once `cap` slots of `bsz` buffered values each are known to fit
    * one array: a buffered table checks this, in `Long`, before it
    * allocates anything.
    */
  private[exec] def bufferedCap(cap: Int, bsz: Int): Int = {
    if (bsz < 1) throw new IllegalArgumentException(s"bsz must be >= 1, got $bsz")
    if (cap.toLong * bsz > Int.MaxValue)
      throw new IllegalArgumentException(
        s"cap = $cap slots of bsz = $bsz values each are ${cap.toLong * bsz} buffered values, more than one array holds")
    cap
  }
}

/** Built-in double accumulator — the non-reproducible baseline. A slot
  * starts at -0.0, the additive identity, so its sum is the same as when
  * the first value is assigned.
  */
final class PlainDTable(cap: Int) extends AggTable[Array[Double]](cap) {
  private val sum = new Array[Double](cap)

  protected def init(h: Int): Unit = sum(h) = -0.0
  protected def result(h: Int): Double = sum(h)

  def aggregate(keys: Array[Int], values: Array[Double], from: Int, to: Int, shift: Int): Unit = {
    var i = from
    while (i < to) { sum(slotOf(keys(i), shift)) += values(i); i += 1 }
  }
}

/** Built-in float accumulator. */
final class PlainFTable(cap: Int) extends AggTable[Array[Float]](cap) {
  private val sum = new Array[Float](cap)

  protected def init(h: Int): Unit = sum(h) = -0.0f
  protected def result(h: Int): Double = sum(h).toDouble

  def aggregate(keys: Array[Int], values: Array[Float], from: Int, to: Int, shift: Int): Unit = {
    var i = from
    while (i < to) { sum(slotOf(keys(i), shift)) += values(i); i += 1 }
  }
}

/** DECIMAL(19) reference: 64-bit integer accumulation of values scaled by
  * 10^4 (the paper implements DECIMAL(p) as built-in integers). Its sums,
  * merges included, wrap modulo 2^64, so they do not depend on the order.
  */
final class Dec64Table(cap: Int) extends AggTable[Array[Double]](cap) {
  private val sum = new Array[Long](cap)

  protected def init(h: Int): Unit = sum(h) = 0L
  override protected def checkMerge(o: AggTable[Array[Double]]): Unit = ()
  override protected def mergeSlot(h: Int, o: AggTable[Array[Double]], j: Int): Unit =
    sum(h) += o.asInstanceOf[Dec64Table].sum(j)
  protected def result(h: Int): Double = sum(h) / 10000.0

  def aggregate(keys: Array[Int], values: Array[Double], from: Int, to: Int, shift: Int): Unit = {
    var i = from
    while (i < to) { sum(slotOf(keys(i), shift)) += Math.round(values(i) * 10000.0); i += 1 }
  }
}

/** `repro<T,L>` (§IV) for both precisions: one state slot of `states`
  * per table slot. `A` is the value-array type and `S` the state slots of
  * its precision. A final subclass per precision adds the row loop, where
  * `slotOf`, `init` and the typed `add` bind statically.
  */
abstract class ReproTable[A, S <: ReproSlots[S, A]](cap: Int, protected val states: S) extends AggTable[A](cap) {
  protected def init(h: Int): Unit = states.clear(h)
  override protected def checkMerge(o: AggTable[A]): Unit = {
    val l = o.asInstanceOf[ReproTable[A, S]].states.levels
    if (l != states.levels)
      throw new IllegalArgumentException(s"cannot merge a table of $l levels into one of ${states.levels}")
  }
  override protected def mergeSlot(h: Int, o: AggTable[A], j: Int): Unit =
    states.merge(h, o.asInstanceOf[ReproTable[A, S]].states, j)
  protected def result(h: Int): Double = states.result(h)
}

/** `repro<double,L>` WITHOUT summation buffers (§IV): one state slot per
  * table slot, `operator+=(double)` per row.
  */
final class ReproDTable(cap: Int, val levels: Int)
    extends ReproTable[Array[Double], ReproSlotsD](cap, new ReproSlotsD(cap, levels)) {
  def aggregate(keys: Array[Int], values: Array[Double], from: Int, to: Int, shift: Int): Unit = {
    var i = from
    while (i < to) { states.add(slotOf(keys(i), shift), values(i)); i += 1 }
  }
}

/** `repro<float,L>` WITHOUT summation buffers. */
final class ReproFTable(cap: Int, val levels: Int)
    extends ReproTable[Array[Float], ReproSlotsF](cap, new ReproSlotsF(cap, levels)) {
  def aggregate(keys: Array[Int], values: Array[Float], from: Int, to: Int, shift: Int): Unit = {
    var i = from
    while (i < to) { states.add(slotOf(keys(i), shift), values(i)); i += 1 }
  }
}

/** `repro<T,L>` WITH summation buffers (§V-A, Fig. 5), for both
  * precisions: each slot is the repro state + a `bsz`-value buffer in
  * `buf` + its fill offset; values are appended per row and flushed
  * through the vectorized kernel when full, and by `flush`. `emit` flushes
  * a slot's pending values only if its state holds something already: a
  * slot whose buffer never filled, as at `paa-wide`'s ~4 rows per group,
  * has an empty state, and [[RsumBatchD.sumOf]] gives its result, the bits
  * of a flush and `value`, without writing the state, if it holds at most
  * [[RsumBatchD.SpreadMax]] values. Its values stay pending, so a second
  * `emit` gives the same result, and later rows join them as before.
  * `merge` adds the other table's pending values of a slot, at that
  * table's `bsz`, to the slot's state. The table holds no kernel scratch:
  * `aggregate`, `flush`, `merge` and `emit` each take the running thread's
  * kernel ([[RsumBatchD.forThread]]) once.
  *
  * A subclass allocates `states` and `buf`, checking `cap * bsz` with
  * [[AggTable.bufferedCap]] in the first of those arguments, which run
  * before any constructor allocates.
  */
abstract class BufTable[A, S <: ReproSlots[S, A]](cap: Int, slots: S, protected val buf: A)
    extends ReproTable[A, S](cap, slots) {
  protected val fill = new Array[Int](cap)
  // The running thread's kernel, taken by `begin`.
  private var kernel: RsumBatchD = _

  def bsz: Int

  override protected def init(h: Int): Unit = { super.init(h); fill(h) = 0 }
  override protected def mergeSlot(h: Int, o: AggTable[A], j: Int): Unit = {
    super.mergeSlot(h, o, j)
    val b = o.asInstanceOf[BufTable[A, S]]
    if (b.fill(j) > 0) states.addBatch(h, b.buf, j * b.bsz, b.fill(j), kernel)
  }
  override protected def begin(): Unit = kernel = RsumBatchD.forThread(states.levels)

  override protected def result(h: Int): Double = {
    val n = fill(h)
    if (n > 0) {
      if (states.isEmpty(h)) {
        val v = states.sumOf(buf, h * bsz, n, kernel)
        if (!java.lang.Double.isNaN(v)) return v
      }
      states.addBatch(h, buf, h * bsz, n, kernel)
      fill(h) = 0
    }
    states.result(h)
  }

  override def flush(): Unit = {
    val k = RsumBatchD.forThread(states.levels)
    var i = 0
    while (i < size) {
      val h = claimedAt(i)
      if (fill(h) > 0) { states.addBatch(h, buf, h * bsz, fill(h), k); fill(h) = 0 }
      i += 1
    }
  }

  final def aggregate(keys: Array[Int], values: A, from: Int, to: Int, shift: Int): Unit =
    addRows(RsumBatchD.forThread(states.levels), keys, values, from, to, shift)

  /** The row loop, apart from the kernel look-up: measured faster. */
  protected def addRows(k: RsumBatchD, keys: Array[Int], values: A, from: Int, to: Int, shift: Int): Unit
}

/** `repro<double,L>` WITH summation buffers. */
final class BufDTable(cap: Int, val levels: Int, val bsz: Int)
    extends BufTable[Array[Double], ReproSlotsD](
      cap, new ReproSlotsD(AggTable.bufferedCap(cap, bsz), levels), new Array[Double](cap * bsz)) {
  protected def addRows(k: RsumBatchD, keys: Array[Int], values: Array[Double], from: Int, to: Int, shift: Int): Unit = {
    var i = from
    while (i < to) {
      val h = slotOf(keys(i), shift)
      val n = fill(h)
      buf(h * bsz + n) = values(i)
      if (n + 1 == bsz) { states.addBatch(h, buf, h * bsz, bsz, k); fill(h) = 0 }
      else fill(h) = n + 1
      i += 1
    }
  }
}

/** `repro<float,L>` WITH summation buffers. */
final class BufFTable(cap: Int, val levels: Int, val bsz: Int)
    extends BufTable[Array[Float], ReproSlotsF](
      cap, new ReproSlotsF(AggTable.bufferedCap(cap, bsz), levels), new Array[Float](cap * bsz)) {
  protected def addRows(k: RsumBatchD, keys: Array[Int], values: Array[Float], from: Int, to: Int, shift: Int): Unit = {
    var i = from
    while (i < to) {
      val h = slotOf(keys(i), shift)
      val n = fill(h)
      buf(h * bsz + n) = values(i)
      if (n + 1 == bsz) { states.addBatch(h, buf, h * bsz, bsz, k); fill(h) = 0 }
      else fill(h) = n + 1
      i += 1
    }
  }
}
