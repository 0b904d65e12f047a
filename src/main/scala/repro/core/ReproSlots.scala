package repro.core

/** `n` states of the paper's `repro<double,L>` type (§IV) in one
  * struct-of-arrays layout: slot `i` is the [[RsumD]] state at
  * `s/c(i*L until (i+1)*L)` with frame `e1(i)`, the non-finite side sum
  * `nonFinite(i)`, and slot `i` of the `huge` sidecar, a lazily allocated
  * layout of the same shape. [[ReproDouble]] is the one-slot view; the exec
  * tables keep one slot per group.
  *
  * The side sums are stored after the levels in `s`, which saves an array
  * per state: millions of one-slot states can be alive at once (per-group
  * references, Spark buffers), and each object more per state costs
  * allocation and GC time. The frames `e1` keep an array of their own:
  * stored after the carries in `c`, they made the JIT's code for `add`
  * too big to inline into the table loops and `ReproDouble` callers.
  *
  * This class alone decides where a value goes:
  *   - |b| < 2^987: the RSUM state;
  *   - finite |b| >= 2^987 would need an extractor exponent beyond the
  *     double range (`E(b) + M - W + 2 > 1023`), so `b * 2^-600` (power-of-
  *     two scaling is exact) goes into the sidecar; `value` adds
  *     `scalb(huge, 600)` back, overflowing to ±Inf deterministically;
  *   - NaN/±Inf: the side sum, which is order-independent on the
  *     non-finite subset (Inf+Inf=Inf, Inf-Inf=NaN, NaN sticky) and is
  *     non-finite exactly when a non-finite value was added.
  *
  * `add`, `addBatch`, `merge` and `value` are bit-reproducible: a slot's
  * value depends only on the multiset of values that reached it.
  */
final class ReproSlotsD(val n: Int, val levels: Int) extends Serializable {
  require(levels >= 1 && levels <= 16, s"levels must be in [1,16], got $levels")

  private val tail = n * levels
  private[core] val s = new Array[Double](tail + n)
  private[core] val c = new Array[Long](tail)
  private[core] val e1 = new Array[Int](n)
  private[core] var huge: ReproSlotsD = _
  java.util.Arrays.fill(e1, RsumD.EMPTY)

  private[core] def nonFinite(i: Int): Double = s(tail + i)
  private[core] def setNonFinite(i: Int, v: Double): Unit = s(tail + i) = v
  private[core] def hasNonFinite(i: Int): Boolean = !java.lang.Double.isFinite(nonFinite(i))

  private def hugeSlots: ReproSlotsD = {
    if (huge == null) huge = new ReproSlotsD(n, levels)
    huge
  }

  /** True if nothing contributing to the sum reached slot `i`. */
  def isEmpty(i: Int): Boolean =
    e1(i) == RsumD.EMPTY && nonFinite(i) == 0.0 && (huge == null || huge.isEmpty(i))

  /** The paper's `operator+=(ScalarT)` on slot `i`. */
  def add(i: Int, b: Double): Unit =
    if (Math.abs(b) < ReproDouble.HugeThreshold) e1(i) = RsumD.add(s, c, i * levels, levels, e1(i), b)
    else if (java.lang.Double.isFinite(b)) hugeSlots.add(i, b * ReproDouble.HugeScaleDown)
    else setNonFinite(i, nonFinite(i) + b)

  /** Add `values(from until from+len)` to slot `i` through the batched
    * kernel; the state is bit-identical to adding the values one by one.
    * A batch shorter than [[FpD.BatchMin]], or one the kernel refuses
    * because it holds a huge or non-finite value, is routed per value.
    */
  def addBatch(i: Int, values: Array[Double], from: Int, len: Int, scratch: RsumBatchD): Unit = {
    require(scratch.levels == levels, "scratch lane width mismatch")
    val e = if (len >= FpD.BatchMin) scratch.run(values, from, len, s, c, i * levels, e1(i)) else RsumBatchD.OutOfRange
    if (e != RsumBatchD.OutOfRange) e1(i) = e
    else {
      var j = from
      while (j < from + len) { add(i, values(j)); j += 1 }
    }
  }

  /** The paper's `operator+=(repro<double,L>)`: merge slot `j` of `o` into
    * slot `i`. `o` is left untouched.
    */
  def merge(i: Int, o: ReproSlotsD, j: Int): Unit = {
    require(o.levels == levels, s"cannot merge repro<double,${o.levels}> into repro<double,$levels>")
    if (o.hasNonFinite(j)) setNonFinite(i, nonFinite(i) + o.nonFinite(j))
    if (o.huge != null && !o.huge.isEmpty(j)) hugeSlots.merge(i, o.huge, j)
    val eo = o.e1(j)
    if (eo == RsumD.EMPTY) return
    val e = e1(i)
    val off = j * levels
    // RsumD.merge demotes its B argument in place, so merge a copy when `o`
    // has the lower frame; otherwise it only renormalizes `o` (content-
    // preserving).
    if (e != RsumD.EMPTY && e > eo)
      e1(i) = RsumD.merge(s, c, i * levels, e,
                        java.util.Arrays.copyOfRange(o.s, off, off + levels),
                        java.util.Arrays.copyOfRange(o.c, off, off + levels), 0, eo, levels)
    else e1(i) = RsumD.merge(s, c, i * levels, e, o.s, o.c, off, eo, levels)
  }

  /** Finalized sum of slot `i` (a deterministic function of its canonical
    * state). Every NaN comes out as `Double.NaN`: the side sum's NaN bits
    * depend on the order in which NaN and ±Inf met.
    */
  def value(i: Int): Double = {
    val nf = nonFinite(i)
    if (java.lang.Double.isNaN(nf)) return Double.NaN
    if (nf != 0.0) return nf
    val base = RsumD.eval(s, c, i * levels, levels, e1(i))
    if (huge == null || huge.isEmpty(i)) base
    else Math.scalb(huge.value(i), ReproDouble.HugeScaleLog) + base
  }

  /** Return slot `i` to the empty state. */
  def clear(i: Int): Unit = {
    java.util.Arrays.fill(s, i * levels, (i + 1) * levels, 0.0)
    java.util.Arrays.fill(c, i * levels, (i + 1) * levels, 0L)
    e1(i) = RsumD.EMPTY
    setNonFinite(i, 0.0)
    if (huge != null) huge.clear(i)
  }

  def copy(): ReproSlotsD = {
    val o = new ReproSlotsD(n, levels)
    System.arraycopy(s, 0, o.s, 0, s.length)
    System.arraycopy(c, 0, o.c, 0, c.length)
    System.arraycopy(e1, 0, o.e1, 0, n)
    if (huge != null) o.huge = huge.copy()
    o
  }
}

/** `n` states of `repro<float,L>` — binary32 mirror of [[ReproSlotsD]].
  * Values with |b| >= 2^120 would need an out-of-range extractor
  * (`E(b) + M - W + 2 > 127`) and go to the sidecar as `b * 2^-60`.
  */
final class ReproSlotsF(val n: Int, val levels: Int) extends Serializable {
  require(levels >= 1 && levels <= 16, s"levels must be in [1,16], got $levels")

  private val tail = n * levels
  private[core] val s = new Array[Float](tail + n)
  private[core] val c = new Array[Long](tail)
  private[core] val e1 = new Array[Int](n)
  private[core] var huge: ReproSlotsF = _
  java.util.Arrays.fill(e1, RsumF.EMPTY)

  private[core] def nonFinite(i: Int): Float = s(tail + i)
  private[core] def setNonFinite(i: Int, v: Float): Unit = s(tail + i) = v
  private[core] def hasNonFinite(i: Int): Boolean = !java.lang.Float.isFinite(nonFinite(i))

  private def hugeSlots: ReproSlotsF = {
    if (huge == null) huge = new ReproSlotsF(n, levels)
    huge
  }

  def isEmpty(i: Int): Boolean =
    e1(i) == RsumF.EMPTY && nonFinite(i) == 0.0f && (huge == null || huge.isEmpty(i))

  def add(i: Int, b: Float): Unit =
    if (Math.abs(b) < ReproFloat.HugeThreshold) e1(i) = RsumF.add(s, c, i * levels, levels, e1(i), b)
    else if (java.lang.Float.isFinite(b)) hugeSlots.add(i, b * ReproFloat.HugeScaleDown)
    else setNonFinite(i, nonFinite(i) + b)

  def addBatch(i: Int, values: Array[Float], from: Int, len: Int, scratch: RsumBatchF): Unit = {
    require(scratch.levels == levels, "scratch lane width mismatch")
    val e = if (len >= FpF.BatchMin) scratch.run(values, from, len, s, c, i * levels, e1(i)) else RsumBatchF.OutOfRange
    if (e != RsumBatchF.OutOfRange) e1(i) = e
    else {
      var j = from
      while (j < from + len) { add(i, values(j)); j += 1 }
    }
  }

  def merge(i: Int, o: ReproSlotsF, j: Int): Unit = {
    require(o.levels == levels, s"cannot merge repro<float,${o.levels}> into repro<float,$levels>")
    if (o.hasNonFinite(j)) setNonFinite(i, nonFinite(i) + o.nonFinite(j))
    if (o.huge != null && !o.huge.isEmpty(j)) hugeSlots.merge(i, o.huge, j)
    val eo = o.e1(j)
    if (eo == RsumF.EMPTY) return
    val e = e1(i)
    val off = j * levels
    if (e != RsumF.EMPTY && e > eo)
      e1(i) = RsumF.merge(s, c, i * levels, e,
                        java.util.Arrays.copyOfRange(o.s, off, off + levels),
                        java.util.Arrays.copyOfRange(o.c, off, off + levels), 0, eo, levels)
    else e1(i) = RsumF.merge(s, c, i * levels, e, o.s, o.c, off, eo, levels)
  }

  def value(i: Int): Float = {
    val nf = nonFinite(i)
    if (java.lang.Float.isNaN(nf)) return Float.NaN
    if (nf != 0.0f) return nf
    val base = RsumF.eval(s, c, i * levels, levels, e1(i))
    if (huge == null || huge.isEmpty(i)) base
    else Math.scalb(huge.value(i), ReproFloat.HugeScaleLog) + base
  }

  def clear(i: Int): Unit = {
    java.util.Arrays.fill(s, i * levels, (i + 1) * levels, 0.0f)
    java.util.Arrays.fill(c, i * levels, (i + 1) * levels, 0L)
    e1(i) = RsumF.EMPTY
    setNonFinite(i, 0.0f)
    if (huge != null) huge.clear(i)
  }

  def copy(): ReproSlotsF = {
    val o = new ReproSlotsF(n, levels)
    System.arraycopy(s, 0, o.s, 0, s.length)
    System.arraycopy(c, 0, o.c, 0, c.length)
    System.arraycopy(e1, 0, o.e1, 0, n)
    if (huge != null) o.huge = huge.copy()
    o
  }
}
