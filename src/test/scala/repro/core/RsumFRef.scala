package repro.core

/** The reference for float RSUM: scalar RSUM in binary32 arithmetic, the
  * way the library computed `repro<float,L>` before float states moved
  * onto [[RsumD]]'s double arithmetic over float's grid. Kept unchanged
  * (only renamed) so that tests can check the float path against it bit
  * for bit: running sums, carries, frame and `eval`. Its `merge` consumes
  * B (it may demote and renormalize B in place).
  */
object RsumFRef {
  import FpF._

  /** Sentinel `e1` for "no finite nonzero value seen yet". */
  final val EMPTY: Int = Int.MinValue

  /** 2^e as a float, for e in the normal range [-126, 127]. */
  @inline def pow2(e: Int): Float =
    java.lang.Float.intBitsToFloat((e + 127) << 23)

  /** Exponent of level `l` (0-based) of a state with level-1 exponent e1. */
  @inline def eOf(e1: Int, l: Int): Int = {
    val e = e1 - l * W
    if (e < ELMIN) ELMIN else e
  }

  /** Nominal (deviation-zero) running sum of level `l`. */
  @inline def nominal(e1: Int, l: Int): Float = 1.5f * pow2(eOf(e1, l))

  /** Smallest grid exponent whose window admits |b| (see [[RsumD.requiredE1]]). */
  @inline def requiredE1(b: Float): Int = {
    val need = Math.getExponent(b) + M - W + 2
    val g = W * Math.floorDiv(need + W - 1, W)
    if (g < E1MIN) E1MIN else g
  }

  /** Initialize all levels of a state to their nominal values. */
  def initLevels(s: Array[Float], c: Array[Long], off: Int, levels: Int, e1: Int): Unit = {
    var l = 0
    while (l < levels) { s(off + l) = nominal(e1, l); c(off + l) = 0L; l += 1 }
  }

  /** Demote a state from frame `e1Old` to the higher frame `e1New`. */
  def demote(s: Array[Float], c: Array[Long], off: Int, levels: Int, e1Old: Int, e1New: Int): Unit = {
    val k = (e1New - e1Old) / W
    var l = levels - 1
    while (l >= 0) {
      if (l >= k) { s(off + l) = s(off + l - k); c(off + l) = c(off + l - k) }
      else { s(off + l) = nominal(e1New, l); c(off + l) = 0L }
      l -= 1
    }
  }

  /** Carry-bit propagation: renormalize into the `[1.5, 1.75) * ufp` band. */
  def propagate(s: Array[Float], c: Array[Long], off: Int, levels: Int, e1: Int): Unit = {
    var l = 0
    while (l < levels) {
      val ufp     = pow2(eOf(e1, l))
      val quarter = 0.25f * ufp
      val dev     = s(off + l) - 1.5f * ufp
      val d       = Math.floor((dev / quarter).toDouble)
      if (d != 0.0) {
        s(off + l) -= (d * quarter).toFloat
        c(off + l) += d.toLong
      }
      l += 1
    }
  }

  /** Add one finite value to a normalized state; returns the new `e1`. */
  def add(s: Array[Float], c: Array[Long], off: Int, levels: Int, e1In: Int, b: Float): Int = {
    if (b == 0.0f) return e1In
    var e1  = e1In
    val req = requiredE1(b)
    if (e1 == EMPTY) { e1 = req; initLevels(s, c, off, levels, e1) }
    else if (req > e1) { demote(s, c, off, levels, e1, req); e1 = req }
    var r = b
    var l = 0
    while (l < levels && r != 0.0f) {
      // fixed extractor — see RsumD.add for why this (and not the running
      // sum) keeps tie-breaking order-independent
      val a = nominal(e1, l)
      val q = (r + a) - a
      s(off + l) += q
      r -= q
      l += 1
    }
    propagate(s, c, off, levels, e1)
    e1
  }

  /** Merge state B into state A; B is consumed. Exact, associative,
    * commutative bit-for-bit.
    */
  def merge(sA: Array[Float], cA: Array[Long], offA: Int, e1AIn: Int,
            sB: Array[Float], cB: Array[Long], offB: Int, e1BIn: Int,
            levels: Int): Int = {
    if (e1BIn == EMPTY) return e1AIn
    var e1A = e1AIn
    var e1B = e1BIn
    if (e1A == EMPTY) {
      var l = 0
      while (l < levels) { sA(offA + l) = sB(offB + l); cA(offA + l) = cB(offB + l); l += 1 }
      return e1B
    }
    if (e1B > e1A) { demote(sA, cA, offA, levels, e1A, e1B); e1A = e1B }
    else if (e1A > e1B) { demote(sB, cB, offB, levels, e1B, e1A); e1B = e1A }
    propagate(sA, cA, offA, levels, e1A)
    propagate(sB, cB, offB, levels, e1B)
    var l = 0
    while (l < levels) {
      val ufp = pow2(eOf(e1A, l))
      val dev = sB(offB + l) - 1.5f * ufp
      sA(offA + l) += dev
      cA(offA + l) += cB(offB + l)
      l += 1
    }
    propagate(sA, cA, offA, levels, e1A)
    e1A
  }

  /** Finalize a state into a float, last level first. */
  def eval(s: Array[Float], c: Array[Long], off: Int, levels: Int, e1: Int): Float = {
    if (e1 == EMPTY) return 0.0f
    propagate(s, c, off, levels, e1)
    var q = 0.0f
    var l = levels - 1
    while (l >= 0) {
      val ufp     = pow2(eOf(e1, l))
      val quarter = 0.25f * ufp
      q += (s(off + l) - 1.5f * ufp) + quarter * c(off + l).toFloat
      l -= 1
    }
    q
  }
}
