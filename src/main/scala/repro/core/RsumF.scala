package repro.core

/** RSUM kernel for `float` — the binary32 mirror of [[RsumD]]; see that
  * object for the algorithm and invariants. The paper's single-precision
  * parameter choices apply (W=18), see [[FpF]].
  */
object RsumF {
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

/** RSUM SIMD for floats — the binary32 mirror of [[RsumBatchD]], with
  * `V = 8` lane sums per level in locals. `4 / ufp = 2^(2-e)` is a normal
  * float for every level exponent e in [ELMIN, 126].
  */
final class RsumBatchF(val levels: Int) {
  import FpF._
  import RsumF._

  private val ls = new Array[Float](levels * V)
  private val lc = new Array[Long](levels)
  private val ext = new Array[Float](levels)
  private val rbuf = new Array[Float](V * NB)

  private def initLevel(l: Int, v0: Int, e1: Int): Unit = {
    val nom = nominal(e1, l)
    var v = v0
    while (v < V) { ls(l * V + v) = nom; v += 1 }
    ext(l) = nom
  }

  private def demoteLanes(e1Old: Int, e1New: Int): Unit = {
    val k = (e1New - e1Old) / W
    var l = levels - 1
    while (l >= 0) {
      if (l >= k) {
        System.arraycopy(ls, (l - k) * V, ls, l * V, V)
        lc(l) = lc(l - k)
        ext(l) = nominal(e1New, l)
      } else { initLevel(l, 0, e1New); lc(l) = 0L }
      l -= 1
    }
  }

  private def propagateLanes(e1: Int): Unit = {
    var l = 0
    while (l < levels) {
      val e       = eOf(e1, l)
      val quarter = pow2(e - 2)
      val inv     = pow2(2 - e)
      var v = l * V
      while (v < (l + 1) * V) {
        val dev = ls(v) - ext(l)
        if (!(dev >= 0.0f && dev < quarter)) {
          val d = Math.floor((dev * inv).toDouble)
          ls(v) -= (d * quarter).toFloat
          lc(l) += d.toLong
        }
        v += 1
      }
      l += 1
    }
  }

  // lane-striped extraction of one block — see RsumBatchD.extract
  private def extract(src: Array[Float], from: Int, m: Int, l: Int): Unit = {
    val a    = ext(l)
    val base = l * V
    var s0 = ls(base);     var s1 = ls(base + 1); var s2 = ls(base + 2); var s3 = ls(base + 3)
    var s4 = ls(base + 4); var s5 = ls(base + 5); var s6 = ls(base + 6); var s7 = ls(base + 7)
    var t = 0
    while (t < (m & -V)) {
      val p = from + t
      val r0 = src(p);     val q0 = (r0 + a) - a; rbuf(t) = r0 - q0;     s0 += q0
      val r1 = src(p + 1); val q1 = (r1 + a) - a; rbuf(t + 1) = r1 - q1; s1 += q1
      val r2 = src(p + 2); val q2 = (r2 + a) - a; rbuf(t + 2) = r2 - q2; s2 += q2
      val r3 = src(p + 3); val q3 = (r3 + a) - a; rbuf(t + 3) = r3 - q3; s3 += q3
      val r4 = src(p + 4); val q4 = (r4 + a) - a; rbuf(t + 4) = r4 - q4; s4 += q4
      val r5 = src(p + 5); val q5 = (r5 + a) - a; rbuf(t + 5) = r5 - q5; s5 += q5
      val r6 = src(p + 6); val q6 = (r6 + a) - a; rbuf(t + 6) = r6 - q6; s6 += q6
      val r7 = src(p + 7); val q7 = (r7 + a) - a; rbuf(t + 7) = r7 - q7; s7 += q7
      t += V
    }
    ls(base) = s0;     ls(base + 1) = s1; ls(base + 2) = s2; ls(base + 3) = s3
    ls(base + 4) = s4; ls(base + 5) = s5; ls(base + 6) = s6; ls(base + 7) = s7
    while (t < m) {
      val r = src(from + t)
      val q = (r + a) - a
      rbuf(t) = r - q
      ls(base + (t & (V - 1))) += q
      t += 1
    }
  }

  /** Add `values(from until from+len)` to the normalized state in `s`/`c`
    * at `off`; returns the new `e1`, or [[RsumBatchF.OutOfRange]] with
    * `s`/`c` untouched if a value is huge (|b| >=
    * [[ReproFloat.HugeThreshold]]), ±Inf or NaN.
    */
  def run(values: Array[Float], from: Int, len: Int,
          s: Array[Float], c: Array[Long], off: Int, e1In: Int): Int = {
    if (len <= 0) return e1In
    var e1 = e1In

    if (e1 != EMPTY) {
      var l = 0
      while (l < levels) { ls(l * V) = s(off + l); lc(l) = c(off + l); initLevel(l, 1, e1); l += 1 }
    }

    val end = from + len
    var i   = from
    while (i < end) {
      val m = math.min(V * NB, end - i)
      if (i > from && e1 != EMPTY) propagateLanes(e1)
      // one range scan on the |b| bits: see RsumBatchD.run
      var mx = 0
      var j  = i
      while (j < i + m) {
        mx = Math.max(mx, java.lang.Float.floatToRawIntBits(values(j)) & Int.MaxValue)
        j += 1
      }
      if (mx >= RsumBatchF.HugeBits) return RsumBatchF.OutOfRange
      if (mx != 0) {
        val req = requiredE1(java.lang.Float.intBitsToFloat(mx))
        if (e1 == EMPTY) {
          e1 = req
          var l = 0
          while (l < levels) { initLevel(l, 0, e1); lc(l) = 0L; l += 1 }
        } else if (req > e1) { demoteLanes(e1, req); e1 = req }

        extract(values, i, m, 0)
        var l = 1
        while (l < levels) { extract(rbuf, 0, m, l); l += 1 }
      }
      i += m
    }

    // Horizontal merge with the last block's propagation folded in, as in
    // RsumBatchD.run. A lane's deviation lies in [-1/8, 3/8) * ufp, so the
    // V = 8 deviations sum to within [-1, 3) * ufp: multiples of ulp(ufp)
    // that need up to 25 bits, so they are summed in double. The level's
    // new sum lies in [1.5, 1.75) * ufp and narrows to float exactly.
    if (e1 != EMPTY) {
      var l = 0
      while (l < levels) {
        val e      = eOf(e1, l)
        val nom    = ext(l)
        var devTot = 0.0
        var v = l * V
        while (v < (l + 1) * V) { devTot += ls(v) - nom; v += 1 }
        val k = Math.floor(devTot * RsumD.pow2(2 - e))
        s(off + l) = (nom + (devTot - k * RsumD.pow2(e - 2))).toFloat
        c(off + l) = lc(l) + k.toLong
        l += 1
      }
    }
    e1
  }
}

object RsumBatchF {
  /** See [[RsumBatchD.OutOfRange]]. */
  final val OutOfRange = Int.MaxValue

  private val HugeBits = java.lang.Float.floatToRawIntBits(ReproFloat.HugeThreshold)
}
