package repro.core

/** RSUM kernel for `double` (paper §III, Algorithms 2 and 3).
  *
  * A summation state is `L` levels of `(running sum S^(l), carry count
  * C^(l))` plus the level-1 extractor exponent `e1` (`ufp(S^(1)) = 2^e1`).
  * The state is stored *struct-of-arrays* style in caller-provided slices
  * `s(off..off+L)` / `c(off..off+L)` so that hash-aggregation tables can
  * hold thousands of states without boxing; `e1` travels separately (an
  * `Int` per state, [[RsumD.EMPTY]] when no finite nonzero value was seen).
  *
  * Invariants maintained by every public operation ("normalized" state):
  *   - `e1` is a multiple of [[FpD.W]] on the fixed global grid (or EMPTY),
  *     chosen as the smallest grid point admitting every value seen — the
  *     fixed point of the paper's demote loop (Alg. 2 lines 4-7);
  *   - each `S^(l)` lies in `[1.5, 1.75) * ufp`, i.e. its deviation from
  *     the nominal `1.5 * ufp` is in `[0, 0.25 * ufp)`.
  *
  * All state mutations are exact (integer arithmetic in units of the level
  * grid), so the canonical state — and hence the finalized sum — depends
  * only on the *multiset* of added values, not on the order of additions or
  * the shape of the merge tree. That is the bit-reproducibility guarantee.
  *
  * Inputs must be finite; zeros are ignored (they carry no information and
  * must not set the extractor grid). NaN/Inf handling lives in the class
  * wrappers ([[ReproDouble]]).
  */
object RsumD {
  import FpD._

  /** Sentinel `e1` for "no finite nonzero value seen yet". */
  final val EMPTY: Int = Int.MinValue

  /** 2^e as a double, for e in the normal range [-1022, 1023]. */
  @inline def pow2(e: Int): Double =
    java.lang.Double.longBitsToDouble((e + 1023).toLong << 52)

  /** Exponent of level `l` (0-based) of a state with level-1 exponent e1. */
  @inline def eOf(e1: Int, l: Int): Int = {
    val e = e1 - l * W
    if (e < ELMIN) ELMIN else e
  }

  /** Nominal (deviation-zero) running sum of level `l`. */
  @inline def nominal(e1: Int, l: Int): Double = 1.5 * pow2(eOf(e1, l))

  /** Smallest grid exponent whose window admits |b|, i.e. the fixed point
    * of `while |b| >= 2^(W-1) * ulp(S^(1)) do demote` (Alg. 2 lines 4-7):
    * validity requires `e1 >= E(b) + M - W + 2` with `E(b) = getExponent`.
    */
  @inline def requiredE1(b: Double): Int = {
    val need = Math.getExponent(b) + M - W + 2
    val g = W * Math.floorDiv(need + W - 1, W)
    if (g < E1MIN) E1MIN else g
  }

  /** Initialize all levels of a state to their nominal values. */
  def initLevels(s: Array[Double], c: Array[Long], off: Int, levels: Int, e1: Int): Unit = {
    var l = 0
    while (l < levels) { s(off + l) = nominal(e1, l); c(off + l) = 0L; l += 1 }
  }

  /** Demote a state from frame `e1Old` to the higher frame `e1New` (both on
    * the grid): level `l` becomes level `l + k`, the bottom `k` levels are
    * discarded, the top `k` levels start nominal (Alg. 2 lines 5-7 applied
    * `k` times at once).
    */
  def demote(s: Array[Double], c: Array[Long], off: Int, levels: Int, e1Old: Int, e1New: Int): Unit = {
    val k = (e1New - e1Old) / W
    var l = levels - 1
    while (l >= 0) {
      if (l >= k) { s(off + l) = s(off + l - k); c(off + l) = c(off + l - k) }
      else { s(off + l) = nominal(e1New, l); c(off + l) = 0L }
      l -= 1
    }
  }

  /** Carry-bit propagation (Alg. 2 lines 14-18): renormalize every level
    * into the `[1.5, 1.75) * ufp` band, moving whole multiples of
    * `0.25 * ufp` into the carry count. Every step is exact.
    */
  def propagate(s: Array[Double], c: Array[Long], off: Int, levels: Int, e1: Int): Unit = {
    var l = 0
    while (l < levels) {
      val ufp     = pow2(eOf(e1, l))
      val quarter = 0.25 * ufp
      val dev     = s(off + l) - 1.5 * ufp // exact (Sterbenz)
      val d       = Math.floor(dev / quarter)
      if (d != 0.0) {
        s(off + l) -= d * quarter
        c(off + l) += d.toLong
      }
      l += 1
    }
  }

  /** Add one finite value to a normalized state; returns the new `e1`.
    * This is RSUM SCALAR (Alg. 2) for a single input value.
    */
  def add(s: Array[Double], c: Array[Long], off: Int, levels: Int, e1In: Int, b: Double): Int = {
    if (b == 0.0) return e1In
    var e1  = e1In
    val req = requiredE1(b)
    if (e1 == EMPTY) { e1 = req; initLevels(s, c, off, levels, e1) }
    else if (req > e1) { demote(s, c, off, levels, e1, req); e1 = req }
    var r = b
    var l = 0
    while (l < levels && r != 0.0) {
      // Error-free transformation against the FIXED extractor 1.5 * 2^e(l)
      // (not the running sum): its parity in ulp units is constant, so
      // round-half-even tie-breaking — and hence q — depends only on r and
      // the frame, never on accumulation order. This follows Demmel &
      // Nguyen's original design and is what makes reproducibility
      // unconditional.
      val a = nominal(e1, l)
      val q = (r + a) - a     // q = r rounded to the level grid, deterministically
      s(off + l) += q         // exact: q is a multiple of ulp, S stays in (1, 2) * ufp
      r -= q                  // exact
      l += 1
    }
    propagate(s, c, off, levels, e1)
    e1
  }

  /** Merge state B into state A (the paper's `operator+=(repro)`); returns
    * A's new `e1`. B is consumed: it may be demoted and renormalized in
    * place. Exact, hence associative and commutative bit-for-bit.
    */
  def merge(sA: Array[Double], cA: Array[Long], offA: Int, e1AIn: Int,
            sB: Array[Double], cB: Array[Long], offB: Int, e1BIn: Int,
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
      val dev = sB(offB + l) - 1.5 * ufp // in [0, 0.25 * ufp), exact
      sA(offA + l) += dev                // sum stays below 2 * ufp, exact
      cA(offA + l) += cB(offB + l)
      l += 1
    }
    propagate(sA, cA, offA, levels, e1A)
    e1A
  }

  /** Finalize a state into a double (Eq. 1): sum the per-level terms from
    * the last (smallest) level up, a fixed order so the result is a pure
    * function of the canonical state.
    */
  def eval(s: Array[Double], c: Array[Long], off: Int, levels: Int, e1: Int): Double = {
    if (e1 == EMPTY) return 0.0
    propagate(s, c, off, levels, e1)
    var q = 0.0
    var l = levels - 1
    while (l >= 0) {
      val ufp     = pow2(eOf(e1, l))
      val quarter = 0.25 * ufp
      q += (s(off + l) - 1.5 * ufp) + quarter * c(off + l).toDouble
      l -= 1
    }
    q
  }
}

/** RSUM SIMD (Alg. 3) for doubles: V-lane batched summation with NB-tiled
  * carry propagation and an exact, order-independent horizontal merge
  * (Eqs. 2-3). One instance holds the lane scratch so hot loops do not
  * allocate; not thread-safe — use one instance per thread.
  *
  * As in Alg. 3, where the lanes are vector registers, a level's V lane
  * sums live in locals for a whole block of `V * NB` values and go back to
  * the lane scratch once per block. Level 0 reads the caller's values, and
  * each level leaves its remainders in `rbuf` for the next (no copy pass). One
  * range scan per block finds the max that fixes the frame and refuses the
  * call ([[RsumBatchD.OutOfRange]]) on any value the RSUM state cannot
  * take, before the caller's state is written.
  *
  * The resulting state is bit-identical to feeding the same values through
  * [[RsumD.add]] one by one (both capture the identical exact content and
  * leave the state in canonical form).
  */
final class RsumBatchD(val levels: Int) {
  import FpD._
  import RsumD._

  // Lane l*V+v holds lane v of level l. Carries need no lanes, as the
  // horizontal merge only sums them: lc(l) is level l's carry count.
  private val ls = new Array[Double](levels * V)
  private val lc = new Array[Long](levels)
  // Per-block fixed extractors (see RsumD.add: fixed extractors keep
  // tie-breaking order-independent), i.e. the levels' nominal sums.
  private val ext = new Array[Double](levels)
  // Remainders of one block, the input of the next level.
  private val rbuf = new Array[Double](V * NB)

  /** Lanes `v0 until V` of level `l` nominal. */
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

  /** Alg. 3 line 7, between blocks: move whole multiples of `0.25 * ufp`
    * out of every lane that left the `[1.5, 1.75) * ufp` band. `4 / ufp =
    * 2^(2-e)` is a normal double for every level exponent e in [ELMIN,
    * 1000] (the range scan refuses values of 2^987 and above), so
    * multiplying by it gives the exact quotient.
    */
  private def propagateLanes(e1: Int): Unit = {
    var l = 0
    while (l < levels) {
      val e       = eOf(e1, l)
      val quarter = pow2(e - 2)
      val inv     = pow2(2 - e)
      var v = l * V
      while (v < (l + 1) * V) {
        val dev = ls(v) - ext(l)
        if (!(dev >= 0.0 && dev < quarter)) {
          val d = Math.floor(dev * inv)
          ls(v) -= d * quarter
          lc(l) += d.toLong
        }
        v += 1
      }
      l += 1
    }
  }

  /** Level-major, lane-striped extraction of one block (Alg. 3 lines 5-6):
    * value `t` of the block, read at `src(from + t)`, feeds lane `t mod V`
    * of level `l` and leaves its remainder in `rbuf(t)` for level `l + 1`.
    * Since every per-level operation is exact and the extractors are
    * fixed, the state is that of the value-major formulation, bit for bit.
    */
  private def extract(src: Array[Double], from: Int, m: Int, l: Int): Unit = {
    val a    = ext(l)
    val base = l * V
    var s0 = ls(base); var s1 = ls(base + 1); var s2 = ls(base + 2); var s3 = ls(base + 3)
    var t = 0
    while (t < (m & -V)) {
      val p = from + t
      val r0 = src(p);     val q0 = (r0 + a) - a; rbuf(t) = r0 - q0;     s0 += q0
      val r1 = src(p + 1); val q1 = (r1 + a) - a; rbuf(t + 1) = r1 - q1; s1 += q1
      val r2 = src(p + 2); val q2 = (r2 + a) - a; rbuf(t + 2) = r2 - q2; s2 += q2
      val r3 = src(p + 3); val q3 = (r3 + a) - a; rbuf(t + 3) = r3 - q3; s3 += q3
      t += V
    }
    ls(base) = s0; ls(base + 1) = s1; ls(base + 2) = s2; ls(base + 3) = s3
    while (t < m) {
      val r = src(from + t)
      val q = (r + a) - a
      rbuf(t) = r - q
      ls(base + (t & (V - 1))) += q
      t += 1
    }
  }

  /** Add `values(from until from+len)` to the normalized state in `s`/`c`
    * at `off`; returns the new `e1`. If any of the values is huge
    * (|b| >= [[ReproDouble.HugeThreshold]]), ±Inf or NaN, returns
    * [[RsumBatchD.OutOfRange]] instead and leaves `s`/`c` untouched.
    */
  def run(values: Array[Double], from: Int, len: Int,
          s: Array[Double], c: Array[Long], off: Int, e1In: Int): Int = {
    if (len <= 0) return e1In
    var e1 = e1In

    // Load state into lane 0, nominals elsewhere (Alg. 3 lines 1-2).
    if (e1 != EMPTY) {
      var l = 0
      while (l < levels) { ls(l * V) = s(off + l); lc(l) = c(off + l); initLevel(l, 1, e1); l += 1 }
    }

    val end = from + len
    var i   = from
    while (i < end) {
      val m = math.min(V * NB, end - i)
      if (i > from && e1 != EMPTY) propagateLanes(e1)
      // The range scan (Alg. 3 line 4). The bits of a non-negative double
      // order like its value, with +Inf above every finite value and NaN
      // above +Inf: the largest |b| bits give the block max, and a huge,
      // infinite or NaN value, if there is one, at one compare per block.
      var mx = 0L
      var j  = i
      while (j < i + m) {
        mx = Math.max(mx, java.lang.Double.doubleToRawLongBits(values(j)) & Long.MaxValue)
        j += 1
      }
      if (mx >= RsumBatchD.HugeBits) return RsumBatchD.OutOfRange
      if (mx != 0L) {
        val req = requiredE1(java.lang.Double.longBitsToDouble(mx))
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

    // Exact horizontal merge back into the scalar state (Eqs. 2-3), with
    // the last block's carry propagation folded in. A block moves a lane by
    // at most NB * 2^(W-1) ulp = ufp / 8, so a lane's deviation lies in
    // [-1/8, 3/8] * ufp, and the V = 4 deviations, multiples of ulp(ufp),
    // sum exactly.
    if (e1 != EMPTY) {
      var l = 0
      while (l < levels) {
        val e      = eOf(e1, l)
        val nom    = ext(l)
        var devTot = 0.0
        var v = l * V
        while (v < (l + 1) * V) { devTot += ls(v) - nom; v += 1 }
        val k = Math.floor(devTot * pow2(2 - e))
        s(off + l) = nom + (devTot - k * pow2(e - 2))
        c(off + l) = lc(l) + k.toLong
        l += 1
      }
    }
    e1
  }
}

object RsumBatchD {
  /** What [[RsumBatchD.run]] returns, in place of a frame, for a batch
    * holding a value the RSUM state cannot take; the caller routes that
    * batch per value.
    */
  final val OutOfRange = Int.MaxValue

  /** Bits of [[ReproDouble.HugeThreshold]]: the smallest `|b|` bits out of range. */
  private val HugeBits = java.lang.Double.doubleToRawLongBits(ReproDouble.HugeThreshold)

  // Indexed by levels (1..16). A kernel holds 32 KiB of scratch, so
  // summation buffers share their thread's kernel instead of owning one.
  private val kernels = ThreadLocal.withInitial(() => new Array[RsumBatchD](17))

  /** The calling thread's kernel for `levels`; never shared across threads. */
  def forThread(levels: Int): RsumBatchD = {
    val ks = kernels.get
    var k = ks(levels)
    if (k == null) { k = new RsumBatchD(levels); ks(levels) = k }
    k
  }
}
