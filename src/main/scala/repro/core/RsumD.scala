package repro.core

/** RSUM kernel (paper §III, Algorithms 2 and 3) for both precisions.
  *
  * A summation state is `L` levels of `(running sum S^(l), carry count
  * C^(l))` plus the level-1 extractor exponent `e1` (`ufp(S^(1)) = 2^e1`).
  * The state is stored *struct-of-arrays* style in caller-provided slices
  * `s(off..off+L)` / `c(off..off+L)` so that hash-aggregation tables can
  * hold thousands of states without boxing; `e1` travels separately (an
  * `Int` per state, [[RsumD.EMPTY]] when no finite nonzero value was seen).
  *
  * The algorithm's only precision-dependent inputs are the grid parameters
  * `(M, W, E1MIN, ELMIN)` of [[FpD]] or [[FpF]], which these functions take
  * as arguments. The entry points ([[ReproSlotsD]], [[ReproSlotsF]],
  * [[RsumBatchD.run]]) pass them as literal constants, so C2 folds them
  * where it inlines the function: in the scalar `add` path, and in the
  * batched kernel's prologue (frame and raise). The batched kernel's block
  * loop is compiled on its own, too big to inline, and reads the grid as
  * arguments once per block and level. The arithmetic is double on both
  * grids. On float's grid the state (running sums narrowed to float,
  * carries, `e1`) is binary32 RSUM's, bit for bit: level `l`'s extractor
  * becomes `1.5 * 2^(e+29)`, whose ulp is float's grid step `2^(e-23)`, so both
  * round a value to the same grid with an extractor that is an even
  * multiple of the step, round-half-even picks the same `q`, and every
  * other step is exact in both. The running sums stay on float's grid and
  * narrow to float exactly.
  *
  * Invariants maintained by every public operation ("normalized" state):
  *   - `e1` is a multiple of `W` on the fixed global grid (or EMPTY),
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
  * Inputs must be finite and below the format's huge threshold; zeros are
  * ignored (they carry no information and must not set the extractor
  * grid). Huge values, NaN and ±Inf are routed by [[ReproSlots]].
  */
object RsumD {
  /** Sentinel `e1` for "no finite nonzero value seen yet"; below every frame. */
  final val EMPTY: Int = Int.MinValue

  /** 2^e as a double, for e in the normal range [-1022, 1023]. */
  @inline def pow2(e: Int): Double =
    java.lang.Double.longBitsToDouble((e + 1023).toLong << 52)

  /** Exponent of level `l` (0-based) of a state with level-1 exponent e1. */
  @inline def eOf(e1: Int, l: Int, W: Int, ELMIN: Int): Int = {
    val e = e1 - l * W
    if (e < ELMIN) ELMIN else e
  }

  /** Nominal (deviation-zero) running sum of level `l`. */
  @inline def nominal(e1: Int, l: Int, W: Int, ELMIN: Int): Double = 1.5 * pow2(eOf(e1, l, W, ELMIN))

  /** Smallest grid exponent whose window admits |b|, i.e. the fixed point
    * of `while |b| >= 2^(W-1) * ulp(S^(1)) do demote` (Alg. 2 lines 4-7):
    * validity requires `e1 >= E(b) + M - W + 2` with `E(b) = getExponent`.
    * (A subnormal float, widened, has a lower exponent than binary32's
    * `getExponent` reports; both clamp to `E1MIN`.)
    */
  @inline def requiredE1(b: Double, M: Int, W: Int, E1MIN: Int): Int = {
    val need = Math.getExponent(b) + M - W + 2
    val g = W * Math.floorDiv(need + W - 1, W)
    if (g < E1MIN) E1MIN else g
  }

  /** Move a state from frame `e1Old` to the higher frame `e1New` (both on
    * the grid): level `l` becomes level `l + k`, the bottom `k` levels are
    * discarded, the top `k` levels start nominal (Alg. 2 lines 5-7 applied
    * `k` times at once). From EMPTY, every level starts nominal.
    */
  def raise(s: Array[Double], c: Array[Long], off: Int, levels: Int, e1Old: Int, e1New: Int,
            W: Int, ELMIN: Int): Unit = {
    val k = if (e1Old == EMPTY) levels else Math.min((e1New - e1Old) / W, levels)
    System.arraycopy(s, off, s, off + k, levels - k)
    System.arraycopy(c, off, c, off + k, levels - k)
    var l = 0
    while (l < k) { s(off + l) = nominal(e1New, l, W, ELMIN); c(off + l) = 0L; l += 1 }
  }

  /** The frame of a state of frame `e1` (EMPTY, or too low for `b`) after
    * adding `b`, the state raised to it. This is [[add]]'s cold path: a
    * state changes frame a few times at most, and keeping the set-up out of
    * `add` keeps its compiled code small enough to inline into the table
    * loops (`scripts/jit-inline-check.sh`).
    */
  private def reframe(s: Array[Double], c: Array[Long], off: Int, levels: Int, e1: Int, b: Double,
                      M: Int, W: Int, E1MIN: Int, ELMIN: Int): Int = {
    val e1New = requiredE1(b, M, W, E1MIN)
    raise(s, c, off, levels, e1, e1New, W, ELMIN)
    e1New
  }

  /** Carry-bit propagation (Alg. 2 lines 14-18): renormalize every level
    * into the `[1.5, 1.75) * ufp` band, moving whole multiples of
    * `0.25 * ufp` into the carry count. `4 / ufp = 2^(2-e)` is a normal
    * double for every level exponent of both grids, so multiplying by it
    * gives the exact quotient. Every step is exact.
    */
  def propagate(s: Array[Double], c: Array[Long], off: Int, levels: Int, e1: Int, W: Int, ELMIN: Int): Unit = {
    var l = 0
    while (l < levels) {
      val e   = eOf(e1, l, W, ELMIN)
      val dev = s(off + l) - 1.5 * pow2(e) // exact (Sterbenz)
      val d   = Math.floor(dev * pow2(2 - e))
      if (d != 0.0) {
        s(off + l) -= d * pow2(e - 2)
        c(off + l) += d.toLong
      }
      l += 1
    }
  }

  /** Add one finite value to a normalized state; returns the new `e1`.
    * This is RSUM SCALAR (Alg. 2) for a single input value. Each level the
    * value reaches is renormalized at once (Alg. 2 lines 14-18); the levels
    * it does not reach are unchanged, hence still normalized.
    */
  def add(s: Array[Double], c: Array[Long], off: Int, levels: Int, e1In: Int, b: Double,
          M: Int, W: Int, E1MIN: Int, ELMIN: Int): Int = {
    if (b == 0.0) return e1In
    // The frame admits |b| < 2^(W-1) * ulp(S^(1)) (see requiredE1).
    val e1 =
      if (e1In != EMPTY && Math.abs(b) < pow2(e1In - M + W - 1)) e1In
      else reframe(s, c, off, levels, e1In, b, M, W, E1MIN, ELMIN)
    var r = b
    var l = 0
    while (l < levels && r != 0.0) {
      // Error-free transformation against the FIXED extractor of the level
      // (not the running sum): its parity in grid steps is constant, so
      // round-half-even tie-breaking — and hence q — depends only on r and
      // the frame, never on accumulation order. This follows Demmel &
      // Nguyen's original design and is what makes reproducibility
      // unconditional. The extractor's ulp is the grid step 2^(e-M).
      val e = eOf(e1, l, W, ELMIN)
      val a = 1.5 * pow2(e + FpD.M - M)
      val q = (r + a) - a     // q = r rounded to the level grid, deterministically
      r -= q                  // exact
      val x = s(off + l) + q  // exact: q is on the grid, S stays in (1, 2) * ufp
      val d = Math.floor((x - 1.5 * pow2(e)) * pow2(2 - e))
      if (d != 0.0) {
        s(off + l) = x - d * pow2(e - 2)
        c(off + l) += d.toLong
      } else s(off + l) = x
      l += 1
    }
    e1
  }

  /** [[add]] on double's grid. */
  def add(s: Array[Double], c: Array[Long], off: Int, levels: Int, e1In: Int, b: Double): Int =
    add(s, c, off, levels, e1In, b, FpD.M, FpD.W, FpD.E1MIN, FpD.ELMIN)

  /** Merge state B into state A (the paper's `operator+=(repro)`); returns
    * A's new `e1`. B is read, never written: when B has the lower frame,
    * B's level `l - k` feeds A's level `l`, `k = (e1A - e1B) / W`, as if B
    * were demoted to A's frame. Exact, hence associative and commutative
    * bit-for-bit.
    */
  def merge(sA: Array[Double], cA: Array[Long], offA: Int, e1AIn: Int,
            sB: Array[Double], cB: Array[Long], offB: Int, e1B: Int,
            levels: Int, W: Int, ELMIN: Int): Int = {
    if (e1B == EMPTY) return e1AIn
    val e1A = Math.max(e1AIn, e1B)
    if (e1A != e1AIn) raise(sA, cA, offA, levels, e1AIn, e1A, W, ELMIN)
    propagate(sA, cA, offA, levels, e1A, W, ELMIN)
    val k = (e1A - e1B) / W
    var l = k
    while (l < levels) {
      // B's level l-k has A's level l's exponent. Its deviation, taken into
      // [0, 0.25 * ufp) with the whole quarters moved to the carry, keeps
      // A's sum below 2 * ufp: exact.
      val e   = eOf(e1A, l, W, ELMIN)
      val dev = sB(offB + l - k) - 1.5 * pow2(e)
      val d   = Math.floor(dev * pow2(2 - e))
      sA(offA + l) += dev - d * pow2(e - 2)
      cA(offA + l) += cB(offB + l - k) + d.toLong
      l += 1
    }
    propagate(sA, cA, offA, levels, e1A, W, ELMIN)
    e1A
  }

  /** Finalize a state (Eq. 1): sum the per-level terms from the last
    * (smallest) level up, a fixed order so the result is a pure function of
    * the canonical state. On float's grid (`M == FpF.M`) the result is
    * binary32 RSUM's: the carry count converts to float, and each level's
    * carry term, its sum with the level's deviation and each partial sum
    * are rounded to float. One double operation on floats, rounded to
    * float, is the float operation (53 >= 2*24+2; Figueroa, "When is double
    * rounding innocuous?", SIGNUM 1995), overflow included.
    */
  def eval(s: Array[Double], c: Array[Long], off: Int, levels: Int, e1: Int,
           M: Int, W: Int, ELMIN: Int): Double = {
    if (e1 == EMPTY) return 0.0
    propagate(s, c, off, levels, e1, W, ELMIN)
    val single = M == FpF.M
    @inline def fit(x: Double): Double = if (single) x.toFloat.toDouble else x
    var q = 0.0
    var l = levels - 1
    while (l >= 0) {
      val ufp     = pow2(eOf(e1, l, W, ELMIN))
      val carries = if (single) c(off + l).toFloat.toDouble else c(off + l).toDouble
      q = fit(q + fit((s(off + l) - 1.5 * ufp) + fit(0.25 * ufp * carries)))
      l -= 1
    }
    q
  }

  /** [[eval]] on double's grid. */
  def eval(s: Array[Double], c: Array[Long], off: Int, levels: Int, e1: Int): Double =
    eval(s, c, off, levels, e1, FpD.M, FpD.W, FpD.ELMIN)
}

/** RSUM SIMD (Alg. 3): V-lane batched summation with NB-tiled carry
  * propagation and an exact, order-independent horizontal merge (Eqs.
  * 2-3), for double input on double's grid and float input on float's. One
  * instance holds one block of scratch so hot loops do not allocate; not
  * thread-safe — use one instance per thread.
  *
  * A call works on the caller's state at one frame, in Alg. 3's order. One
  * range scan of the whole batch finds the max that fixes the frame, and
  * refuses the call ([[RsumBatchD.OutOfRange]]) on any value the RSUM state
  * cannot take before the state is written; the state is then raised to
  * that frame once ([[RsumD.raise]]). Per block of `V * NB` values and per
  * level, the V lane sums live in locals, as Alg. 3 keeps them in vector
  * registers: lane 0 starts at the state's running sum, the others at the
  * nominal. At the end of the block one floor folds the lanes' exact total
  * deviation back into the state's sum and carry: the horizontal merge and
  * the tile's carry propagation in one step. Level 0 reads the caller's
  * doubles, or the block's floats widened into `rbuf`, and each level
  * leaves its remainders in `rbuf` for the next. A call of any length, a
  * lone value included, costs one scan, at most one raise and one fold per
  * level and block, so every summation-buffer flush takes this path.
  * [[RsumBatchD.sumOf]] gives the finalized sum of a short such call on
  * an empty state without writing a state: the same scan, each value
  * extracted through every level in turn, each level's parts summed in
  * one double. A summation buffer finalized before it was ever flushed,
  * as most are at `paa-wide`'s ~4 rows per group, takes that path at
  * emit.
  *
  * The resulting state is bit-identical to feeding the same values through
  * [[RsumD.add]] one by one (both capture the identical exact content and
  * leave the state in canonical form).
  */
final class RsumBatchD(val levels: Int) {
  import FpD.{NB, V}
  import RsumD._

  // Remainders of one block, the input of the next level.
  private val rbuf = new Array[Double](V * NB)
  // Per level, the extractor of [[sumOf]]'s frame and the total of the
  // parts it extracts.
  private val extractors = new Array[Double](levels)
  private val parts = new Array[Double](levels)

  /** Add `values(from until from+len)` to the normalized state in `s`/`c`
    * at `off`, on double's grid; returns the new `e1`. If any of the values
    * is huge (|b| >= [[ReproDouble.HugeThreshold]]), ±Inf or NaN, returns
    * [[RsumBatchD.OutOfRange]] instead and leaves `s`/`c` untouched.
    */
  def run(values: Array[Double], from: Int, len: Int,
          s: Array[Double], c: Array[Long], off: Int, e1In: Int): Int =
    runOn(values, null, from, len, s, c, off, e1In, FpD.M, FpD.W, FpD.E1MIN, FpD.ELMIN, RsumBatchD.HugeBits)

  /** The same for float values, on float's grid (the bound is
    * [[ReproFloat.HugeThreshold]]).
    */
  def run(values: Array[Float], from: Int, len: Int,
          s: Array[Double], c: Array[Long], off: Int, e1In: Int): Int =
    runOn(null, values, from, len, s, c, off, e1In, FpF.M, FpF.W, FpF.E1MIN, FpF.ELMIN, RsumBatchD.HugeBitsF)

  /** The finalized sum ([[RsumD.eval]]) of the empty state after
    * `values(from until from+len)` are added, on double's grid: the bits of
    * [[run]] on an empty state, then `eval`, with no state written. Returns
    * NaN, which no such sum is, if [[run]] would refuse the values or if
    * they are more than [[RsumBatchD.SpreadMax]]; the caller then takes
    * [[run]] and `eval`.
    */
  def sumOf(values: Array[Double], from: Int, len: Int): Double =
    sumOn(values, null, from, len, FpD.M, FpD.W, FpD.E1MIN, FpD.ELMIN, RsumBatchD.HugeBits)

  /** [[sumOf]] of float values, on float's grid: `eval`'s binary32 RSUM
    * result, widened. It overflows to ±Inf as that does; it is never NaN.
    */
  def sumOf(values: Array[Float], from: Int, len: Int): Double =
    sumOn(null, values, from, len, FpF.M, FpF.W, FpF.E1MIN, FpF.ELMIN, RsumBatchD.HugeBitsF)

  /** The range scan (Alg. 3 line 4) of `values(from until from+len)`. The
    * bits of a non-negative double order like its value, with +Inf above
    * every finite value and NaN above +Inf: the largest |b| bits give the
    * max, and a huge, infinite or NaN value, if there is one, at one
    * compare per call.
    */
  private def maxBits(values: Array[Double], from: Int, len: Int): Long = {
    var mx = 0L
    var j  = from
    while (j < from + len) {
      mx = Math.max(mx, java.lang.Double.doubleToRawLongBits(values(j)) & Long.MaxValue)
      j += 1
    }
    mx
  }

  /** [[maxBits]] of floats, widened (exactly): float bits order the same
    * way, so the scan runs on them and widens only the max.
    */
  private def maxBits(values: Array[Float], from: Int, len: Int): Long = {
    var mx = 0
    var j  = from
    while (j < from + len) {
      mx = Math.max(mx, java.lang.Float.floatToRawIntBits(values(j)) & Int.MaxValue)
      j += 1
    }
    java.lang.Double.doubleToRawLongBits(java.lang.Float.intBitsToFloat(mx).toDouble)
  }

  /** Lane-striped extraction of one block at one level (Alg. 3 lines 5-6)
    * against the fixed extractor `a`: value `t` of the block, read at
    * `src(from + t)`, feeds lane `t mod V` and leaves its remainder in
    * `rbuf(t)` for the next level; the block's `m mod V` last values go to
    * [[tail]]. Lane 0 starts at `s0`, the others at the nominal `nom`;
    * returns the lanes' and the tail's total deviation from `nom`. A lane
    * takes at most `NB` values, lane 0 with the tail at most `NB + V - 1`,
    * each of at most `2^(W-1)` grid steps, so it stays inside
    * `(1, 2) * ufp` and every step is exact: on double's grid a lane moves
    * by at most `ufp / 8` (and a bit) from a deviation in
    * `[0, 0.25 * ufp)`, so the four deviations and the tail, multiples of
    * the grid step, sum exactly to less than `ufp` in magnitude; on float's
    * grid a lane moves by at most `16 * ufp` (and a bit), and a lane held
    * in a double has 29 spare bits.
    */
  private def extract(src: Array[Double], from: Int, m: Int, s0: Double, nom: Double, a: Double): Double = {
    var l0 = s0; var l1 = nom; var l2 = nom; var l3 = nom
    val body = m & -V
    var t = 0
    while (t < body) {
      val p = from + t
      val r0 = src(p);     val q0 = (r0 + a) - a; rbuf(t) = r0 - q0;     l0 += q0
      val r1 = src(p + 1); val q1 = (r1 + a) - a; rbuf(t + 1) = r1 - q1; l1 += q1
      val r2 = src(p + 2); val q2 = (r2 + a) - a; rbuf(t + 2) = r2 - q2; l2 += q2
      val r3 = src(p + 3); val q3 = (r3 + a) - a; rbuf(t + 3) = r3 - q3; l3 += q3
      t += V
    }
    val dev = ((l0 - nom) + (l1 - nom)) + ((l2 - nom) + (l3 - nom))
    if (m == body) dev else dev + tail(src, from, body, m - body, a)
  }

  /** Adds to `parts(l)`, for every level `l`, the grid part of `b` that
    * level extracts against `extractors(l)`, its remainder going on to the
    * next level: one value of [[sumOn]].
    */
  @inline private def spread(b: Double): Unit = {
    var r = b
    var l = 0
    while (l < levels) { val a = extractors(l); val q = (r + a) - a; r -= q; parts(l) += q; l += 1 }
  }

  /** [[spread]] of each of `values(from until from+len)`, in order. */
  private def spreadAll(values: Array[Double], from: Int, len: Int): Unit = {
    var t = from
    while (t < from + len) { spread(values(t)); t += 1 }
  }

  /** [[spreadAll]] of floats, widened. */
  private def spreadAll(values: Array[Float], from: Int, len: Int): Unit = {
    var t = from
    while (t < from + len) { spread(values(t)); t += 1 }
  }

  /** The extraction of the `n` (1 to `V - 1`) values of a block from `t`
    * on, without a loop; returns the sum of their grid parts, which is
    * exact. A method of its own, so that [[extract]] stays small enough for
    * C2 to inline.
    */
  private def tail(src: Array[Double], from: Int, t: Int, n: Int, a: Double): Double = {
    val p = from + t
    val r0 = src(p); val q0 = (r0 + a) - a; rbuf(t) = r0 - q0
    if (n == 1) return q0
    val r1 = src(p + 1); val q1 = (r1 + a) - a; rbuf(t + 1) = r1 - q1
    if (n == 2) return q0 + q1
    val r2 = src(p + 2); val q2 = (r2 + a) - a; rbuf(t + 2) = r2 - q2
    (q0 + q1) + q2
  }

  /** [[run]] on the grid `(M, W, E1MIN, ELMIN)`, over `vd` or, when that is
    * null, `vf`; `hugeBits` are the bits of the smallest `|b|` out of range.
    * This is the prologue, the range scan, the frame and one raise, small
    * enough for C2 to inline into each `run` and fold its grid; the block
    * loop [[deposit]] is compiled on its own.
    */
  private def runOn(vd: Array[Double], vf: Array[Float], from: Int, len: Int,
                    s: Array[Double], c: Array[Long], off: Int, e1In: Int,
                    M: Int, W: Int, E1MIN: Int, ELMIN: Int, hugeBits: Long): Int = {
    val mx = if (vd != null) maxBits(vd, from, len) else maxBits(vf, from, len)
    if (mx >= hugeBits) return RsumBatchD.OutOfRange
    if (mx == 0L) return e1In
    // One frame for the whole call (Alg. 3 lines 1-4).
    val e1 = Math.max(e1In, requiredE1(java.lang.Double.longBitsToDouble(mx), M, W, E1MIN))
    if (e1 != e1In) raise(s, c, off, levels, e1In, e1, W, ELMIN)
    deposit(vd, vf, from, from + len, s, c, off, e1, M, W, ELMIN)
    e1
  }

  /** [[sumOf]] on the grid `(M, W, E1MIN, ELMIN)`, over `vd` or, when that
    * is null, `vf`. It takes the frame as [[runOn]] does and extracts each
    * value through every level ([[spread]]) against the extractors
    * [[deposit]] uses on an empty state raised to that frame. The parts of
    * a level are multiples of its grid step of at most `2^(W-1)` steps
    * each, so every partial sum of at most [[RsumBatchD.SpreadMax]] of
    * them is exact in a double: the level's exact total `T`, which is also
    * the deviation [[deposit]]'s lanes total. The levels then fold from
    * the last up as in `eval` ([[total]]).
    */
  private def sumOn(vd: Array[Double], vf: Array[Float], from: Int, len: Int,
                    M: Int, W: Int, E1MIN: Int, ELMIN: Int, hugeBits: Long): Double = {
    if (len > RsumBatchD.SpreadMax) return Double.NaN
    val mx = if (vd != null) maxBits(vd, from, len) else maxBits(vf, from, len)
    if (mx >= hugeBits) return Double.NaN
    if (mx == 0L) return 0.0
    val e1 = requiredE1(java.lang.Double.longBitsToDouble(mx), M, W, E1MIN)
    val x = pow2(FpD.M - M)
    var l = 0
    while (l < levels) { extractors(l) = nominal(e1, l, W, ELMIN) * x; parts(l) = 0.0; l += 1 }
    if (vd != null) spreadAll(vd, from, len) else spreadAll(vf, from, len)
    total(M)
  }

  /** The finalized sum of the level totals in `parts`: [[RsumD.eval]]'s
    * fold, from the last level up, of the levels an empty state holds after
    * [[deposit]] of them. [[deposit]]'s floor leaves a level of total `T`
    * at the deviation `T - k * ufp / 4` with `k = floor(4 T / ufp)`
    * carries, where `eval`'s `propagate` leaves it. Its term in `eval` is
    * that deviation plus the carries' term `k * ufp / 4`, both exact in a
    * double, and their exact sum is `T`: on double's grid the term is
    * `T`. On float's grid at most [[RsumBatchD.SpreadMax]] values, each
    * of at most `2^(W-1)` grid steps and below 2^120, keep `T` within
    * `2^21` steps, a float, and below 2^124, so the carries' term is a
    * float too: the term is `T` again. Taking `eval`'s floor and step per
    * level instead gave the same bits at 0.94x `paa-wide`'s `repro_buf`
    * rate and 0.88x its `repro_buf_f32` rate (8 pairs on a 4-vCPU VM).
    */
  private def total(M: Int): Double = {
    var q = 0.0
    var l = levels - 1
    while (l >= 0) {
      val t = parts(l)
      q = if (M != FpF.M) q + t else (q + t).toFloat
      l -= 1
    }
    q
  }

  /** Alg. 3 lines 5-7 on `from until end` (not empty) at the frame `e1`,
    * one block of at most `V * NB` values after the other.
    */
  private def deposit(vd: Array[Double], vf: Array[Float], from: Int, end: Int,
                      s: Array[Double], c: Array[Long], off: Int, e1: Int, M: Int, W: Int, ELMIN: Int): Unit = {
    // The extractor of a level is its nominal sum times 2^(52-M).
    val x = pow2(FpD.M - M)
    var i = from
    do {
      val m = Math.min(V * NB, end - i)
      if (vd == null) { var t = 0; while (t < m) { rbuf(t) = vf(i + t); t += 1 } }
      var l = 0
      while (l < levels) {
        val e   = eOf(e1, l, W, ELMIN)
        val nom = 1.5 * pow2(e)
        val dev =
          if (l == 0 && vd != null) extract(vd, i, m, s(off), nom, nom * x)
          else extract(rbuf, 0, m, s(off + l), nom, nom * x)
        // Exact horizontal merge (Eqs. 2-3) and the block's carry
        // propagation (Alg. 3 line 7), multiplying by the exact power of
        // two 4 / ufp (see RsumD.propagate).
        val k = Math.floor(dev * pow2(2 - e))
        s(off + l) = nom + (dev - k * pow2(e - 2))
        c(off + l) += k.toLong
        l += 1
      }
      i += m
    } while (i < end)
  }
}

object RsumBatchD {
  /** What [[RsumBatchD.run]] returns, in place of a frame, for a batch
    * holding a value the RSUM state cannot take; the caller routes that
    * batch per value.
    */
  final val OutOfRange = Int.MaxValue

  /** The longest batch [[RsumBatchD.sumOf]] takes; a longer one it
    * refuses, and the caller flushes it through the kernel's lanes and
    * evaluates the state. Value by value, each level's total is a chain of
    * adds through memory, so the cost per value does not fall with the
    * length as the lanes' does. Most buffers at `paa-wide`'s emits hold
    * about 4 values.
    */
  final val SpreadMax = 16

  /** Bits of [[ReproDouble.HugeThreshold]] and of [[ReproFloat.HugeThreshold]]
    * widened: the smallest `|b|` bits out of range.
    */
  private val HugeBits  = java.lang.Double.doubleToRawLongBits(ReproDouble.HugeThreshold)
  private val HugeBitsF = java.lang.Double.doubleToRawLongBits(ReproFloat.HugeThreshold.toDouble)

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
