package repro.core

/** IEEE-754 binary64 grid for the RSUM algorithm (paper §III, Table I), and
  * the constants of the one batched kernel.
  *
  * `M` is the number of explicit mantissa bits, so `ulp(x) = 2^(E-M)` for
  * `x = 1.f * 2^E`. `W` is the log2 ratio between two consecutive extractors
  * (the paper's recommended value for double precision). `E1MIN`/`ELMIN`
  * bound the frame and the level exponents. These four are the grid:
  * [[RsumD]] takes them as arguments, and [[FpF]] gives float's.
  *
  * `V` is the lane count of the batched ("SIMD") kernel [[RsumBatchD]] and
  * `NB` its tile size between carry-bit propagations, for both grids: the
  * lanes restart from the state every `V * NB` values (lane 0 at the
  * state's normalized sum, the others at the nominal) and fold back into
  * it at the block's end. The per-value drift of a lane is at most
  * `2^(W-1)` grid steps; on double's grid the band `[1.5, 1.75) * ufp` has
  * `0.25 * ufp` of headroom before the lane's exponent could change, so a
  * lane may take up to `2^(M-W-1)` values. We use `NB = 2^(M-W-2)` for
  * margin, so lane 0, which also takes the block's tail, stays within the
  * bound with its `NB + V - 1` values. On float's grid a lane held in a
  * double has 29 spare bits, so the same tile is safe by far. Every
  * summation-buffer flush, however short, runs through the batched kernel
  * (Fig. 6 crossover, EXPERIMENTS.md). A buffer of at most
  * [[RsumBatchD.SpreadMax]] values finalized without ever being flushed is
  * not flushed at emit: [[RsumBatchD.sumOf]] sums it to the same bits in
  * the kernel's scratch, leaving the table's state empty.
  *
  * Every parameter is a `final val` of a constant expression without a type
  * annotation, so scalac inlines it as a constant and C2 folds it (lane
  * masks, shifts, block sizes) instead of loading a field of this object.
  */
object FpD {
  final val M = 52
  final val W = 40
  final val NB = 1 << (M - W - 2)
  final val V = 4

  /** Lowest admissible level-1 extractor exponent (a multiple of W so the
    * global exponent grid stays aligned across independently built states).
    */
  final val E1MIN = -960

  /** Clamp for any level exponent: keeps `0.25 * ufp = 2^(e-2)` a normal
    * double. Levels pushed below this are frozen at ELMIN (they then only
    * capture what is representable at that grid; deterministic).
    */
  final val ELMIN = -1000
}

/** IEEE-754 binary32 grid, mirroring [[FpD]]'s (the paper uses W=18 for
  * single precision). `ELMIN` keeps `0.25 * ufp` a normal float.
  */
object FpF {
  final val M = 23
  final val W = 18
  final val E1MIN = -108
  final val ELMIN = -120
}
