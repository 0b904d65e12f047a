package repro.core

/** IEEE-754 binary64 parameters for the RSUM algorithm (paper §III, Table I).
  *
  * `M` is the number of explicit mantissa bits, so `ulp(x) = 2^(E-M)` for
  * `x = 1.f * 2^E`. `W` is the log2 ratio between two consecutive extractors
  * (the paper's recommended value for double precision). `NB` is the tile
  * size between carry-bit propagations in the batched kernel; the per-value
  * drift of a running sum is at most `2^(W-1) * ulp(S)` and the band
  * `[1.5, 1.75) * ufp` has `0.25 * ufp` of headroom before the exponent
  * could change, so any `NB <= 2^(M-W-1)` is safe — we use `2^(M-W-2)` for
  * margin. `V` is the lane count of the batched ("SIMD") kernel.
  * `BatchMin` is the shortest chunk the batched kernel takes: below it the
  * per-call lane set-up and horizontal merge cost more than the scalar
  * path saves (Fig. 6 crossover, EXPERIMENTS.md).
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
  final val BatchMin = 8

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

/** IEEE-754 binary32 parameters, mirroring [[FpD]] (paper uses W=18 for
  * single precision).
  */
object FpF {
  final val M = 23
  final val W = 18
  final val NB = 1 << (M - W - 2)
  final val V = 8
  final val BatchMin = 8
  final val E1MIN = -108
  final val ELMIN = -120
}
