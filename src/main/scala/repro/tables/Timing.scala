package repro.tables

/** Wall-clock measurement helper for the benchmark harnesses: `warmup`
  * unmeasured runs (JIT), then `reps` measured runs; reports the median in
  * nanoseconds. Results of every run are folded into a checksum so the JIT
  * cannot dead-code the kernels.
  */
object Timing {

  /** Input size of the kernel and operator runners: the paper's n = 2^30,
    * scaled down so that each table runs in minutes (DESIGN.md,
    * Substitutions).
    */
  final val N = 1 << 22

  @volatile var blackhole: Double = 0.0

  def medianNs(warmup: Int, reps: Int)(body: => Double): Double = {
    var i = 0
    while (i < warmup) { blackhole += body; i += 1 }
    val times = new Array[Long](reps)
    i = 0
    while (i < reps) {
      val t0 = System.nanoTime()
      blackhole += body
      times(i) = System.nanoTime() - t0
      i += 1
    }
    java.util.Arrays.sort(times)
    times(reps / 2).toDouble
  }

  /** ns per input element, the paper's "CPU time per element" with P=1. */
  def nsPerElement(n: Int, warmup: Int = 1, reps: Int = 3)(body: => Double): Double =
    medianNs(warmup, reps)(body) / n

  def geomean(xs: Seq[Double]): Double =
    math.exp(xs.map(math.log).sum / xs.size)
}
