package repro

import scala.util.Random

import repro.core.{ReproDouble, ReproFloat}
import repro.core.ExactSum.bits

/** Grouped rows over the whole IEEE domain for the cross-layer differential
  * tests: the same multiset must give the same bits through
  * `ReproDouble`/`ReproFloat`, the exec tables and Spark `rsum`.
  *
  * Every group mixes finite values of many magnitudes with ±0 and
  * subnormals. One row in 16 of group `g` is a special value of class
  * `g % 6`: none, huge (at or above the format's huge threshold, ±MaxValue
  * included), +Inf, -Inf, NaN, or either infinity. The keys include -1,
  * Int.MinValue and Int.MaxValue.
  */
object FullDomain {
  val Keys: Array[Int] = Array(-1, Int.MinValue, Int.MaxValue) ++ Array.tabulate(45)(i => 37 * i - 200)

  /** `Keys` followed by more keys, `count` in all. */
  def keys(count: Int): Array[Int] = Keys ++ Array.tabulate(count - Keys.length)(i => 3 * i + 5000)

  def doubles(n: Int, seed: Long, keys: Array[Int] = Keys): (Array[Int], Array[Double]) =
    rows(n, seed, keys, Double.MaxValue, 987, Double.MinPositiveValue, 80)

  def floats(n: Int, seed: Long, keys: Array[Int] = Keys): (Array[Int], Array[Float]) = {
    val (ks, vals) = rows(n, seed, keys, Float.MaxValue, 120, Float.MinPositiveValue, 30)
    (ks, vals.map(_.toFloat))
  }

  /** Per key, the bits of the `ReproDouble(levels)` sum of its values. */
  def reproBits(keys: Array[Int], vals: Array[Double], levels: Int): Map[Int, Long] = {
    val states = scala.collection.mutable.Map[Int, ReproDouble]()
    for (i <- keys.indices) states.getOrElseUpdate(keys(i), new ReproDouble(levels)).add(vals(i))
    states.map { case (k, st) => k -> bits(st.value) }.toMap
  }

  /** Per key, the bits of the `ReproFloat(levels)` sum widened to double. */
  def reproBitsF(keys: Array[Int], vals: Array[Float], levels: Int): Map[Int, Long] = {
    val states = scala.collection.mutable.Map[Int, ReproFloat]()
    for (i <- keys.indices) states.getOrElseUpdate(keys(i), new ReproFloat(levels)).add(vals(i))
    states.map { case (k, st) => k -> bits(st.value.toDouble) }.toMap
  }

  /** Values are exact in the format of `max`; `huge` is its huge threshold
    * (log2), `tiny` its smallest subnormal, `spread` the binade range of
    * the ordinary finite values. The special class of `keySet(g)` is
    * `g % 6`.
    */
  private def rows(n: Int, seed: Long, keySet: Array[Int], max: Double, huge: Int, tiny: Double,
                   spread: Int): (Array[Int], Array[Double]) = {
    val r = new Random(seed)
    def sign: Double = if (r.nextBoolean()) 1.0 else -1.0
    def finite: Double = r.nextInt(8) match {
      case 0 => sign * 0.0
      case 1 => (r.nextInt(2001) - 1000) * tiny
      case _ => (r.nextDouble() * 2 - 1) * math.pow(2.0, r.nextInt(2 * spread) - spread)
    }
    def special(cls: Int): Double = cls match {
      case 1 =>
        if (r.nextInt(4) == 0) sign * max
        else sign * (1 + r.nextInt(7)) * math.pow(2.0, huge + r.nextInt(Math.getExponent(max) - huge - 2))
      case 2 => Double.PositiveInfinity
      case 3 => Double.NegativeInfinity
      case 4 => Double.NaN
      case _ => sign * Double.PositiveInfinity
    }
    val idx = Array.fill(n)(r.nextInt(keySet.length))
    val vals = idx.map { g =>
      val cls = g % 6
      if (cls != 0 && r.nextInt(16) == 0) special(cls) else finite
    }
    (idx.map(keySet), vals)
  }
}
