package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** Reference helpers shared by the numeric-core test suites. */
object ExactSum {
  /** Exact sum via BigDecimal (every finite double is exactly representable). */
  def exact(values: Seq[Double]): BigDecimal =
    values.foldLeft(BigDecimal(0))((acc, v) => acc + BigDecimal(v))

  def bits(d: Double): Long = java.lang.Double.doubleToRawLongBits(d)
  def bitsF(f: Float): Int  = java.lang.Float.floatToRawIntBits(f)

  /** Paper Eq. 6 error bound for RSUM with L levels (double, W=40). */
  def rsumBound(n: Int, levels: Int, maxAbs: Double): Double =
    n.toDouble * math.pow(2.0, (1 - levels) * FpD.W - 1) * maxAbs

  def uniformVals(n: Int, seed: Long): Array[Double] = {
    val r = new Random(seed)
    Array.fill(n)(1.0 + r.nextDouble())
  }

  def expVals(n: Int, seed: Long): Array[Double] = {
    val r = new Random(seed)
    Array.fill(n)(-math.log(1.0 - r.nextDouble()))
  }

  def mixedMagnitudeVals(n: Int, seed: Long): Array[Double] = {
    val r = new Random(seed)
    Array.fill(n) {
      val e = r.nextInt(80) - 40
      (r.nextDouble() * 2 - 1) * math.pow(2.0, e)
    }
  }
}

class ReproDoubleSpec extends AnyFunSuite {
  import ExactSum._

  // ---------------------------------------------------------------- basics

  test("empty state evaluates to 0.0") {
    assert(new ReproDouble(2).value == 0.0)
    assert(new ReproDouble(2).isEmpty)
  }

  for (l <- 1 to 4) {
    test(s"L=$l: a single grid-aligned value is returned exactly") {
      // these mantissas fit the level-1 window for any grid alignment
      for (v <- Seq(1.0, -1.0, 3.25, 1024.0, -0.5))
        { val st = new ReproDouble(l); st.add(v); assert(st.value == v, s"v=$v L=$l") }
    }
  }

  for (l <- 3 to 4) {
    // 2 levels span W+W=80 bits but grid alignment can waste up to W-1 of
    // them; 3 levels always cover a full 52-bit mantissa.
    test(s"L=$l: any single normal value is returned exactly") {
      // near-min-normal values are excluded: bits below the ELMIN clamp
      // (2^-1052) are deterministically dropped (cf. underflow handling in
      // Demmel & Nguyen)
      for (v <- Seq(0.1, 1e-30, 1e30, -12345.6789, 1.7e308, math.Pi, 2.0e-300))
        { val st = new ReproDouble(l); st.add(v); assert(st.value == v, s"v=$v L=$l") }
    }
  }

  test("zeros are absorbed without setting the grid") {
    val st = new ReproDouble(2)
    st.add(0.0); st.add(-0.0)
    assert(st.value == 0.0)
    st.add(42.0)
    assert(st.value == 42.0)
  }

  for (l <- 1 to 4) {
    test(s"L=$l: sum of small integers is exact") {
      val st = new ReproDouble(l)
      (1 to 1000).foreach(i => st.add(i.toDouble))
      assert(st.value == 500500.0)
    }

    test(s"L=$l: cancelling values sum to zero") {
      val st = new ReproDouble(l)
      (1 to 500).foreach { i => st.add(i.toDouble); st.add(-i.toDouble) }
      assert(st.value == 0.0)
    }

    test(s"L=$l: negative-only input") {
      val st = new ReproDouble(l)
      (1 to 100).foreach(i => st.add(-i.toDouble))
      assert(st.value == -5050.0)
    }
  }

  test("classic catastrophic example: 1e16 + 1 - 1e16 == 1 for L>=2") {
    for (l <- 2 to 4) {
      val st = new ReproDouble(l)
      st.add(1e16); st.add(1.0); st.add(-1e16)
      assert(st.value == 1.0, s"L=$l")
    }
  }

  test("paper's Alg.1 example: 1e20 scale masking small values (L=2)") {
    val vals = Array(1.0, 1e20, -1e20, 1.0, 1.0)
    val st = new ReproDouble(2)
    vals.foreach(st.add)
    assert(st.value == 3.0)
  }

  // --------------------------------------------------------- special values

  test("NaN input yields NaN") {
    val st = new ReproDouble(2)
    st.add(1.0); st.add(Double.NaN); st.add(2.0)
    assert(st.value.isNaN)
  }

  test("+Inf input yields +Inf; -Inf yields -Inf; both yield NaN") {
    val p = new ReproDouble(2); p.add(1.0); p.add(Double.PositiveInfinity)
    assert(p.value == Double.PositiveInfinity)
    val m = new ReproDouble(2); m.add(Double.NegativeInfinity); m.add(5.0)
    assert(m.value == Double.NegativeInfinity)
    val b = new ReproDouble(2); b.add(Double.PositiveInfinity); b.add(Double.NegativeInfinity)
    assert(b.value.isNaN)
  }

  test("non-finite propagation is order-independent") {
    val vals = Array(1.0, Double.PositiveInfinity, 3.0, Double.PositiveInfinity)
    val r = new Random(7)
    val ref = { val st = new ReproDouble(2); vals.foreach(st.add); bits(st.value) }
    for (_ <- 1 to 10) {
      val st = new ReproDouble(2)
      r.shuffle(vals.toSeq).foreach(st.add)
      assert(bits(st.value) == ref)
    }
  }

  test("subnormal inputs are handled deterministically") {
    val vals = Array(Double.MinPositiveValue, 2.2e-308, -Double.MinPositiveValue, 1e-310)
    val a = new ReproDouble(3); vals.foreach(a.add)
    val b = new ReproDouble(3); vals.reverse.foreach(b.add)
    assert(bits(a.value) == bits(b.value))
  }

  test("huge values near Double.MaxValue do not overflow the state") {
    val st = new ReproDouble(2)
    st.add(1.6e308); st.add(1.2e308); st.add(-1.5e308)
    val got = st.value
    val exp = exact(Seq(1.6e308, 1.2e308, -1.5e308)).toDouble
    assert(math.abs(got - exp) <= rsumBound(3, 2, 1.6e308))
  }

  // ------------------------------------------------------------- accuracy

  for (l <- 1 to 4; (name, gen) <- Seq[(String, Int => Array[Double])](
         ("U[1,2)", n => uniformVals(n, 11)),
         ("Exp(1)", n => expVals(n, 12)),
         ("mixed-magnitude", n => mixedMagnitudeVals(n, 13)))) {
    test(s"L=$l, $name: error within paper Eq.6 bound (n=10000)") {
      val vals = gen(10000)
      val got  = ReproDouble.sum(vals, l)
      val err  = (exact(vals.toSeq) - BigDecimal(got)).abs.toDouble
      // Eq. 6 bounds the state's truncation error; finalization adds up to
      // L roundings at the result's magnitude (a double cannot be closer to
      // the exact sum than its own ulp), hence the slack term.
      val bound = rsumBound(vals.length, l, vals.map(math.abs).max) +
        2 * l * Math.ulp(math.abs(got) + vals.map(math.abs).max)
      assert(err <= bound, s"err=$err bound=$bound")
    }
  }

  test("L=2 accuracy is comparable to (not worse than 10x) conventional summation") {
    val vals = expVals(100000, 21)
    val conv = vals.sum
    val rep  = ReproDouble.sum(vals, 2)
    val ex   = exact(vals.toSeq)
    val convErr = (ex - BigDecimal(conv)).abs.toDouble
    val repErr  = (ex - BigDecimal(rep)).abs.toDouble
    assert(repErr <= math.max(convErr * 10, 1e-9), s"conv=$convErr rsum=$repErr")
  }

  test("L=3 accuracy beats conventional summation on a large exp sample") {
    val vals = expVals(100000, 22)
    val conv = vals.sum
    val rep  = ReproDouble.sum(vals, 3)
    val ex   = exact(vals.toSeq)
    val convErr = (ex - BigDecimal(conv)).abs.toDouble
    val repErr  = (ex - BigDecimal(rep)).abs.toDouble
    assert(repErr <= convErr + 1e-12, s"conv=$convErr rsum=$repErr")
  }

  // ------------------------------------------------- bit-reproducibility

  for (l <- 1 to 4; (name, gen) <- Seq[(String, Int => Array[Double])](
         ("U[1,2)", n => uniformVals(n, 31)),
         ("Exp(1)", n => expVals(n, 32)),
         ("mixed-magnitude", n => mixedMagnitudeVals(n, 33)))) {
    test(s"L=$l, $name: value bits identical across 20 permutations") {
      val vals = gen(5000)
      val ref  = bits(ReproDouble.sum(vals, l))
      val r    = new Random(100 + l)
      for (p <- 1 to 20) {
        val perm = r.shuffle(vals.toSeq).toArray
        assert(bits(ReproDouble.sum(perm, l)) == ref, s"permutation $p differs")
      }
    }
  }

  test("conventional double summation is NOT order-independent on the same data (sanity)") {
    val vals = mixedMagnitudeVals(5000, 33)
    val ref  = vals.sum
    val r    = new Random(5)
    val anyDiff = (1 to 20).exists { _ =>
      bits(r.shuffle(vals.toSeq).toArray.sum) != bits(ref)
    }
    assert(anyDiff, "expected plain fp summation to differ across permutations")
  }

  for (l <- 1 to 4) {
    test(s"L=$l: state bits identical across permutations (canonical form)") {
      val vals = mixedMagnitudeVals(2000, 41 + l)
      val a = new ReproDouble(l); vals.foreach(a.add)
      val b = new ReproDouble(l); new Random(6).shuffle(vals.toSeq).foreach(b.add)
      assert(a.bitEquals(b))
    }
  }

  // ----------------------------------------------------------------- merge

  for (l <- 1 to 4) {
    test(s"L=$l: merge of random splits is bit-identical to sequential") {
      val vals = mixedMagnitudeVals(3000, 51 + l)
      val ref  = { val st = new ReproDouble(l); vals.foreach(st.add); st }
      val r    = new Random(52 + l)
      for (_ <- 1 to 10) {
        val k      = 1 + r.nextInt(8)
        val parts  = Array.fill(k)(new ReproDouble(l))
        vals.foreach(v => parts(r.nextInt(k)).add(v))
        // merge in a random tree order
        var pool = parts.toBuffer
        while (pool.size > 1) {
          val i = r.nextInt(pool.size)
          val a = pool.remove(i)
          val j = r.nextInt(pool.size)
          pool(j).merge(a)
        }
        assert(pool.head.bitEquals(ref), "merged state differs from sequential state")
        assert(bits(pool.head.value) == bits(ref.value))
      }
    }
  }

  test("merge with empty state is identity (both directions)") {
    val vals = uniformVals(100, 61)
    val a = new ReproDouble(2); vals.foreach(a.add)
    val refBits = bits(a.value)
    val e1 = new ReproDouble(2)
    a.merge(e1)
    assert(bits(a.value) == refBits)
    val e2 = new ReproDouble(2)
    e2.merge(a)
    assert(bits(e2.value) == refBits)
  }

  test("merge does not mutate its argument") {
    val big = new ReproDouble(2); big.add(1e100)
    val small = new ReproDouble(2); small.add(1.0); small.add(2.0)
    val beforeBits = bits(small.value)
    big.merge(small) // big's frame is higher: small would need demoting
    assert(bits(small.value) == beforeBits)
    assert(small.value == 3.0)
  }

  test("merge carries non-finite markers") {
    val a = new ReproDouble(2); a.add(1.0)
    val b = new ReproDouble(2); b.add(Double.PositiveInfinity)
    a.merge(b)
    assert(a.value == Double.PositiveInfinity)
  }

  test("merge of states with very different magnitudes matches sequential") {
    for (l <- 1 to 4) {
      val small = Array.fill(100)(1e-18)
      val big   = Array.fill(100)(1e18)
      val seq = new ReproDouble(l); small.foreach(seq.add); big.foreach(seq.add)
      val a = new ReproDouble(l); small.foreach(a.add)
      val b = new ReproDouble(l); big.foreach(b.add)
      a.merge(b)
      assert(a.bitEquals(seq), s"L=$l")
    }
  }

  // ----------------------------------------------------------- serialization

  for (l <- 1 to 4) {
    test(s"L=$l: serialization round-trips the state bitwise") {
      val vals = mixedMagnitudeVals(500, 71 + l)
      val st = new ReproDouble(l); vals.foreach(st.add)
      val back = ReproDouble.deserialize(st.serialize())
      assert(back.bitEquals(st))
      assert(bits(back.value) == bits(st.value))
    }
  }

  test("serialization round-trips the empty and non-finite states") {
    val e = new ReproDouble(3)
    assert(ReproDouble.deserialize(e.serialize()).isEmpty)
    val nf = new ReproDouble(3); nf.add(Double.NaN)
    assert(ReproDouble.deserialize(nf.serialize()).value.isNaN)
  }

  test("copy is independent of the original") {
    val a = new ReproDouble(2); a.add(1.0)
    val b = a.copy()
    b.add(2.0)
    assert(a.value == 1.0 && b.value == 3.0)
  }

  test("reset returns the state to empty") {
    val a = new ReproDouble(2); a.add(123.0)
    a.reset()
    assert(a.isEmpty && a.value == 0.0)
  }

  // ------------------------------------------------------------ kernel/SoA

  test("kernel operates correctly on offset slices (SoA layout)") {
    val L = 2
    val slots = 4
    val s = new Array[Double](slots * L)
    val c = new Array[Long](slots * L)
    val e1 = Array.fill(slots)(RsumD.EMPTY)
    for (slot <- 0 until slots; i <- 1 to 50)
      e1(slot) = RsumD.add(s, c, slot * L, L, e1(slot), (slot + 1).toDouble * i)
    for (slot <- 0 until slots)
      assert(RsumD.eval(s, c, slot * L, L, e1(slot)) == (slot + 1) * 1275.0)
  }

  test("requiredE1 is on the W-grid and admits the value") {
    val r = new Random(81)
    for (_ <- 1 to 1000) {
      val b = (r.nextDouble() * 2 - 1) * math.pow(2.0, r.nextInt(600) - 300)
      val e1 = RsumD.requiredE1(b, FpD.M, FpD.W, FpD.E1MIN)
      assert(e1 % FpD.W == 0)
      if (e1 > FpD.E1MIN) {
        // validity: |b| < 2^(W-1) * ulp(S1) = 2^(e1 - M + W - 1)
        assert(math.abs(b) < math.pow(2.0, e1 - FpD.M + FpD.W - 1))
        // minimality: one grid step lower would be invalid
        assert(math.abs(b) >= math.pow(2.0, (e1 - FpD.W) - FpD.M + FpD.W - 1))
      }
    }
  }

  test("propagate keeps every level in the [1.5, 1.75) * ufp band") {
    val vals = mixedMagnitudeVals(1000, 91)
    val st = new ReproDouble(3)
    vals.foreach(st.add)
    // inspect via serialized image: s values at fixed positions
    val img = java.nio.ByteBuffer.wrap(st.serialize())
    img.getInt; val e1 = img.getInt; img.get(); img.getDouble
    for (l <- 0 until 3) {
      val sl = img.getDouble
      val ufp = RsumD.pow2(RsumD.eOf(e1, l, FpD.W, FpD.ELMIN))
      assert(sl >= 1.5 * ufp && sl < 1.75 * ufp, s"level $l: $sl not in band")
    }
  }
}
