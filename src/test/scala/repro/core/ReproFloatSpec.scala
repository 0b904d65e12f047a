package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

import repro.exec.{AggKind, PartitionAndAggregate}

class ReproFloatSpec extends AnyFunSuite {
  import ExactSum.bitsF

  def uniformF(n: Int, seed: Long): Array[Float] = {
    val r = new Random(seed)
    Array.fill(n)(1.0f + r.nextFloat())
  }

  def mixedF(n: Int, seed: Long): Array[Float] = {
    val r = new Random(seed)
    Array.fill(n)(((r.nextFloat() * 2 - 1) * math.pow(2.0, r.nextInt(40) - 20)).toFloat)
  }

  def exactF(vals: Seq[Float]): BigDecimal =
    vals.foldLeft(BigDecimal(0))((a, v) => a + BigDecimal(v.toDouble))

  test("empty state evaluates to 0.0f") {
    assert(new ReproFloat(2).value == 0.0f)
  }

  for (l <- 1 to 4) {
    test(s"L=$l: sum of small integers is exact") {
      val st = new ReproFloat(l)
      (1 to 1000).foreach(i => st.add(i.toFloat))
      assert(st.value == 500500.0f)
    }

    test(s"L=$l: value bits identical across 20 permutations") {
      val vals = mixedF(4000, 401 + l)
      val ref  = bitsF(ReproFloat.sum(vals, l))
      val r    = new Random(402 + l)
      for (p <- 1 to 20)
        assert(bitsF(ReproFloat.sum(r.shuffle(vals.toSeq).toArray, l)) == ref, s"perm $p")
    }

    test(s"L=$l: merge of random splits is bit-identical to sequential") {
      val vals = mixedF(3000, 411 + l)
      val ref  = { val st = new ReproFloat(l); vals.foreach(st.add); st }
      val r    = new Random(412 + l)
      val k    = 5
      val parts = Array.fill(k)(new ReproFloat(l))
      vals.foreach(v => parts(r.nextInt(k)).add(v))
      val acc = new ReproFloat(l)
      r.shuffle(parts.toSeq).foreach(acc.merge)
      assert(acc.bitEquals(ref))
    }

    test(s"L=$l: batch == scalar bitwise") {
      val vals = mixedF(20000, 421 + l)
      val a = new ReproFloat(l)
      a.addBatch(vals, 0, vals.length, new RsumBatchD(l))
      val b = { val st = new ReproFloat(l); vals.foreach(st.add); st }
      assert(a.bitEquals(b))
    }

    test(s"L=$l: chunked batch == scalar bitwise") {
      val vals = mixedF(5000, 431 + l)
      val scratch = new RsumBatchD(l)
      val a = new ReproFloat(l)
      var i = 0
      while (i < vals.length) {
        val len = math.min(1 + (i % 97), vals.length - i)
        a.addBatch(vals, i, len, scratch)
        i += len
      }
      val b = { val st = new ReproFloat(l); vals.foreach(st.add); st }
      assert(a.bitEquals(b))
    }
  }

  test("L=2 accuracy within Eq.6 bound (float, W=18)") {
    for (l <- 1 to 3) {
      val vals = uniformF(10000, 441)
      val got  = ReproFloat.sum(vals, l)
      val err  = (exactF(vals.toSeq) - BigDecimal(got.toDouble)).abs.toFloat
      val bound = vals.length.toFloat *
        math.pow(2.0, (1 - l) * FpF.W - 1).toFloat * vals.map(math.abs).max +
        2 * l * Math.ulp(math.abs(got) + vals.map(math.abs).max)
      assert(err <= bound, s"L=$l err=$err bound=$bound")
    }
  }

  test("non-finite float handling") {
    val st = new ReproFloat(2)
    st.add(1.0f); st.add(Float.NaN)
    assert(st.value.isNaN)
    val p = new ReproFloat(2); p.add(Float.PositiveInfinity); p.add(3.0f)
    assert(p.value == Float.PositiveInfinity)
  }

  test("huge float values route through the scaled state") {
    val st = new ReproFloat(3)
    st.add(3.0e38f); st.add(-2.9e38f); st.add(1.0f)
    val exp = exactF(Seq(3.0e38f, -2.9e38f, 1.0f))
    val err = (exp - BigDecimal(st.value.toDouble)).abs.toDouble
    assert(err <= 3.0e38 * math.pow(2.0, -FpF.W + 4))
  }

  test("float serialization round-trips bitwise") {
    for (l <- 1 to 4) {
      val vals = mixedF(500, 451 + l)
      val st = new ReproFloat(l); vals.foreach(st.add)
      val back = ReproFloat.deserialize(st.serialize())
      assert(back.bitEquals(st))
    }
  }

  test("buffered float == unbuffered bitwise") {
    for (bsz <- Seq(0, 1, 8, 64)) {
      val vals = mixedF(3000, 461)
      val kind = if (bsz == 0) AggKind.ReproF(2) else AggKind.BufF(2, bsz)
      val (_, got) = PartitionAndAggregate.runF(new Array[Int](vals.length), vals, 1, 0, kind)
      val ref = { val st = new ReproFloat(2); vals.foreach(st.add); st }
      assert(ExactSum.bits(got(0)) == ExactSum.bits(ref.value.toDouble), s"bsz=$bsz")
    }
  }

  test("float kernel SoA slices with offsets") {
    val L = 2
    val s = new Array[Double](4 * L)
    val c = new Array[Long](4 * L)
    val e1 = Array.fill(4)(RsumD.EMPTY)
    for (slot <- 0 until 4; i <- 1 to 50)
      e1(slot) = RsumD.add(s, c, slot * L, L, e1(slot), ((slot + 1).toFloat * i).toDouble, FpF.M, FpF.W, FpF.E1MIN, FpF.ELMIN)
    for (slot <- 0 until 4)
      assert(RsumD.eval(s, c, slot * L, L, e1(slot), FpF.M, FpF.W, FpF.ELMIN).toFloat == (slot + 1) * 1275.0f)
  }
}
