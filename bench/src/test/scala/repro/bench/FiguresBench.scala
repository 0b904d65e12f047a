package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.tables.{Fig4, Fig6, Fig9}

/** Supporting experiment behind §IV/Fig. 4: at 16 groups (fully in-cache),
  * the unbuffered `repro<T,L>` drop-in types cost a multiple of the
  * built-in scalar types, growing with L (paper: 4x-12x).
  */
class Fig4Bench extends AnyFunSuite {

  lazy val res: Fig4.Result = Fig4.run()

  private def slow(name: String): Double = res.rows.find(_.name == name).get.slowdown

  test("render Fig. 4 table") {
    println(res.render)
  }

  test("unbuffered repro types cost a substantial multiple of built-ins") {
    for (l <- 1 to 4) {
      assert(slow(s"repro<double,$l>") >= 1.8, s"repro<double,$l>: ${slow(s"repro<double,$l>")}")
      assert(slow(s"repro<float,$l>") >= 1.8, s"repro<float,$l>: ${slow(s"repro<float,$l>")}")
    }
  }

  test("slowdown grows with L") {
    for (scalar <- Seq("double", "float")) {
      val s = (1 to 4).map(l => slow(s"repro<$scalar,$l>"))
      assert(s(3) > s(0), s"$scalar: L=4 (${s(3)}) should cost more than L=1 (${s(0)})")
    }
  }
}

/** Supporting experiment behind §VI-B2/Fig. 6: chunked RSUM. The batched
  * kernel has a cost per call (a range scan, and a fold per level), so it
  * can lose to the scalar kernel on the tiniest chunks, and it approaches
  * its single-call throughput for large ones.
  */
class Fig6Bench extends AnyFunSuite {

  lazy val res: Fig6.Result = Fig6.run()

  test("render Fig. 6 table") {
    println(res.render)
  }

  test("render the scalar/batched crossover") {
    println(Fig6.crossover().render)
  }

  test("batched RSUM improves monotonically (within noise) with chunk size") {
    val simd = res.rows.map(_.simdSlowdown)
    assert(simd.last <= simd.head,
      s"simd at largest chunk (${simd.last}) should beat smallest chunk (${simd.head})")
  }

  test("batched RSUM beats scalar RSUM for large chunks") {
    val large = res.rows.filter(_.chunk >= 512)
    assert(large.exists(r => r.simdSlowdown <= r.scalarSlowdown * 1.05),
      "expected the batched kernel to catch up with the scalar kernel by c=512")
  }

  test("large-chunk batched RSUM lands within a small factor of a plain sum") {
    assert(res.simdInfSlowdown <= 30.0,
      s"single-call batched slowdown ${res.simdInfSlowdown} vs conventional is out of range")
  }
}

/** Fig. 9 / §V-C, the offline depth tuning: ns/element of
  * PartitionAndAggregate at each partitioning depth by group count, for
  * buffered `repro<double,2>` and for built-in double. Where the curves
  * cross are `PartitionAndAggregate.depthFor`'s and
  * `TableIII.builtinDepthFor`'s thresholds; read them off the printed
  * traces.
  */
class Fig9Bench extends AnyFunSuite {

  lazy val buffered: Fig9.Result = Fig9.run()
  lazy val builtin: Fig9.Result = Fig9.run(buffered = false)

  test("render Fig. 9 traces (buffered repro, built-in double)") {
    println(buffered.render)
    println(builtin.render)
  }

  test("every group count has a finite time at each of d = 0, 1, 2") {
    for (res <- Seq(buffered, builtin); r <- res.rows) {
      assert(r.nsByDepth.size == 3 && r.nsByDepth.forall(java.lang.Double.isFinite),
        s"2^${Integer.numberOfTrailingZeros(r.groups)} groups: ${r.nsByDepth}")
    }
  }
}
