package repro.exec

import org.scalatest.concurrent.{Signaler, ThreadSignaler, TimeLimits}
import org.scalatest.funsuite.AnyFunSuite
import org.scalatest.time.{Seconds, Span}
import repro.{FullDomain, SynthData}
import repro.core.{ReproDouble, ReproFloat}
import repro.core.ExactSum.{bits, bitsF}
import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration.Duration
import scala.util.Random

class RadixPartitionSpec extends AnyFunSuite with TimeLimits {

  test("d=0 is a no-op forward") {
    val keys = SynthData.localUniformKeys(1000, 64, 1)
    val vals = SynthData.localUniformValues(1000, 2)
    val p = RadixPartition.partition(keys, vals, 0)
    assert(p.keys.sameElements(keys) && p.values.sameElements(vals))
    assert(p.offsets.sameElements(Array(0, 1000)))
  }

  for (d <- 1 to 2) {
    test(s"d=$d: output is a permutation of the input") {
      val n = 10000
      val keys = SynthData.localUniformKeys(n, 5000, 3)
      val vals = SynthData.localUniformValues(n, 4)
      val p = RadixPartition.partition(keys, vals, d)
      val inPairs  = keys.zip(vals).sorted
      val outPairs = p.keys.zip(p.values).sorted
      assert(inPairs.sameElements(outPairs))
    }

    test(s"d=$d: every record lands in the partition of its low bits, boundaries consistent") {
      val n = 10000
      val fanout = 1 << (8 * d)
      val keys = SynthData.localUniformKeys(n, 70000, 5)
      val vals = SynthData.localUniformValues(n, 6)
      val p = RadixPartition.partition(keys, vals, d)
      assert(p.offsets.length == fanout + 1)
      assert(p.offsets(0) == 0 && p.offsets(fanout) == n)
      for (part <- 0 until fanout; i <- p.offsets(part) until p.offsets(part + 1))
        assert((p.keys(i) & (fanout - 1)) == part)
    }

    test(s"d=$d: partitioning is stable within a partition") {
      // stability matters for determinism of downstream iteration order
      val keys = Array(5, 5, 5, 5, 5)
      val vals = Array(1.0, 2.0, 3.0, 4.0, 5.0)
      val p = RadixPartition.partition(keys, vals, d)
      assert(p.values.sameElements(vals))
    }

    test(s"d=$d: partition and partitionF leave the caller's arrays bit-identical") {
      val n = 10000
      val keys = SynthData.localUniformKeys(n, 70000, 9)
      val vals = SynthData.localMixedValues(n, 10)
      val valsF = SynthData.toFloats(vals)
      val (keys0, vals0, valsF0) = (keys.clone(), vals.map(bits), valsF.map(bitsF))
      val pd = RadixPartition.partition(keys, vals, d)
      val pf = RadixPartition.partitionF(keys, valsF, d)
      assert(keys.sameElements(keys0))
      assert(vals.map(bits).sameElements(vals0))
      assert(valsF.map(bitsF).sameElements(valsF0))
      assert((pd.keys ne keys) && (pd.values ne vals) && (pf.keys ne keys) && (pf.values ne valsF))
    }
  }

  test("d=1/d=2: partition and partitionF give the stable sort's arrays on 1 to 5 workers") {
    for (d <- 1 to 2; n <- Seq(0, 1, 3, 257, 10000)) {
      val keys = SynthData.localUniformKeys(n, 70000, 11 + n)
      val vals = SynthData.localMixedValues(n, 12 + n)
      val valsF = SynthData.toFloats(vals)
      val mask = (1 << (8 * d)) - 1
      val order = keys.indices.sortBy(keys(_) & mask)
      val offsets = new Array[Int](mask + 2)
      keys.foreach(k => offsets((k & mask) + 1) += 1)
      for (p <- 1 to mask + 1) offsets(p) += offsets(p - 1)
      for (workers <- 1 to 5) {
        val clue = s"d=$d, n=$n, workers=$workers"
        val pd = RadixPartition.partition(keys, vals, d, workers)
        val pf = RadixPartition.partitionF(keys, valsF, d, workers)
        assert(pd.keys.sameElements(order.map(keys)) && pf.keys.sameElements(pd.keys), clue)
        assert(pd.values.map(bits).sameElements(order.map(i => bits(vals(i)))), clue)
        assert(pf.values.map(bitsF).sameElements(order.map(i => bitsF(valsF(i)))), clue)
        assert(pd.offsets.sameElements(offsets) && pf.offsets.sameElements(offsets), clue)
      }
    }
  }

  /** Key sets that a wrong nibble order, or bounds taken from the wrong
    * nibble or byte, would misplace, and one whose every nibble is the
    * same in every row.
    */
  private def nibbleKeySets(d: Int): Seq[(String, Array[Int])] = {
    val r = new Random(40 + d)
    val fanout = 1 << (8 * d)
    Seq(
      "the full Int range" -> Array.fill(5000)(r.nextInt()),
      "one bucket of the first byte" -> Array.fill(5000)(r.nextInt() << 8 | 0x5a),
      "one bucket of the second byte" -> Array.fill(5000)(r.nextInt() & 0xffff00ff | 0xa500),
      "a shared low nibble in every byte" -> Array.fill(5000)(r.nextInt() & 0xf0f0f0f0 | 0x06060606),
      "one row per bucket" -> r.shuffle((0 until fanout).toVector).map(p => r.nextInt() << (8 * d) | p).toArray,
      "one key" -> Array.fill(5000)(-0x3c5a7b8e))
  }

  test("d=1/d=2 on nibble-sensitive keys: partition and partitionF give the stable sort's arrays, never the caller's, on 1 to 5 workers") {
    for (d <- 1 to 2; (name, keys) <- nibbleKeySets(d)) {
      val n = keys.length
      val vals = SynthData.localMixedValues(n, 50 + d)
      val valsF = SynthData.toFloats(vals)
      val mask = (1 << (8 * d)) - 1
      val order = keys.indices.sortBy(keys(_) & mask)
      val offsets = new Array[Int](mask + 2)
      keys.foreach(k => offsets((k & mask) + 1) += 1)
      for (p <- 1 to mask + 1) offsets(p) += offsets(p - 1)
      val runs = (1 to 5).map(w => (s"workers=$w", RadixPartition.partition(keys, vals, d, w),
                                    RadixPartition.partitionF(keys, valsF, d, w))) :+
        (("public", RadixPartition.partition(keys, vals, d), RadixPartition.partitionF(keys, valsF, d)))
      for ((how, pd, pf) <- runs) {
        val clue = s"d=$d, $name, $how"
        assert((pd.keys ne keys) && (pd.values ne vals) && (pf.keys ne keys) && (pf.values ne valsF), clue)
        assert(pd.keys.sameElements(order.map(keys)) && pf.keys.sameElements(pd.keys), clue)
        assert(pd.values.map(bits).sameElements(order.map(i => bits(vals(i)))), clue)
        assert(pf.values.map(bitsF).sameElements(order.map(i => bitsF(valsF(i)))), clue)
        assert(pd.offsets.sameElements(offsets) && pf.offsets.sameElements(offsets), clue)
      }
    }
  }

  test("d=1/d=2 on nibble-sensitive keys: run/runF on 1 to 5 workers give the keys, bits and order of 1 worker on a new thread, and leave the caller's rows unchanged") {
    import AggKind._
    for (d <- 1 to 2; (name, keys) <- nibbleKeySets(d)) {
      val vals = SynthData.localMixedValues(keys.length, 60 + d)
      val valsF = SynthData.toFloats(vals)
      // Tables with room for the keys of the most crowded partition.
      val mask = (1 << (8 * d)) - 1
      val crowded = keys.distinct.groupBy(_ & mask).values.map(_.length).max
      val nGroups = math.min(crowded.toLong << (8 * d), Int.MaxValue.toLong).toInt
      val (keys0, vals0, valsF0) = (keys.clone(), vals.map(bits), valsF.map(bitsF))
      for (kind <- Seq(PlainD, ReproD(2), BufD(2, 16), PlainF, BufF(2, 16))) {
        def call(workers: Int): (Array[Int], Array[Double]) = kind match {
          case PlainF | BufF(_, _) => PartitionAndAggregate.runF(keys, valsF, nGroups, d, kind, workers)
          case _                   => PartitionAndAggregate.run(keys, vals, nGroups, d, kind, workers)
        }
        var fresh: (Array[Int], Array[Double]) = null
        val t = new Thread(() => fresh = call(1))
        t.start()
        t.join()
        val clue = s"d=$d, $name, ${kind.name}"
        assert(fresh != null && fresh._1.length == keys.distinct.length, clue)
        for (workers <- 1 to 5) {
          val (k, v) = call(workers)
          assert(k.sameElements(fresh._1) && v.map(bits).sameElements(fresh._2.map(bits)), s"$clue, workers=$workers")
          assert(keys.sameElements(keys0) && vals.map(bits).sameElements(vals0) &&
                 valsF.map(bitsF).sameElements(valsF0), s"$clue, workers=$workers: the caller's rows changed")
        }
      }
    }
  }

  test("d=2 with nGroups = distinct keys * 65536, tables far larger than their partitions: within 60 s, the key->bits of tables fitted to the most crowded partition, in one order on 1 and 4 workers") {
    import AggKind._
    implicit val signaler: Signaler = ThreadSignaler
    // Emit once scanned every slot of a table of thousands of slots for each
    // partition of a few keys: this took minutes.
    def body(): Unit =
      for ((name, keys) <- nibbleKeySets(2)) {
        val vals = SynthData.localMixedValues(keys.length, 70)
        val valsF = SynthData.toFloats(vals)
        val distinct = keys.distinct
        val crowded = distinct.groupBy(_ & 0xffff).values.map(_.length).max
        def groups(perPartition: Int): Int = math.min(perPartition.toLong << 16, Int.MaxValue.toLong).toInt
        for (kind <- Seq(PlainD, ReproD(2), BufD(2, 16), PlainF, BufF(2, 16))) {
          def call(nGroups: Int, workers: Int): (Array[Int], Array[Double]) = kind match {
            case PlainF | BufF(_, _) => PartitionAndAggregate.runF(keys, valsF, nGroups, 2, kind, workers)
            case _                   => PartitionAndAggregate.run(keys, vals, nGroups, 2, kind, workers)
          }
          def byKey(out: (Array[Int], Array[Double])): Map[Int, Long] = out._1.zip(out._2.map(bits)).toMap
          val clue = s"$name, ${kind.name}"
          val fitted = byKey(call(groups(crowded), 1))
          val (k1, v1) = call(groups(distinct.length), 1)
          val (k4, v4) = call(groups(distinct.length), 4)
          assert(fitted.size == distinct.length && byKey((k1, v1)) == fitted, clue)
          assert(k4.sameElements(k1) && v4.map(bits).sameElements(v1.map(bits)), s"$clue: 4 workers")
        }
      }
    failAfter(Span(60, Seconds))(Await.result(Future(body())(ExecutionContext.global), Duration.Inf))
  }

  test("float variant partitions identically to the double variant") {
    val n = 5000
    val keys = SynthData.localUniformKeys(n, 3000, 7)
    val vals = SynthData.localUniformValues(n, 8)
    val pd = RadixPartition.partition(keys, vals, 1)
    val pf = RadixPartition.partitionF(keys, SynthData.toFloats(vals), 1)
    assert(pd.keys.sameElements(pf.keys))
    assert(pd.offsets.sameElements(pf.offsets))
  }
}

class HashAggSpec extends AnyFunSuite {

  /** Order-insensitive reference: exact per-group sums via BigDecimal. */
  private def reference(keys: Array[Int], vals: Array[Double]): Map[Int, BigDecimal] =
    keys.zip(vals).groupBy(_._1).map { case (k, kvs) =>
      k -> kvs.foldLeft(BigDecimal(0))((a, kv) => a + BigDecimal(kv._2))
    }

  private def checkClose(got: (Array[Int], Array[Double]), ref: Map[Int, BigDecimal],
                         tol: Double): Unit = {
    val m = got._1.zip(got._2).toMap
    assert(m.keySet == ref.keySet, "group key sets differ")
    for ((k, exp) <- ref)
      assert((exp - BigDecimal(m(k))).abs.toDouble <= tol, s"group $k: got ${m(k)} exp $exp")
  }

  val kinds: Seq[AggKind] = Seq(
    AggKind.PlainD, AggKind.Dec64,
    AggKind.ReproD(1), AggKind.ReproD(2), AggKind.ReproD(3), AggKind.ReproD(4),
    AggKind.BufD(2, 16), AggKind.BufD(2, 256), AggKind.BufD(4, 64))

  for (kind <- kinds; d <- 0 to 2) {
    test(s"${kind.name}, d=$d: correct group sums (uniform values)") {
      val n = 20000; val g = 700
      val keys = SynthData.localUniformKeys(n, g, 11)
      val vals = SynthData.localUniformValues(n, 12)
      val got = PartitionAndAggregate.run(keys, vals, g, d, kind)
      // L=1 keeps only the top W bits per group (Eq. 6 allows ~2^-13 per
      // value at this magnitude); deeper levels are near-exact here
      val tol = kind match {
        case AggKind.Dec64        => 0.01 * n
        case AggKind.ReproD(1)    => (n.toDouble / g) * math.pow(2.0, -13) * 4
        case _                    => 1e-6
      }
      checkClose(got, reference(keys, vals), tol)
    }
  }

  val floatKinds: Seq[AggKind] = Seq(
    AggKind.PlainF, AggKind.ReproF(1), AggKind.ReproF(2), AggKind.ReproF(4),
    AggKind.BufF(2, 16), AggKind.BufF(3, 128))

  for (kind <- floatKinds; d <- 0 to 1) {
    test(s"${kind.name}, d=$d: correct group sums (uniform values)") {
      val n = 20000; val g = 700
      val keys = SynthData.localUniformKeys(n, g, 13)
      val vals = SynthData.toFloats(SynthData.localUniformValues(n, 14))
      val got = PartitionAndAggregate.runF(keys, vals, g, d, kind)
      val ref = keys.zip(vals).groupBy(_._1).map { case (k, kvs) =>
        k -> kvs.foldLeft(BigDecimal(0))((a, kv) => a + BigDecimal(kv._2.toDouble))
      }
      val m = got._1.zip(got._2).toMap
      assert(m.keySet == ref.keySet)
      for ((k, exp) <- ref)
        assert((exp - BigDecimal(m(k))).abs.toDouble <= 0.5, s"group $k")
    }
  }

  test("single-group input aggregates to the full sum") {
    val vals = SynthData.localUniformValues(5000, 15)
    val got = PartitionAndAggregate.run(Array.fill(5000)(0), vals, 1, 0, AggKind.ReproD(2))
    assert(got._1.sameElements(Array(0)))
    assert(math.abs(got._2(0) - vals.sum) < 1e-6)
  }

  test("all-distinct input emits one row per record") {
    val n = 4096
    val keys = Array.range(0, n)
    val vals = SynthData.localUniformValues(n, 16)
    for (kind <- Seq(AggKind.PlainD, AggKind.ReproD(2), AggKind.BufD(2, 8)); d <- 0 to 1) {
      val got = PartitionAndAggregate.run(keys, vals, n, d, kind)
      assert(got._1.length == n, s"${kind.name}, d=$d")
      val m = got._1.zip(got._2).toMap
      for (i <- 0 until n) assert(m(i) == vals(i), s"${kind.name}, d=$d, key $i")
    }
  }

  test("a warm run/runF at d=1 and d=2 on one worker allocates on the calling thread its result, plus 64 KiB") {
    import AggKind._
    val mx = java.lang.management.ManagementFactory.getThreadMXBean
      .asInstanceOf[com.sun.management.ThreadMXBean]
    assert(mx.isThreadAllocatedMemorySupported)
    mx.setThreadAllocatedMemoryEnabled(true)
    val t = Thread.currentThread.getId
    // 16 rows per group: the radix pass's rows (12 B each) are 16 times
    // the result's, and far more than 64 KiB.
    val n = 1 << 16
    val groups = 1 << 12
    val keys = SynthData.localUniformKeys(n, groups, 31)
    val vals = SynthData.localUniformValues(n, 32)
    val valsF = SynthData.toFloats(vals)
    for (d <- 1 to 2; kind <- Seq(PlainD, Dec64, ReproD(2), BufD(2, 16), PlainF, ReproF(2), BufF(2, 16))) {
      def call(): (Array[Int], Array[Double]) = kind match {
        case PlainF | ReproF(_) | BufF(_, _) => PartitionAndAggregate.runF(keys, valsF, groups, d, kind, 1)
        case _                               => PartitionAndAggregate.run(keys, vals, groups, d, kind, 1)
      }
      call(); call()
      val probe = { val a = mx.getThreadAllocatedBytes(t); mx.getThreadAllocatedBytes(t) - a }
      val before = mx.getThreadAllocatedBytes(t)
      val out = call()
      val bytes = mx.getThreadAllocatedBytes(t) - before - probe
      assert(out._1.length == groups)
      assert(bytes <= 12L * groups + (64 << 10), s"${kind.name}, d=$d: $bytes B for $groups groups")
    }
  }

  test("empty input emits no rows") {
    for (kind <- Seq(AggKind.PlainD, AggKind.ReproD(2), AggKind.BufD(2, 8))) {
      val got = PartitionAndAggregate.run(new Array[Int](0), new Array[Double](0), 1, 0, kind)
      assert(got._1.isEmpty && got._2.isEmpty)
    }
  }

  // ----------------------------------- summation buffers finalized at emit

  /** `out` of a table, its keys and result bits in emit order. */
  private def emitted(t: AggTable[_]): Seq[(Int, Long)] = {
    val (k, v) = (new Array[Int](t.size), new Array[Double](t.size))
    assert(t.emit(k, v, 0) == t.size)
    k.toSeq.zip(v.map(bits))
  }

  /** Rows of one table over `FullDomain`'s values, shuffled together: 24
    * groups of about `3 * bsz` rows, more than their buffer holds, and 72 of
    * about `bsz / 4`, fewer; special values included. The float rows have
    * the same keys.
    */
  private def crowdedAndSparse(bsz: Int, seed: Long): (Array[Int], Array[Double], Array[Float]) = {
    val (crowded, sparse) = FullDomain.keys(96).splitAt(24)
    val (kc, vc) = FullDomain.doubles(24 * 3 * bsz, seed, crowded)
    val (ks, vs) = FullDomain.doubles(72 * math.max(1, bsz / 4), seed + 1, sparse)
    val (_, fc) = FullDomain.floats(kc.length, seed, crowded)
    val (_, fs) = FullDomain.floats(ks.length, seed + 1, sparse)
    val perm = new Random(seed).shuffle((0 until kc.length + ks.length).toVector).toArray
    (perm.map(kc ++ ks), perm.map(vc ++ vs), perm.map(fc ++ fs))
  }

  // At bsz = 256 the sparse groups hold more values than sumOf takes at
  // the first emit, so their slots are flushed and evaluated there.
  for (l <- Seq(1, 2, 4); bsz <- Seq(1, 4, 16, 64, 256)) {
    test(s"BufDTable/BufFTable L=$l, bsz=$bsz, groups above and below bsz in one table: emit, emit again, aggregate more, emit give ReproDTable/ReproFTable's keys, order and bits") {
      val (keys, vals, valsF) = crowdedAndSparse(bsz, 600L + 10 * l + bsz)
      val counts = keys.groupBy(identity).values.map(_.length)
      if (bsz >= 16) assert(counts.exists(_ > bsz) && counts.exists(_ < bsz))
      val (n, half, cap) = (keys.length, keys.length / 2, HashAgg.capacityFor(96))
      def check[A](buf: AggTable[A], ref: AggTable[A], whole: AggTable[A], values: A, what: String): Unit = {
        buf.aggregate(keys, values, 0, half, 0)
        ref.aggregate(keys, values, 0, half, 0)
        val first = emitted(buf)
        assert(first == emitted(ref), s"$what: first emit")
        assert(emitted(buf) == first, s"$what: second emit")
        buf.aggregate(keys, values, half, n, 0)
        ref.aggregate(keys, values, half, n, 0)
        whole.aggregate(keys, values, 0, n, 0)
        val last = emitted(buf)
        assert(last == emitted(ref) && last == emitted(whole), s"$what: emit after more rows")
      }
      check(new BufDTable(cap, l, bsz), new ReproDTable(cap, l), new BufDTable(cap, l, bsz), vals, "double")
      check(new BufFTable(cap, l, bsz), new ReproFTable(cap, l), new BufFTable(cap, l, bsz), valsF, "float")
    }
  }

  test("an emit into too short an array throws before it marks a slot: reset, aggregate, emit then give a fresh table's output") {
    val (keys, vals, valsF) = crowdedAndSparse(16, 700L)
    val (n, cap) = (keys.length, HashAgg.capacityFor(96))
    def check[A](t: AggTable[A], fresh: AggTable[A], values: A, what: String): Unit = {
      t.aggregate(keys, values, 0, n, 0)
      val m = t.size
      intercept[IndexOutOfBoundsException](t.emit(new Array[Int](m - 1), new Array[Double](m), 0))
      intercept[IndexOutOfBoundsException](t.emit(new Array[Int](m), new Array[Double](m - 1), 0))
      intercept[IndexOutOfBoundsException](t.emit(new Array[Int](m + 1), new Array[Double](m + 1), 2))
      intercept[IndexOutOfBoundsException](t.emit(new Array[Int](m), new Array[Double](m), -1))
      t.reset()
      t.aggregate(keys, values, 0, n / 3, 0)
      fresh.aggregate(keys, values, 0, n / 3, 0)
      assert(emitted(t) == emitted(fresh), what)
    }
    check(new BufDTable(cap, 2, 16), new BufDTable(cap, 2, 16), vals, "BufDTable")
    check(new BufFTable(cap, 2, 16), new BufFTable(cap, 2, 16), valsF, "BufFTable")
    check(new PlainDTable(cap), new PlainDTable(cap), vals, "PlainDTable")
    val t = new BufFTable(cap, 2, 16)
    t.aggregate(keys, valsF, 0, n, 0)
    intercept[IndexOutOfBoundsException](t.emitFloats(new Array[Int](t.size), new Array[Float](t.size - 1), 0))
    t.reset()
    t.aggregate(keys, valsF, 0, 10, 0)
    val fresh = new BufFTable(cap, 2, 16)
    fresh.aggregate(keys, valsF, 0, 10, 0)
    assert(emitted(t) == emitted(fresh), "BufFTable, emitFloats")
  }

  test("a buffered table's pending value that is huge, ±Inf or NaN gives the unbuffered table's bits at emit") {
    val specialsD = Seq(ReproDouble.HugeThreshold, -Double.MaxValue, Double.PositiveInfinity, Double.NegativeInfinity,
                        Double.NaN)
    val specialsF = Seq(ReproFloat.HugeThreshold, -Float.MaxValue, Float.PositiveInfinity, Float.NegativeInfinity,
                        Float.NaN)
    // Group g holds 3 values, the special one at position g % 3.
    val keys = Array.tabulate(15)(_ / 3)
    val vals = Array.tabulate(15)(i => if (i % 3 == (i / 3) % 3) specialsD(i / 3) else 1.5 + i)
    val valsF = Array.tabulate(15)(i => if (i % 3 == (i / 3) % 3) specialsF(i / 3) else 1.5f + i)
    val (buf, ref) = (new BufDTable(16, 2, 8), new ReproDTable(16, 2))
    buf.aggregate(keys, vals, 0, 15, 0); ref.aggregate(keys, vals, 0, 15, 0)
    assert(emitted(buf) == emitted(ref) && emitted(buf) == emitted(ref))
    val (bufF, refF) = (new BufFTable(16, 2, 8), new ReproFTable(16, 2))
    bufF.aggregate(keys, valsF, 0, 15, 0); refF.aggregate(keys, valsF, 0, 15, 0)
    assert(emitted(bufF) == emitted(refF) && emitted(bufF) == emitted(refF))
  }

  // ------------------------------------------------- bit-reproducibility

  for (l <- 1 to 4) {
    test(s"repro<double,$l>: identical result bits across permutations and depths") {
      val n = 30000; val g = 1000
      val keys = SynthData.localUniformKeys(n, g, 21)
      val vals = SynthData.localMixedValues(n, 22)
      val ref = PartitionAndAggregate.run(keys, vals, g, 0, AggKind.ReproD(l))
      val refMap = ref._1.zip(ref._2.map(bits)).toMap
      val r = new Random(23)
      for (trial <- 1 to 3; d <- 0 to 2) {
        val perm = r.shuffle(keys.indices.toList).toArray
        val pk = perm.map(keys); val pv = perm.map(vals)
        val got = PartitionAndAggregate.run(pk, pv, g, d, AggKind.ReproD(l))
        val gotMap = got._1.zip(got._2.map(bits)).toMap
        assert(gotMap == refMap, s"trial=$trial d=$d")
      }
    }
  }

  test("repro buffered: identical result bits across permutations, depths and buffer sizes") {
    val n = 30000; val g = 1000
    val keys = SynthData.localUniformKeys(n, g, 31)
    val vals = SynthData.localMixedValues(n, 32)
    val ref = PartitionAndAggregate.run(keys, vals, g, 0, AggKind.ReproD(2))
    val refMap = ref._1.zip(ref._2.map(bits)).toMap
    val r = new Random(33)
    for (bsz <- Seq(1, 8, 64, 1024); d <- 0 to 2) {
      val perm = r.shuffle(keys.indices.toList).toArray
      val pk = perm.map(keys); val pv = perm.map(vals)
      val got = PartitionAndAggregate.run(pk, pv, g, d, AggKind.BufD(2, bsz))
      val gotMap = got._1.zip(got._2.map(bits)).toMap
      assert(gotMap == refMap, s"bsz=$bsz d=$d")
    }
  }

  test("plain double aggregation is NOT permutation-stable on adversarial data (sanity)") {
    val n = 30000; val g = 4
    val keys = SynthData.localUniformKeys(n, g, 41)
    val vals = SynthData.localMixedValues(n, 42)
    val ref = PartitionAndAggregate.run(keys, vals, g, 0, AggKind.PlainD)
    val refMap = ref._1.zip(ref._2.map(bits)).toMap
    val r = new Random(43)
    val anyDiff = (1 to 5).exists { _ =>
      val perm = r.shuffle(keys.indices.toList).toArray
      val got = PartitionAndAggregate.run(perm.map(keys), perm.map(vals), g, 0, AggKind.PlainD)
      got._1.zip(got._2.map(bits)).toMap != refMap
    }
    assert(anyDiff, "expected plain double group sums to differ across permutations")
  }

  // ----------------------------------------------------------- tuning model

  test("Eq.4 buffer-size model: monotone in groups, clamped to [8, BszMax]") {
    import PartitionAndAggregate.bszFor
    assert(bszFor(1, 1, 8) == PartitionAndAggregate.BszMax)
    assert(bszFor(1 << 24, 1, 8) == 8)
    assert(bszFor(1 << 14, 1, 8) == (PartitionAndAggregate.CacheBytes / ((1 << 14) * 8)))
    assert(bszFor(1 << 14, 256, 8) >= bszFor(1 << 14, 1, 8))
    val sizes = Seq(1 << 6, 1 << 10, 1 << 14, 1 << 18).map(g => bszFor(g, 1, 8))
    assert(sizes == sizes.sorted.reverse)
  }

  test("Eq.4 at 2^28, 2^29, 2^30 and Int.MaxValue groups: the exact model, no Int overflow") {
    import PartitionAndAggregate.{bszFor, BszMax, CacheBytes}
    for (nGroups <- Seq(1 << 28, 1 << 29, 1 << 30, Int.MaxValue); fanout <- Seq(1, 256, 65536); bytes <- Seq(4, 8)) {
      val perPart = (BigInt(nGroups) + fanout - 1) / fanout
      val expected = (BigInt(CacheBytes) / (perPart * bytes)).min(BszMax).max(8).toInt
      assert(bszFor(nGroups, fanout, bytes) == expected, s"nGroups=$nGroups, fanout=$fanout, bytes=$bytes")
    }
  }

  test("depth model matches the offline-tuned thresholds") {
    import PartitionAndAggregate.depthFor
    assert(depthFor(1 << 6) == 0)
    assert(depthFor((1 << 15) - 1) == 0)
    assert(depthFor(1 << 15) == 1)
    assert(depthFor(1 << 21) == 1)
    assert(depthFor(1 << 22) == 2)
    // ordering vs built-ins: buffered repro partitions earlier
    assert(TableIIIDepthCheck.builtinThreshold > (1 << 15))
  }
}

/** Indirection so the exec-layer spec can check the relative ordering of
  * the two depth models without depending on the tables package directly.
  */
object TableIIIDepthCheck {
  def builtinThreshold: Int = {
    var g = 1
    while (repro.tables.TableIII.builtinDepthFor(g) == 0) g <<= 1
    g
  }
}

class SortAggSpec extends AnyFunSuite {

  test("sorted aggregation computes correct sums") {
    val n = 5000; val g = 100
    val keys = SynthData.localUniformKeys(n, g, 51)
    val vals = SynthData.localUniformValues(n, 52)
    val (gk, gv) = SortAgg.run(keys, vals)
    val ref = keys.zip(vals).groupBy(_._1)
    assert(gk.length == ref.size)
    val m = gk.zip(gv).toMap
    for ((k, kvs) <- ref)
      assert(math.abs(m(k) - kvs.map(_._2).sum) < 1e-6)
  }

  test("sorted aggregation is bit-reproducible across permutations (by construction)") {
    val n = 5000; val g = 20
    val keys = SynthData.localUniformKeys(n, g, 53)
    val vals = SynthData.localMixedValues(n, 54)
    val ref = SortAgg.run(keys, vals)
    val refMap = ref._1.zip(ref._2.map(bits)).toMap
    val r = new Random(55)
    for (_ <- 1 to 5) {
      val perm = r.shuffle(keys.indices.toList).toArray
      val got = SortAgg.run(perm.map(keys), perm.map(vals))
      assert(got._1.zip(got._2.map(bits)).toMap == refMap)
    }
  }

  test("sorted aggregation emits keys in ascending order") {
    val keys = Array(3, 1, 2, 1, 3, 0)
    val vals = Array(1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    val (gk, gv) = SortAgg.run(keys, vals)
    assert(gk.sameElements(Array(0, 1, 2, 3)))
    assert(gv.sameElements(Array(6.0, 6.0, 3.0, 6.0)))
  }
}
