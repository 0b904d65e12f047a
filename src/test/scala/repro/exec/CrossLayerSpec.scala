package repro.exec

import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration.Duration
import scala.reflect.ClassTag
import scala.util.Random

import org.scalatest.concurrent.{Signaler, ThreadSignaler, TimeLimits}
import org.scalatest.funsuite.AnyFunSuite
import org.scalatest.time.{Seconds, Span}

import repro.FullDomain
import repro.core.ExactSum.{bits, bitsF}

/** The same multisets through `ReproDouble`/`ReproFloat` and through
  * `PartitionAndAggregate` must give the same result bits, for the whole
  * IEEE domain, every depth and every buffer size.
  */
class CrossLayerSpec extends AnyFunSuite {
  import AggKind._

  private val Levels = 2
  private val Rows = 20000
  private val nGroups = FullDomain.Keys.length

  private def groupBits(out: (Array[Int], Array[Double])): Map[Int, Long] = {
    assert(out._1.distinct.length == out._1.length, "a key was emitted twice")
    out._1.zip(out._2.map(bits)).toMap
  }

  private def shuffled[A: ClassTag](keys: Array[Int], vals: Array[A], seed: Long): (Array[Int], Array[A]) = {
    val perm = new Random(seed).shuffle(keys.indices.toVector).toArray
    (perm.map(keys), perm.map(vals))
  }

  /** The reference must hold every kind of result, or the test is vacuous. */
  private def assertCoversDomain(ref: Map[Int, Long]): Unit = {
    val vs = ref.values.map(java.lang.Double.longBitsToDouble)
    assert(vs.exists(_.isNaN) && vs.exists(_ == Double.PositiveInfinity) &&
           vs.exists(_ == Double.NegativeInfinity) && vs.exists(v => v != 0.0 && !v.isInfinite && !v.isNaN))
  }

  for (seed <- 1L to 3L) {
    test(s"seed=$seed: ReproD/BufD bits equal ReproDouble bits on full-domain input") {
      val (keys, vals) = FullDomain.doubles(Rows, seed)
      val ref = FullDomain.reproBits(keys, vals, Levels)
      assertCoversDomain(ref)
      for (d <- 0 to 2; kind <- ReproD(Levels) +: Seq(1, 16, 256).map(BufD(Levels, _))) {
        val (k, v) = shuffled(keys, vals, seed * 10 + d)
        assert(groupBits(PartitionAndAggregate.run(k, v, nGroups, d, kind)) == ref, s"${kind.name}, d=$d")
      }
    }

    test(s"seed=$seed: ReproF/BufF bits equal ReproFloat bits on full-domain input") {
      val (keys, vals) = FullDomain.floats(Rows, seed)
      val ref = FullDomain.reproBitsF(keys, vals, Levels)
      assertCoversDomain(ref)
      for (d <- 0 to 2; kind <- ReproF(Levels) +: Seq(1, 16, 256).map(BufF(Levels, _))) {
        val (k, v) = shuffled(keys, vals, seed * 10 + d)
        assert(groupBits(PartitionAndAggregate.runF(k, v, nGroups, d, kind)) == ref, s"${kind.name}, d=$d")
      }
    }
  }

  test("every kind at d=0..2 on 2, 3 and 4 workers: the keys, bits and order of 1 worker; repro kinds: ReproDouble/ReproFloat bits") {
    // Every fourth key from 7: at d = 1 most of the 256 partitions stay
    // empty, at d = 2 nearly all.
    val keySet = (FullDomain.Keys ++ Array.tabulate(200)(i => 7 + 4 * i)).distinct
    assert(keySet.map(_ & 255).distinct.length < 256)
    val (keys, vals) = FullDomain.doubles(Rows, 4, keySet)
    val (keysF, valsF) = FullDomain.floats(Rows, 5, keySet)
    val ref = FullDomain.reproBits(keys, vals, Levels)
    val refF = FullDomain.reproBitsF(keysF, valsF, Levels)
    assertCoversDomain(ref)
    assertCoversDomain(refF)
    val kinds = Seq(PlainD, Dec64, ReproD(Levels), BufD(Levels, 16), PlainF, ReproF(Levels), BufF(Levels, 16))
    for (kind <- kinds; d <- 0 to 2) {
      val out = (1 to 4).map { workers =>
        kind match {
          case PlainF | ReproF(_) | BufF(_, _) =>
            PartitionAndAggregate.runF(keysF, valsF, keySet.length, d, kind, workers)
          case _ =>
            PartitionAndAggregate.run(keys, vals, keySet.length, d, kind, workers)
        }
      }
      val (k1, v1) = out.head
      for (workers <- 2 to 4) {
        val (k, v) = out(workers - 1)
        assert(k.sameElements(k1) && v.map(bits).sameElements(v1.map(bits)), s"${kind.name}, d=$d, workers=$workers")
      }
      kind match {
        case ReproD(_) | BufD(_, _) => assert(groupBits(out.head) == ref, s"${kind.name}, d=$d")
        case ReproF(_) | BufF(_, _) => assert(groupBits(out.head) == refF, s"${kind.name}, d=$d")
        case _ =>
      }
    }
  }

  test("d=0 merge with colliding slots, every kind on 1 to 4 workers: the keys, bits and order of 1 worker; repro kinds: ReproDouble/ReproFloat bits") {
    // 60 keys above the capacity whose identity slots are 0, 1 and 2: one
    // probe cluster, where a key's slot depends on the order of the claims.
    // Key i first appears in quarter i / 15 of the input, so every chunk
    // claims keys, after those of the chunks before it.
    val cap = HashAgg.capacityFor(60)
    val keySet = Array.tabulate(60)(i => (i + 1) * cap + i % 3)
    assert(Rows / 4 >= math.max(PartitionAndAggregate.MinChunkRows, cap), "4 workers would not split the input")
    def quarters[A: ClassTag](rows: (Int, Long, Array[Int]) => (Array[Int], Array[A])): (Array[Int], Array[A]) = {
      val qs = (1 to 4).map(q => rows(Rows / 4, 40L + q, keySet.take(15 * q)))
      (qs.flatMap(_._1).toArray, qs.flatMap(_._2).toArray)
    }
    val (keys, vals) = quarters(FullDomain.doubles(_, _, _))
    val (keysF, valsF) = quarters(FullDomain.floats(_, _, _))
    val ref = FullDomain.reproBits(keys, vals, Levels)
    val refF = FullDomain.reproBitsF(keysF, valsF, Levels)
    assertCoversDomain(ref)
    assertCoversDomain(refF)
    val kinds = Seq(PlainD, Dec64, ReproD(Levels), BufD(Levels, 16), PlainF, ReproF(Levels), BufF(Levels, 16))
    for (kind <- kinds) {
      val out = (1 to 4).map { workers =>
        kind match {
          case PlainF | ReproF(_) | BufF(_, _) =>
            PartitionAndAggregate.runF(keysF, valsF, keySet.length, 0, kind, workers)
          case _ =>
            PartitionAndAggregate.run(keys, vals, keySet.length, 0, kind, workers)
        }
      }
      val (k1, v1) = out.head
      assert(!k1.sameElements(keys.distinct), s"${kind.name}: slot order is claim order")
      for (workers <- 2 to 4) {
        val (k, v) = out(workers - 1)
        assert(k.sameElements(k1) && v.map(bits).sameElements(v1.map(bits)), s"${kind.name}, workers=$workers")
      }
      kind match {
        case ReproD(_) | BufD(_, _) => assert(groupBits(out.head) == ref, kind.name)
        case ReproF(_) | BufF(_, _) => assert(groupBits(out.head) == refF, kind.name)
        case _ =>
      }
    }
  }

  test("back-to-back run/runF at d=1 and 2 on 1 and 4 workers: earlier results stay put, no two share an array, inputs stay bit-identical, each result that of 1 worker on a new thread") {
    // double -> float -> double, and the rows of each type growing, then
    // shrinking: every call reuses or replaces the arrays of the one before.
    val calls = Seq(BufD(Levels, 16) -> Rows / 2, BufF(Levels, 16) -> Rows / 2, ReproD(Levels) -> Rows,
                    PlainD -> Rows / 4, ReproF(Levels) -> Rows, PlainF -> Rows / 4, Dec64 -> Rows / 2,
                    BufF(Levels, 16) -> Rows / 2)
    val keySet = FullDomain.keys(600)
    for (d <- 1 to 2; workers <- Seq(1, 4)) {
      val kept = scala.collection.mutable.ArrayBuffer[((Array[Int], Array[Double]), Array[Int], Array[Long])]()
      for (((kind, n), c) <- calls.zipWithIndex) {
        val clue = s"d=$d, workers=$workers, call $c (${kind.name}, $n rows)"
        val seed = 100L * d + 10 * workers + c
        val (call, unchanged): (Int => (Array[Int], Array[Double]), () => Boolean) = kind match {
          case PlainF | ReproF(_) | BufF(_, _) =>
            val (keys, vals) = FullDomain.floats(n, seed, keySet)
            val (keys0, vals0) = (keys.clone(), vals.map(bitsF))
            (w => PartitionAndAggregate.runF(keys, vals, keySet.length, d, kind, w),
             () => keys.sameElements(keys0) && vals.map(bitsF).sameElements(vals0))
          case _ =>
            val (keys, vals) = FullDomain.doubles(n, seed, keySet)
            val (keys0, vals0) = (keys.clone(), vals.map(bits))
            (w => PartitionAndAggregate.run(keys, vals, keySet.length, d, kind, w),
             () => keys.sameElements(keys0) && vals.map(bits).sameElements(vals0))
        }
        var fresh: (Array[Int], Array[Double]) = null
        val t = new Thread(() => fresh = call(1))
        t.start()
        t.join()
        assert(fresh != null, s"$clue: failed on a new thread")
        val out = call(workers)
        assert(unchanged(), s"$clue: the caller's rows changed")
        assert(out._1.sameElements(fresh._1) && out._2.map(bits).sameElements(fresh._2.map(bits)), clue)
        for (((o, k, v), e) <- kept.zipWithIndex) {
          assert(o._1.sameElements(k) && o._2.map(bits).sameElements(v), s"$clue: call $e's result changed")
          assert((o._1 ne out._1) && (o._2 ne out._2), s"$clue: shares an array with call $e's result")
        }
        kept += ((out, out._1.clone(), out._2.map(bits)))
      }
    }
  }
}

/** Inputs outside what a table or `nGroups` can hold must fail with an
  * `IllegalArgumentException`, never a wrong result, another exception or
  * an endless probe loop.
  */
class LoudFailureSpec extends AnyFunSuite with TimeLimits {
  import AggKind._

  private val allKinds = Seq(PlainD, Dec64, ReproD(2), BufD(2, 16), PlainF, ReproF(2), BufF(2, 16))

  /** Runs `body` on a daemon thread and waits at most a minute for it: a
    * spinning probe loop ignores interrupts, the waiting test thread does
    * not.
    */
  private def limited[T](body: => T): T = {
    implicit val signaler: Signaler = ThreadSignaler
    failAfter(Span(60, Seconds))(Await.result(Future(body)(ExecutionContext.global), Duration.Inf))
  }

  /** GROUP BY `keys` with every value 1. */
  private def countByKey(kind: AggKind, keys: Array[Int], nGroups: Int, d: Int): (Array[Int], Array[Double]) =
    kind match {
      case PlainF | ReproF(_) | BufF(_, _) =>
        PartitionAndAggregate.runF(keys, Array.fill(keys.length)(1.0f), nGroups, d, kind)
      case _ =>
        PartitionAndAggregate.run(keys, Array.fill(keys.length)(1.0), nGroups, d, kind)
    }

  /** One input in both precisions: the keys of the float rows may differ. */
  private final class Input(keys: Array[Int], vals: Array[Double], keysF: Array[Int], valsF: Array[Float],
                            nGroups: Int, d: Int = 0) {
    def run(kind: AggKind, workers: Int): (Array[Int], Array[Double]) = kind match {
      case PlainF | ReproF(_) | BufF(_, _) => PartitionAndAggregate.runF(keysF, valsF, nGroups, d, kind, workers)
      case _                               => PartitionAndAggregate.run(keys, vals, nGroups, d, kind, workers)
    }
  }

  /** `in` on `workers` workers gives the keys, order and bits of one
    * worker on a new thread, whose workspace holds no table and no rows.
    */
  private def assertSameAsFresh(kind: AggKind, in: Input, workers: Int): Unit = {
    var fresh: (Array[Int], Array[Double]) = null
    val t = new Thread(() => fresh = in.run(kind, 1))
    t.start()
    t.join()
    val (k, v) = in.run(kind, workers)
    assert(fresh != null, s"${kind.name} failed on a new thread")
    assert(k.sameElements(fresh._1) && v.map(bits).sameElements(fresh._2.map(bits)), kind.name)
  }

  /** [[countByKey]] on `workers` threads. */
  private def countByKeyOn(kind: AggKind, keys: Array[Int], nGroups: Int, d: Int,
                           workers: Int): (Array[Int], Array[Double]) =
    kind match {
      case PlainF | ReproF(_) | BufF(_, _) =>
        PartitionAndAggregate.runF(keys, Array.fill(keys.length)(1.0f), nGroups, d, kind, workers)
      case _ =>
        PartitionAndAggregate.run(keys, Array.fill(keys.length)(1.0), nGroups, d, kind, workers)
    }

  test("more distinct keys than nGroups throws IllegalArgumentException") {
    val keys = Array.range(0, 100)
    for (nGroups <- Seq(10, 50, 99); d <- 0 to 1; kind <- allKinds)
      withClue(s"${kind.name}, nGroups=$nGroups, d=$d: ") {
        intercept[IllegalArgumentException](limited(countByKey(kind, keys, nGroups, d)))
      }
  }

  test("keys that all land in one partition throw IllegalArgumentException") {
    val keys = Array.tabulate(1024)(_ * 256)
    for (kind <- allKinds)
      withClue(s"${kind.name}: ") {
        intercept[IllegalArgumentException](limited(countByKey(kind, keys, 1024, 1)))
      }
  }

  test("a table refuses the key that would take its last free slot") {
    val t = new PlainDTable(16)
    t.aggregate(Array.range(0, 15), Array.fill(15)(1.0), 0, 15, 0)
    assert(t.size == 15)
    intercept[IllegalArgumentException](t.aggregate(Array(15), Array(1.0), 0, 1, 0))
    t.aggregate(Array(3), Array(2.0), 0, 1, 0)
    val out = (new Array[Int](15), new Array[Double](15))
    assert(t.emit(out._1, out._2, 0) == 15)
    assert(out._1.zip(out._2).toMap == (0 until 15).map(k => k -> (if (k == 3) 3.0 else 1.0)).toMap)
  }

  test("d=2 on 2 and 4 workers: a worker's IllegalArgumentException reaches the caller as itself, and the next call succeeds") {
    // 10000 partitions of one key each, and partition 5000 with 17 keys:
    // more than its 16-slot table takes.
    val crowded = Array.range(0, 10000) ++ Array.tabulate(16)(j => 5000 + 65536 * (j + 1))
    val ok = Array.range(0, 3000)
    for (workers <- Seq(2, 4); kind <- allKinds)
      withClue(s"${kind.name}, workers=$workers: ") {
        intercept[IllegalArgumentException](limited(countByKeyOn(kind, crowded, crowded.length, 2, workers)))
        intercept[IllegalArgumentException](limited(countByKeyOn(kind, ok, ok.length - 1, 2, workers)))
        val (k, v) = limited(countByKeyOn(kind, ok, ok.length, 2, workers))
        assert(k.sameElements(ok) && v.forall(_ == 1.0))
      }
  }

  test("more groups than the largest table throws IllegalArgumentException, without a probe loop") {
    assert(HashAgg.capacityFor(1 << 29) == HashAgg.MaxCapacity)
    for (x <- Seq((1 << 29) + 1, 600000000, 1 << 30, (1 << 30) + 1, Int.MaxValue))
      withClue(s"capacityFor($x): ")(intercept[IllegalArgumentException](limited(HashAgg.capacityFor(x))))
    for (kind <- allKinds)
      withClue(s"${kind.name}: ")(intercept[IllegalArgumentException](limited(countByKey(kind, Array(1, 2, 1), 600000000, 0))))
  }

  test("d=0 on 2 and 4 workers: a chunk's refusal reaches the caller as itself, and no dirty or stale table leaks into a later result") {
    // 12 keys in the first three quarters, 8 more in the last: the chunk
    // that holds the last quarter sees 20 keys, more than the 16-slot table
    // of nGroups = 8 takes, while the others stop with huge and non-finite
    // values in their states.
    def input(nGroups: Int, parts: (Int, Long, Array[Int])*): Input = {
      val ds = parts.map { case (n, seed, keySet) => FullDomain.doubles(n, seed, keySet) }
      val fs = parts.map { case (n, seed, keySet) => FullDomain.floats(n, seed, keySet) }
      new Input(ds.flatMap(_._1).toArray, ds.flatMap(_._2).toArray, fs.flatMap(_._1).toArray, fs.flatMap(_._2).toArray,
                nGroups)
    }
    val (a, b) = FullDomain.Keys.splitAt(12)
    val failing = input(8, (15000, 1L, a), (5000, 2L, a ++ b.take(8)))
    val ok = input(8, (20000, 3L, a.take(8)))                          // the failed shape
    val other = input(40, (20000, 4L, FullDomain.Keys.take(40)))       // a larger capacity
    /** The same class in another shape: other levels and buffer size. */
    def reshaped(kind: AggKind): AggKind = kind match {
      case ReproD(l)    => ReproD(l + 1)
      case ReproF(l)    => ReproF(l + 1)
      case BufD(l, bsz) => BufD(l + 1, 2 * bsz + 1)
      case BufF(l, bsz) => BufF(l + 1, 2 * bsz + 1)
      case k            => k
    }
    for (workers <- Seq(2, 4); kind <- allKinds)
      withClue(s"${kind.name}, workers=$workers: ") {
        val otherKind = if (kind == ReproD(2)) BufD(2, 16) else ReproD(2)
        limited {
          def fails(): Unit = {
            val e = intercept[IllegalArgumentException](failing.run(kind, workers))
            assert(e.getMessage.contains("last free slot"), e.getMessage)
          }
          fails()
          assertSameAsFresh(otherKind, other, workers)
          assertSameAsFresh(kind, ok, workers)        // the failed call's tables
          fails()
          assertSameAsFresh(reshaped(kind), other, workers)
          assertSameAsFresh(kind, ok, workers)
        }
      }
  }

  test("d=1 on 1 and 4 workers: a call refused for too many groups leaves no dirty rows in a later result") {
    // 600 keys, a few per partition: every partition fits its 16-slot
    // table, so the refusal comes only once every partition is emitted in
    // place.
    def input(nGroups: Int, n: Int, seed: Long, keySet: Array[Int]): Input = {
      val (keys, vals) = FullDomain.doubles(n, seed, keySet)
      val (keysF, valsF) = FullDomain.floats(n, seed + 1, keySet)
      new Input(keys, vals, keysF, valsF, nGroups, d = 1)
    }
    val keySet = FullDomain.keys(600)
    val failing = input(599, 20000, 1L, keySet)
    val ok = input(599, 20000, 3L, keySet.take(599))        // the failed call's rows
    val smaller = input(599, 5000, 5L, keySet.take(300))    // fewer rows
    for (workers <- Seq(1, 4); kind <- allKinds)
      withClue(s"${kind.name}, workers=$workers: ") {
        limited {
          def fails(): Unit = {
            val e = intercept[IllegalArgumentException](failing.run(kind, workers))
            assert(e.getMessage.contains("more than 599 distinct keys"), e.getMessage)
          }
          fails()
          assertSameAsFresh(kind, ok, workers)
          fails()
          assertSameAsFresh(kind, smaller, workers)
          fails()
          assertSameAsFresh(kind, ok, workers)
        }
      }
  }

  test("nGroups near Int.MaxValue at d=2 sizes the tables in Long: no 16-slot table refuses valid input") {
    // 40 keys in partition 5: more than a 16-slot table takes, far fewer
    // than the 65536 slots of Int.MaxValue groups over 65536 partitions.
    val keys = Array.tabulate(40)(j => 5 + 65536 * j)
    for (nGroups <- Seq(Int.MaxValue - 1000, Int.MaxValue); kind <- allKinds)
      withClue(s"${kind.name}, nGroups=$nGroups: ") {
        val (k, v) = limited(countByKey(kind, keys, nGroups, 2))
        assert(k.sorted.sameElements(keys) && v.forall(_ == 1.0))
      }
  }

  test("table capacity at 2^28, 2^29, 2^30 and Int.MaxValue groups and d=0..2: that of the exact per-partition group count") {
    for (nGroups <- Seq(1 << 28, 1 << 29, 1 << 30, Int.MaxValue); d <- 0 to 2) {
      val perPart = (BigInt(nGroups) + (1 << (8 * d)) - 1) / (1 << (8 * d))
      withClue(s"nGroups=$nGroups, d=$d: ") {
        if (perPart > HashAgg.MaxCapacity / 2)
          intercept[IllegalArgumentException](PartitionAndAggregate.capacity(nGroups, d))
        else
          assert(PartitionAndAggregate.capacity(nGroups, d) == HashAgg.capacityFor(perPart.toInt))
      }
    }
  }

  test("keys and values of different lengths: run/runF and partition/partitionF at d=0..2 throw IllegalArgumentException naming both lengths") {
    val keys = Array(1, 2, 3, 1)
    for (nVals <- Seq(3, 5); d <- 0 to 2) {
      val vals = Array.tabulate(nVals)(i => (i + 1).toDouble)
      val valsF = vals.map(_.toFloat)
      def refused(what: String)(call: => Any): Unit =
        withClue(s"$what, ${keys.length} keys, $nVals values, d=$d: ") {
          val e = intercept[IllegalArgumentException](call)
          assert(e.getMessage.contains(s"${keys.length} keys but $nVals values"), e.getMessage)
        }
      for (kind <- allKinds)
        refused(kind.name)(kind match {
          case PlainF | ReproF(_) | BufF(_, _) => PartitionAndAggregate.runF(keys, valsF, 3, d, kind)
          case _                               => PartitionAndAggregate.run(keys, vals, 3, d, kind)
        })
      refused("partition")(RadixPartition.partition(keys, vals, d))
      refused("partitionF")(RadixPartition.partitionF(keys, valsF, d))
    }
  }

  test("a buffered table of more than Int.MaxValue buffered values throws IllegalArgumentException naming cap and bsz, before it allocates") {
    val mx = java.lang.management.ManagementFactory.getThreadMXBean
      .asInstanceOf[com.sun.management.ThreadMXBean]
    mx.setThreadAllocatedMemoryEnabled(true)
    val t = Thread.currentThread.getId
    /** `call`'s message, once it has thrown having allocated less than 1 MiB. */
    def refused(what: String)(call: => Any): String = withClue(s"$what: ") {
      val before = mx.getThreadAllocatedBytes(t)
      val e = intercept[IllegalArgumentException](call)
      val bytes = mx.getThreadAllocatedBytes(t) - before
      assert(bytes < (1 << 20), s"$bytes B allocated")
      e.getMessage
    }
    // 2^22 slots of 1024 values: 2^32, which wrapped to 0 in Int.
    for (kind <- Seq(BufD(2, 1024), BufF(2, 1024))) {
      val msg = refused(kind.name)(kind match {
        case BufF(_, _) => PartitionAndAggregate.runF(Array(1, 2, 3), Array(1.0f, 2.0f, 3.0f), 1 << 21, 0, kind, 1)
        case _          => PartitionAndAggregate.run(Array(1, 2, 3), Array(1.0, 2.0, 3.0), 1 << 21, 0, kind, 1)
      })
      assert(msg.contains("cap = 4194304") && msg.contains("bsz = 1024"), msg)
    }
    // 2^21 slots of 1536 values: negative in Int.
    for ((what, make) <- Seq[(String, () => Any)](("BufDTable", () => new BufDTable(1 << 21, 2, 1536)),
                                                   ("BufFTable", () => new BufFTable(1 << 21, 2, 1536)))) {
      val msg = refused(what)(make())
      assert(msg.contains("cap = 2097152") && msg.contains("bsz = 1536"), msg)
    }
    assert(refused("bsz 0")(new BufDTable(16, 2, 0)).contains("bsz"))
  }

  test("keys -1, Int.MinValue and Int.MaxValue are ordinary keys in every table") {
    val keys = Array(-1, Int.MinValue, Int.MaxValue, 0, -1, Int.MaxValue, -1)
    val expected = Map(-1 -> 3.0, Int.MinValue -> 1.0, Int.MaxValue -> 2.0, 0 -> 1.0)
    for (kind <- allKinds; d <- 0 to 2) {
      val (k, v) = countByKey(kind, keys, expected.size, d)
      assert(k.zip(v).toMap == expected, s"${kind.name}, d=$d")
    }
  }
}
