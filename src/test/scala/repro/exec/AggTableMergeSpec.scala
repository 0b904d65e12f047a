package repro.exec

import scala.reflect.ClassTag

import org.scalatest.funsuite.AnyFunSuite

import repro.FullDomain
import repro.core.ExactSum.bits

/** `AggTable.merge` called directly, as Alg. 4 lines 4-6 merge partial
  * tables: a merge of two tables over two parts of an input must give the
  * keys, slot order and bits of one table over the whole input, and leave
  * the merged-in table as it was. A merge that cannot be done throws before
  * it claims a slot.
  */
class AggTableMergeSpec extends AnyFunSuite {
  private val Levels = 2

  private def emitted(t: AggTable[_]): Seq[(Int, Long)] = {
    val (k, v) = (new Array[Int](t.size), new Array[Double](t.size))
    assert(t.emit(k, v, 0) == t.size)
    k.toSeq.zip(v.map(bits))
  }

  /** 60 keys whose probes start, at `shift`, at slot 0, 1 or 2 of a `cap`-slot
    * table: one probe cluster, where a key's slot depends on the order of
    * the claims. The bits below `shift` differ from key to key.
    */
  private def clustered(cap: Int, shift: Int): Array[Int] =
    Array.tabulate(60)(i => ((i + 1) * cap + i % 3) << shift | (i & ((1 << shift) - 1)))

  /** Keys 0 until 40 of `keySet` in the first `split` rows, keys 20 until 60
    * in the rest: the second part holds 20 keys of the first part, in
    * another order, and 20 keys new to it. Values over `FullDomain`; the
    * first 40 rows of each part take its 40 keys in a stride order, so
    * that every key occurs. The first part's first key starts its probe at
    * slot 2, the next two at slots 0 and 1, so the slot order is not the
    * claim order.
    */
  private def twoParts[A: ClassTag](keySet: Array[Int], seed: Long,
                                    rows: (Int, Long, Array[Int]) => (Array[Int], Array[A])): (Array[Int], Array[A], Int) = {
    def part(n: Int, seed: Long, keys: Array[Int], stride: Int): (Array[Int], Array[A]) = {
      val (k, v) = rows(n, seed, keys)
      for (i <- keys.indices) k(i) = keys((i * stride + 2) % keys.length)
      (k, v)
    }
    val (k1, v1) = part(600, seed, keySet.slice(0, 40), 7)
    val (k2, v2) = part(400, seed + 1, keySet.slice(20, 60), 11)
    (k1 ++ k2, v1 ++ v2, k1.length)
  }

  /** `make(0)` over the first part merged with `make(1)` over the rest,
    * against `make(2)` over the whole input, and `make(1)` unmerged.
    */
  private def checkMerge[A](what: String, make: Int => AggTable[A], keys: Array[Int], values: A,
                            split: Int, shift: Int): Unit = withClue(s"$what, shift=$shift: ") {
    val (a, b, whole, bAlone) = (make(0), make(1), make(2), make(1))
    val n = keys.length
    a.aggregate(keys, values, 0, split, shift)
    b.aggregate(keys, values, split, n, shift)
    bAlone.aggregate(keys, values, split, n, shift)
    whole.aggregate(keys, values, 0, n, shift)
    val sizeA = a.size
    a.merge(b, shift)
    assert(a.size == 60 && sizeA == 40 && b.size == 40)
    val out = emitted(a)
    assert(out == emitted(whole), "merged table against one table over the whole input")
    assert(out.map(_._1) != keys.distinct.toSeq, "slot order is claim order")
    assert(emitted(b) == emitted(bAlone), "merged-in table changed")
  }

  for (shift <- Seq(0, 8)) {
    test(s"shift=$shift: Dec64/ReproD/ReproF/BufD/BufF merge of colliding slots and new keys gives one table's keys, slot order and bits; the merged-in table is unchanged") {
      val cap = HashAgg.capacityFor(60)
      val keySet = clustered(cap, shift)
      val (keys, vals, split) = twoParts(keySet, 80L + shift, FullDomain.doubles(_, _, _))
      val (keysF, valsF, splitF) = twoParts(keySet, 90L + shift, FullDomain.floats(_, _, _))
      // The merged-in buffered tables hold pending values at bsz 4.
      assert(keys.drop(split).groupBy(identity).values.exists(_.length % 4 != 0))
      assert(keysF.drop(splitF).groupBy(identity).values.exists(_.length % 4 != 0))
      // The receiver, the merged-in table and the whole-input table each of
      // its own buffer size.
      val bsz = Array(16, 4, 8)
      checkMerge("Dec64Table", _ => new Dec64Table(cap), keys, vals, split, shift)
      checkMerge("ReproDTable", _ => new ReproDTable(cap, Levels), keys, vals, split, shift)
      checkMerge("ReproFTable", _ => new ReproFTable(cap, Levels), keysF, valsF, splitF, shift)
      checkMerge("BufDTable", i => new BufDTable(cap, Levels, bsz(i)), keys, vals, split, shift)
      checkMerge("BufFTable", i => new BufFTable(cap, Levels, bsz(i)), keysF, valsF, splitF, shift)
      checkMerge("BufDTable, one bsz", _ => new BufDTable(cap, Levels, 4), keys, vals, split, shift)
      checkMerge("BufFTable, one bsz", _ => new BufFTable(cap, Levels, 4), keysF, valsF, splitF, shift)
    }
  }

  test("BufDTable/BufFTable merge adds the other table's pending values: flushed 1 -> 1.0, merged with pending 1 -> 2.0 and 2 -> 5.0, emits 1 -> 3.0 and 2 -> 5.0") {
    for ((bszA, bszO) <- Seq((4, 4), (4, 16), (16, 2))) withClue(s"bsz $bszA <- $bszO: ") {
      val (a, o) = (new BufDTable(16, Levels, bszA), new BufDTable(16, Levels, bszO))
      a.aggregate(Array(1), Array(1.0), 0, 1, 0)
      a.flush()
      o.aggregate(Array(1, 2), Array(2.0, 5.0), 0, 2, 0)
      a.merge(o, 0)
      assert(emitted(a) == Seq(1 -> bits(3.0), 2 -> bits(5.0)))
      assert(emitted(o) == Seq(1 -> bits(2.0), 2 -> bits(5.0)))
      val (aF, oF) = (new BufFTable(16, Levels, bszA), new BufFTable(16, Levels, bszO))
      aF.aggregate(Array(1), Array(1.0f), 0, 1, 0)
      aF.flush()
      oF.aggregate(Array(1, 2), Array(2.0f, 5.0f), 0, 2, 0)
      aF.merge(oF, 0)
      assert(emitted(aF) == Seq(1 -> bits(3.0), 2 -> bits(5.0)))
      assert(emitted(oF) == Seq(1 -> bits(2.0), 2 -> bits(5.0)))
    }
  }

  /** `a` over keys 1 and 2, `o` over keys 3 and 2: `a.merge(o, 0)` throws
    * `E`, with `a` left as it was and no slot claimed for key 3, the first
    * key `o` claimed.
    */
  private def refused[E <: Throwable: ClassTag, A](what: String, a: AggTable[A], o: AggTable[A], values: A): String =
    withClue(s"$what: ") {
      a.aggregate(Array(1, 2), values, 0, 2, 0)
      o.aggregate(Array(3, 2), values, 0, 2, 0)
      val before = emitted(a)
      val e = intercept[E](a.merge(o, 0))
      assert(a.size == 2 && emitted(a) == before)
      e.getMessage
    }

  test("a merge of a table of another class throws IllegalArgumentException naming both, before it claims a slot") {
    val (d, f) = (Array(1.5, 2.5), Array(1.5f, 2.5f))
    val cases = Seq(
      refused[IllegalArgumentException, Array[Double]]("BufD into ReproD", new ReproDTable(16, Levels), new BufDTable(16, Levels, 4), d),
      refused[IllegalArgumentException, Array[Double]]("ReproD into BufD", new BufDTable(16, Levels, 4), new ReproDTable(16, Levels), d),
      refused[IllegalArgumentException, Array[Float]]("BufF into ReproF", new ReproFTable(16, Levels), new BufFTable(16, Levels, 4), f),
      refused[IllegalArgumentException, Array[Float]]("ReproF into BufF", new BufFTable(16, Levels, 4), new ReproFTable(16, Levels), f),
      refused[IllegalArgumentException, Array[Double]]("ReproD into Dec64", new Dec64Table(16), new ReproDTable(16, Levels), d),
      refused[IllegalArgumentException, Array[Double]]("PlainD into BufD", new BufDTable(16, Levels, 4), new PlainDTable(16), d))
    assert(cases.head.contains("BufDTable") && cases.head.contains("ReproDTable"), cases.head)
  }

  test("a plain table's merge throws UnsupportedOperationException before it claims a slot") {
    refused[UnsupportedOperationException, Array[Double]]("PlainDTable", new PlainDTable(16), new PlainDTable(16), Array(1.5, 2.5))
    refused[UnsupportedOperationException, Array[Float]]("PlainFTable", new PlainFTable(16), new PlainFTable(16), Array(1.5f, 2.5f))
  }

  test("a merge of tables of different levels throws IllegalArgumentException naming both, before it claims a slot") {
    val (d, f) = (Array(1.5, 2.5), Array(1.5f, 2.5f))
    val msgs = Seq(
      refused[IllegalArgumentException, Array[Double]]("ReproDTable", new ReproDTable(16, 2), new ReproDTable(16, 3), d),
      refused[IllegalArgumentException, Array[Float]]("ReproFTable", new ReproFTable(16, 2), new ReproFTable(16, 3), f),
      refused[IllegalArgumentException, Array[Double]]("BufDTable", new BufDTable(16, 2, 4), new BufDTable(16, 3, 4), d),
      refused[IllegalArgumentException, Array[Float]]("BufFTable", new BufFTable(16, 2, 4), new BufFTable(16, 3, 4), f))
    for (m <- msgs) assert(m.contains("3 levels") && m.contains("2"), m)
  }
}
