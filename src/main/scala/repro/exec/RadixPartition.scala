package repro.exec

/** Radix partitioning on the group key (paper §V-B): fan-out f=256 per
  * level, `d` levels giving `F = 256^d` partitions. Keys are dense group
  * ids, and the paper uses identity hashing, so the partition function is
  * simply the low `8*d` bits of the key.
  *
  * Implemented as stable LSD counting-sort passes over the whole input
  * (histogram + scatter), which matches the cost structure of the paper's
  * "zero or more levels of partitioning": each level streams all records.
  * After the passes the records are ordered by partition id `key & (F-1)`
  * and `offsets` delimits the partitions.
  *
  * Each 8-bit level runs as two stable 16-way sub-passes, on the key's low
  * nibble and then on its high one, which together are the stable sort on
  * the byte. A 256-way scatter keeps its speed only with software
  * write-combining buffers and non-temporal stores (Balkesen et al., ICDE
  * 2013; Polychroniou and Ross, SIGMOD 2014), and the JVM has no
  * non-temporal stores: on a 4-vCPU VM one thread scatters 2^22 keys and
  * values into 16 buckets in about a third of the time it takes for 256,
  * so two 16-way sub-passes, although they stream the records twice, beat
  * one 256-way pass for double values and about match it for float.
  *
  * Each sub-pass is the per-thread-histogram partitioning of Balkesen et
  * al.: the input is cut into one contiguous chunk per worker, the prefix
  * sums of the chunks' nibble counts run bucket-major and chunk-minor, and
  * each worker scatters its own chunk. A chunk's keys of a nibble land
  * after those of the chunks before it, in input order, so the output is
  * the one stable partition whatever the worker count. Only the low
  * sub-pass reads the keys to count them, by byte; the high one takes its
  * counts from those. Each chunk's counters sit at least a cache line from
  * any other chunk's: counters of several chunks on one line made 4
  * workers slower than the one 256-way pass per level they replace.
  *
  * The sub-passes alternate between two output pairs of keys and values,
  * at every `d >= 1`. The public `partition`/`partitionF` allocate both
  * pairs (24 B a row for double, 16 B for float), so the caller owns the
  * result; [[PartitionAndAggregate]] passes the pairs and the offsets
  * array that its calling thread keeps across calls.
  */
object RadixPartition {

  /** Writes to `b(p)`, for `p` in `0..mask+1`, how many keys have
    * `key & mask` below `p`, i.e. where the keys of partition `p` start in
    * a stable counting sort.
    */
  private def bounds(keys: Array[Int], mask: Int, b: Array[Int]): Unit = {
    java.util.Arrays.fill(b, 0, mask + 2, 0)
    var i = 0
    while (i < keys.length) { b((keys(i) & mask) + 1) += 1; i += 1 }
    i = 0
    while (i <= mask) { b(i + 1) += b(i); i += 1 }
  }

  /** Adds the histogram of byte `(key >>> shift) & 255` over
    * `keys(from until to)` to `hist(at until at + 256)`.
    */
  private def count(keys: Array[Int], from: Int, to: Int, shift: Int, hist: Array[Int], at: Int): Unit = {
    var i = from
    while (i < to) { hist(at + ((keys(i) >>> shift) & 255)) += 1; i += 1 }
  }

  /** One stable scatter of `keysIn/valsIn(from until to)` on nibble
    * `(key >>> shift) & 15`: the input is only read, and `next(at + b)` is
    * where the chunk's keys of nibble `b` start, advanced as they are
    * written.
    */
  private def pass(keysIn: Array[Int], valsIn: Array[Double], keysOut: Array[Int], valsOut: Array[Double],
                   shift: Int, next: Array[Int], at: Int, from: Int, to: Int): Unit = {
    var i = from
    while (i < to) {
      val b = at + ((keysIn(i) >>> shift) & 15)
      val pos = next(b)
      next(b) = pos + 1
      keysOut(pos) = keysIn(i)
      valsOut(pos) = valsIn(i)
      i += 1
    }
  }

  /** Float-valued variant of [[pass]]. */
  private def passF(keysIn: Array[Int], valsIn: Array[Float], keysOut: Array[Int], valsOut: Array[Float],
                    shift: Int, next: Array[Int], at: Int, from: Int, to: Int): Unit = {
    var i = from
    while (i < to) {
      val b = at + ((keysIn(i) >>> shift) & 15)
      val pos = next(b)
      next(b) = pos + 1
      keysOut(pos) = keysIn(i)
      valsOut(pos) = valsIn(i)
      i += 1
    }
  }

  /** Result of a `d`-level partitioning: permuted key/value arrays plus the
    * `256^d + 1` partition boundaries (partition `p` holds the records with
    * `key & (256^d - 1) == p`, at `keys(offsets(p) until offsets(p+1))`).
    */
  final case class Partitioned[V](keys: Array[Int], values: V, offsets: Array[Int])
  type PartitionedD = Partitioned[Array[Double]]
  type PartitionedF = Partitioned[Array[Float]]

  /** `d` levels of partitioning of double-valued records; `d == 0` is a
    * no-op forward (paper: "PARALLELPARTITION is a no-op that forwards its
    * input" when F=1). The caller's arrays are never written; at `d >= 1`
    * the result's arrays are fresh ones that the caller owns. Throws
    * `IllegalArgumentException` if `keys` and `values` differ in length.
    */
  def partition(keys: Array[Int], values: Array[Double], d: Int): PartitionedD =
    partition(keys, values, d, Workers.P)

  /** `d` levels of partitioning of float-valued records. */
  def partitionF(keys: Array[Int], values: Array[Float], d: Int): PartitionedF =
    partitionF(keys, values, d, Workers.P)

  /** [[partition]] on `workers` threads, the caller's included. */
  private[repro] def partition(keys: Array[Int], values: Array[Double], d: Int, workers: Int): PartitionedD =
    partition(keys, values, d, workers, fresh(keys.length, new Array[Double](_)), new Array[Int](fanout(d) + 1))

  /** [[partitionF]] on `workers` threads, the caller's included. */
  private[repro] def partitionF(keys: Array[Int], values: Array[Float], d: Int, workers: Int): PartitionedF =
    partitionF(keys, values, d, workers, fresh(keys.length, new Array[Float](_)), new Array[Int](fanout(d) + 1))

  /** [[partition]] into the caller's arrays: `out` holds two pairs of at
    * least `keys.length` rows, and `offsets` at least `256^d + 1` entries.
    * At `d >= 1` the result holds one of the pairs and `offsets`; at
    * `d == 0` it is the input, and neither is written.
    */
  private[repro] def partition(keys: Array[Int], values: Array[Double], d: Int, workers: Int,
                               out: Seq[(Array[Int], Array[Double])], offsets: Array[Int]): PartitionedD = {
    requireSameLength(keys.length, values.length)
    levels(keys, values, d, workers, out, offsets, pass)
  }

  /** [[partitionF]] into the caller's arrays, as [[partition]]. */
  private[repro] def partitionF(keys: Array[Int], values: Array[Float], d: Int, workers: Int,
                                out: Seq[(Array[Int], Array[Float])], offsets: Array[Int]): PartitionedF = {
    requireSameLength(keys.length, values.length)
    levels(keys, values, d, workers, out, offsets, passF)
  }

  /** Refuses rows whose keys and values differ in number. */
  private[exec] def requireSameLength(keys: Int, values: Int): Unit =
    require(keys == values, s"$keys keys but $values values")

  /** `256^d`, the partition count of `d` levels. */
  private[repro] def fanout(d: Int): Int = 1 << (8 * d)

  /** The two output pairs of `n` rows that the sub-passes alternate between. */
  private def fresh[V](n: Int, alloc: Int => V): Seq[(Array[Int], V)] =
    Seq.fill(2)((new Array[Int](n), alloc(n)))

  /** The level loop of both precisions: each level a sub-pass on the
    * low nibble, then one on the high nibble, each from the pair that
    * holds the rows (at first the caller's arrays) into the other. Only
    * the low sub-pass counts its input, by byte. Its output
    * holds, for each nibble `b` and then each chunk `c`, the rows of chunk
    * `c` with low nibble `b`, whose high nibbles the byte counts give; so
    * cutting its output into chunks at those regions' bounds gives the
    * high sub-pass its counts without reading the keys again. At `d == 1`
    * the partition boundaries are the prefix sums of the byte counts;
    * deeper, they count the input keys, since counts do not depend on
    * order.
    */
  private def levels[V](keys: Array[Int], values: V, d: Int, workers: Int, out: Seq[(Array[Int], V)],
                        offsets: Array[Int],
                        scatter: (Array[Int], V, Array[Int], V, Int, Array[Int], Int, Int, Int) => Unit): Partitioned[V] = {
    require(d >= 0 && d <= 3, s"partition depth must be in [0,3], got $d")
    require(workers >= 1, s"workers must be >= 1, got $workers")
    val n = keys.length
    if (d == 0) return Partitioned(keys, values, Array(0, n))
    require(out.length >= 2 && out.forall(_._1.length >= n) && offsets.length > fanout(d),
            s"too small output arrays for $d levels of $n rows")
    val chunks = math.max(1, math.min(workers, n))
    if (d > 1) bounds(keys, fanout(d) - 1, offsets)
    // Per chunk c, each chunk's counters at least a cache line from any
    // other chunk's: its counts of the level's bytes at
    // bytes(288 * c + 16 + b), and its counts of a sub-pass's nibbles,
    // then where its rows of each go, at next(32 * c + 16 + b).
    val bytes = new Array[Int](288 * chunks)
    val next = new Array[Int](32 * chunks)
    // Chunk c of a sub-pass is rows from(c) until from(c + 1).
    val from = new Array[Int](chunks + 1)
    def byteCount(c: Int, b: Int): Int = bytes(288 * c + 16 + b)

    var kIn = keys; var vIn = values

    /** The prefix sums of `next`, bucket-major and chunk-minor, and the
      * stable scatter of every chunk on the nibble at `shift`, from the
      * rows `kIn`/`vIn` into the pair that does not hold them. When every
      * row has the same nibble, as every key below 16 has in its high
      * nibbles, the scatter would leave each row where it is, and one
      * counter would make each row wait for the last: the rows stay put,
      * or leave the caller's arrays by a copy.
      */
    def subPass(shift: Int): Unit = {
      var sum = 0
      var widest = 0
      var b = 0
      while (b < 16) {
        val first = sum
        var c = 0
        while (c < chunks) { val i = 32 * c + 16 + b; val h = next(i); next(i) = sum; sum += h; c += 1 }
        widest = math.max(widest, sum - first)
        b += 1
      }
      val (k, v) = (kIn, vIn)
      val (kOut, vOut) = if (k eq out(0)._1) out(1) else out(0)
      if (widest < n)
        Workers.run(chunks)(c => scatter(k, v, kOut, vOut, shift, next, 32 * c + 16, from(c), from(c + 1)))
      else if (k eq keys) Workers.run(chunks) { c =>
        System.arraycopy(k, from(c), kOut, from(c), from(c + 1) - from(c))
        System.arraycopy(v, from(c), vOut, from(c), from(c + 1) - from(c))
      }
      else return
      kIn = kOut; vIn = vOut
    }

    var level = 0
    while (level < d) {
      val (k, shift) = (kIn, 8 * level)
      var c = 0
      while (c <= chunks) { from(c) = (n.toLong * c / chunks).toInt; c += 1 }
      java.util.Arrays.fill(bytes, 0)
      Workers.run(chunks)(c => count(k, from(c), from(c + 1), shift, bytes, 288 * c + 16))
      if (d == 1) {
        offsets(0) = 0
        var b = 0
        while (b < 256) {
          var h = 0
          c = 0
          while (c < chunks) { h += byteCount(c, b); c += 1 }
          offsets(b + 1) = offsets(b) + h
          b += 1
        }
      }
      c = 0
      while (c < chunks) {
        var b = 0
        while (b < 16) {
          var h = 0
          var x = 0
          while (x < 16) { h += byteCount(c, 16 * x + b); x += 1 }
          next(32 * c + 16 + b) = h
          b += 1
        }
        c += 1
      }
      subPass(shift)
      // The rows now hold, for each nibble b and then each chunk c, region
      // (b, c): the rows of chunk c with low nibble b, starting at `at`.
      // Each high chunk starts at the first region bound at or past its
      // even share of the rows, and adds up its regions' byte counts.
      java.util.Arrays.fill(next, 0)
      var at = 0
      var cut = 1
      var b = 0
      while (b < 16) {
        c = 0
        while (c < chunks) {
          while (cut < chunks && at >= n.toLong * cut / chunks) { from(cut) = at; cut += 1 }
          var x = 0
          while (x < 16) {
            val h = byteCount(c, 16 * x + b)
            next(32 * (cut - 1) + 16 + x) += h
            at += h
            x += 1
          }
          c += 1
        }
        b += 1
      }
      while (cut <= chunks) { from(cut) = n; cut += 1 }
      subPass(shift + 4)
      level += 1
    }
    Partitioned(kIn, vIn, offsets)
  }
}
