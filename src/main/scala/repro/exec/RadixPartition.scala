package repro.exec

/** Radix partitioning on the group key (paper §V-B): fan-out f=256 per
  * level, `d` levels giving `F = 256^d` partitions. Keys are dense group
  * ids, and the paper uses identity hashing, so the partition function is
  * simply the low `8*d` bits of the key.
  *
  * Implemented as `d` stable LSD counting-sort passes over the whole input
  * (histogram + scatter), which matches the cost structure of the paper's
  * "zero or more levels of partitioning": each level streams all records
  * once. After the passes the records are ordered by partition id
  * `key & (F-1)` and `offsets` delimits the partitions.
  *
  * Each pass is the per-thread-histogram partitioning of Balkesen et al.
  * (ICDE 2013): the input is cut into one contiguous chunk per worker, each
  * worker counts its chunk's bytes, the prefix sums run bucket-major and
  * chunk-minor, and each worker scatters its own chunk. A chunk's keys of a
  * byte land after those of the chunks before it, in input order, so the
  * output is the one stable partition whatever the worker count.
  *
  * The passes write into at most two output pairs of keys and values. The
  * public `partition`/`partitionF` allocate them, so the caller owns the
  * result; [[PartitionAndAggregate]] passes the pairs and the offsets
  * array that its calling thread keeps across calls.
  */
object RadixPartition {

  /** Writes to `b(p)`, for `p` in `0..mask+1`, how many keys have
    * `(key >>> shift) & mask` below `p`, i.e. where the keys of bucket `p`
    * start in a stable counting sort.
    */
  private def bounds(keys: Array[Int], shift: Int, mask: Int, b: Array[Int]): Unit = {
    java.util.Arrays.fill(b, 0, mask + 2, 0)
    var i = 0
    while (i < keys.length) { b(((keys(i) >>> shift) & mask) + 1) += 1; i += 1 }
    i = 0
    while (i <= mask) { b(i + 1) += b(i); i += 1 }
  }

  /** Adds the byte histogram of `keys(from until to)` to `hist(at until at + 256)`. */
  private def count(keys: Array[Int], from: Int, to: Int, shift: Int, hist: Array[Int], at: Int): Unit = {
    var i = from
    while (i < to) { hist(at + ((keys(i) >>> shift) & 255)) += 1; i += 1 }
  }

  /** One stable scatter of `keysIn/valsIn(from until to)` on byte
    * `(key >>> shift) & 255`: the input is only read, and `next(at + b)` is
    * where the chunk's keys of byte `b` start, advanced as they are written.
    */
  private def pass(keysIn: Array[Int], valsIn: Array[Double], keysOut: Array[Int], valsOut: Array[Double],
                   shift: Int, next: Array[Int], at: Int, from: Int, to: Int): Unit = {
    var i = from
    while (i < to) {
      val b = at + ((keysIn(i) >>> shift) & 255)
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
      val b = at + ((keysIn(i) >>> shift) & 255)
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
    * the result's arrays are fresh ones that the caller owns.
    */
  def partition(keys: Array[Int], values: Array[Double], d: Int): PartitionedD =
    partition(keys, values, d, Workers.P)

  /** `d` levels of partitioning of float-valued records. */
  def partitionF(keys: Array[Int], values: Array[Float], d: Int): PartitionedF =
    partitionF(keys, values, d, Workers.P)

  /** [[partition]] on `workers` threads, the caller's included. */
  private[repro] def partition(keys: Array[Int], values: Array[Double], d: Int, workers: Int): PartitionedD =
    partition(keys, values, d, workers, fresh(keys.length, d, new Array[Double](_)), new Array[Int](fanout(d) + 1))

  /** [[partitionF]] on `workers` threads, the caller's included. */
  private[repro] def partitionF(keys: Array[Int], values: Array[Float], d: Int, workers: Int): PartitionedF =
    partitionF(keys, values, d, workers, fresh(keys.length, d, new Array[Float](_)), new Array[Int](fanout(d) + 1))

  /** [[partition]] into the caller's arrays: `out` holds `min(d, 2)` pairs
    * of at least `keys.length` rows, and `offsets` at least `256^d + 1`
    * entries. At `d >= 1` the result holds the last pair written and
    * `offsets`; at `d == 0` it is the input, and neither is written.
    */
  private[repro] def partition(keys: Array[Int], values: Array[Double], d: Int, workers: Int,
                               out: Seq[(Array[Int], Array[Double])], offsets: Array[Int]): PartitionedD =
    levels(keys, values, d, workers, out, offsets, pass)

  /** [[partitionF]] into the caller's arrays, as [[partition]]. */
  private[repro] def partitionF(keys: Array[Int], values: Array[Float], d: Int, workers: Int,
                                out: Seq[(Array[Int], Array[Float])], offsets: Array[Int]): PartitionedF =
    levels(keys, values, d, workers, out, offsets, passF)

  /** `256^d`, the partition count of `d` levels. */
  private[repro] def fanout(d: Int): Int = 1 << (8 * d)

  /** The `min(d, 2)` output pairs of `n` rows that `d` levels write. */
  private def fresh[V](n: Int, d: Int, alloc: Int => V): Seq[(Array[Int], V)] =
    Seq.fill(math.min(d, 2))((new Array[Int](n), alloc(n)))

  /** The level loop of both precisions: the first pass reads the caller's
    * arrays, later ones ping-pong between the (at most two) pairs of `out`.
    * At `d == 1` the partition boundaries are the one pass's prefix sums;
    * deeper, they count the input keys, since counts do not depend on order.
    */
  private def levels[V](keys: Array[Int], values: V, d: Int, workers: Int, out: Seq[(Array[Int], V)],
                        offsets: Array[Int],
                        scatter: (Array[Int], V, Array[Int], V, Int, Array[Int], Int, Int, Int) => Unit): Partitioned[V] = {
    require(d >= 0 && d <= 3, s"partition depth must be in [0,3], got $d")
    require(workers >= 1, s"workers must be >= 1, got $workers")
    val n = keys.length
    if (d == 0) return Partitioned(keys, values, Array(0, n))
    require(out.length >= math.min(d, 2) && out.forall(_._1.length >= n) && offsets.length > fanout(d),
            s"too small output arrays for $d levels of $n rows")
    val chunks = math.max(1, math.min(workers, n))
    def start(c: Int): Int = (n.toLong * c / chunks).toInt
    if (d > 1) bounds(keys, 0, fanout(d) - 1, offsets)
    var kIn = keys; var vIn = values
    var level = 0
    while (level < d) {
      val (kOut, vOut) = out(level % 2)
      val (k, v, shift) = (kIn, vIn, 8 * level)
      // Chunk c's byte counts at next(256 * c + b), then its start positions.
      val next = new Array[Int](256 * chunks)
      Workers.run(chunks)(c => count(k, start(c), start(c + 1), shift, next, 256 * c))
      var sum = 0
      var b = 0
      while (b < 256) {
        var c = 0
        while (c < chunks) { val h = next(256 * c + b); next(256 * c + b) = sum; sum += h; c += 1 }
        b += 1
      }
      if (d == 1) { System.arraycopy(next, 0, offsets, 0, 256); offsets(256) = n }
      Workers.run(chunks)(c => scatter(k, v, kOut, vOut, shift, next, 256 * c, start(c), start(c + 1)))
      kIn = kOut; vIn = vOut
      level += 1
    }
    Partitioned(kIn, vIn, offsets)
  }
}
