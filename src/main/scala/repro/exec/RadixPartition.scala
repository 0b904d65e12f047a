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
  */
object RadixPartition {

  /** `b(p)`, for `p` in `0..mask+1`: how many keys have `(key >>> shift) &
    * mask` below `p`, i.e. where the keys of bucket `p` start in a stable
    * counting sort.
    */
  private def bounds(keys: Array[Int], shift: Int, mask: Int): Array[Int] = {
    val b = new Array[Int](mask + 2)
    var i = 0
    while (i < keys.length) { b(((keys(i) >>> shift) & mask) + 1) += 1; i += 1 }
    i = 0
    while (i <= mask) { b(i + 1) += b(i); i += 1 }
    b
  }

  /** One stable scatter pass on byte `(key >>> shift) & 255`: the input is
    * only read, and `next(b)` is where the keys of byte `b` start (the
    * input's [[bounds]] at `shift`), advanced as they are written.
    */
  def pass(keysIn: Array[Int], valsIn: Array[Double],
           keysOut: Array[Int], valsOut: Array[Double], shift: Int, next: Array[Int]): Unit = {
    var i = 0
    while (i < keysIn.length) {
      val b = (keysIn(i) >>> shift) & 255
      val pos = next(b)
      next(b) = pos + 1
      keysOut(pos) = keysIn(i)
      valsOut(pos) = valsIn(i)
      i += 1
    }
  }

  /** Float-valued variant of [[pass]]. */
  def passF(keysIn: Array[Int], valsIn: Array[Float],
            keysOut: Array[Int], valsOut: Array[Float], shift: Int, next: Array[Int]): Unit = {
    var i = 0
    while (i < keysIn.length) {
      val b = (keysIn(i) >>> shift) & 255
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
    * input" when F=1). The caller's arrays are never written.
    */
  def partition(keys: Array[Int], values: Array[Double], d: Int): PartitionedD =
    levels(keys, values, d, new Array[Double](_), pass)

  /** `d` levels of partitioning of float-valued records. */
  def partitionF(keys: Array[Int], values: Array[Float], d: Int): PartitionedF =
    levels(keys, values, d, new Array[Float](_), passF)

  /** The level loop of both precisions: the first pass reads the caller's
    * arrays, later ones ping-pong between (at most two) fresh output pairs.
    * The partition boundaries count the input keys, since counts do not
    * depend on order; at `d == 1` they are the one pass's own bounds.
    */
  private def levels[V](keys: Array[Int], values: V, d: Int, alloc: Int => V,
                        scatter: (Array[Int], V, Array[Int], V, Int, Array[Int]) => Unit): Partitioned[V] = {
    require(d >= 0 && d <= 3, s"partition depth must be in [0,3], got $d")
    val n = keys.length
    if (d == 0) return Partitioned(keys, values, Array(0, n))
    val offsets = bounds(keys, 0, (1 << (8 * d)) - 1)
    val out = Seq.fill(math.min(d, 2))((new Array[Int](n), alloc(n)))
    var kIn = keys; var vIn = values
    var level = 0
    while (level < d) {
      val (kOut, vOut) = out(level % 2)
      val next = if (d == 1) offsets.clone() else bounds(kIn, 8 * level, 255)
      scatter(kIn, vIn, kOut, vOut, 8 * level, next)
      kIn = kOut; vIn = vOut
      level += 1
    }
    Partitioned(kIn, vIn, offsets)
  }
}
