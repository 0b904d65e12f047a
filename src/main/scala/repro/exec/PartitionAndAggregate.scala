package repro.exec

import java.util.concurrent.atomic.AtomicInteger

/** Accumulator data types available to the aggregation operators — the
  * paper's experimental axes (§VI): built-in float/double, DECIMAL(19), and
  * `repro<ScalarT,L>` with or without summation buffers.
  */
sealed trait AggKind { def name: String }
object AggKind {
  case object PlainD extends AggKind { val name = "double" }
  case object PlainF extends AggKind { val name = "float" }
  case object Dec64  extends AggKind { val name = "DECIMAL(19)" }
  final case class ReproD(levels: Int) extends AggKind { def name = s"repro<double,$levels>" }
  final case class ReproF(levels: Int) extends AggKind { def name = s"repro<float,$levels>" }
  final case class BufD(levels: Int, bsz: Int) extends AggKind { def name = s"repro<double,$levels>+buf($bsz)" }
  final case class BufF(levels: Int, bsz: Int) extends AggKind { def name = s"repro<float,$levels>+buf($bsz)" }
}

/** The paper's PARTITIONANDAGGREGATE (Alg. 4): `d` levels of radix
  * partitioning with fan-out 256, then HASHAGGREGATION of each partition,
  * both on up to `P` worker threads ([[Workers]]).
  *
  * At `d >= 1`, partitions are disjoint in key space, so each is aggregated
  * by one worker, in input order, and concatenating the per-partition
  * results in partition order *is* the final merge: no state crosses
  * threads. At `d == 0` the one partition is cut into contiguous chunks,
  * one per worker, each aggregated into a table of its own; the caller
  * then merges the tables in chunk order (Alg. 4 lines 4-6, the morsels of
  * Leis et al., SIGMOD 2014). Only kinds whose merge is exact take more
  * than one chunk: the repro kinds, whose RSUM states merge to the bits of
  * one sequential sum, and DECIMAL's wrapping integers. A merge of
  * `double` or `float` partial sums would change the baseline's bits with
  * the worker count, so those run as one chunk. Either way the
  * result's keys, bits and order do not depend on the worker count.
  *
  * A call's tables and, at `d >= 1`, the radix pass's output rows and
  * partition bounds belong to the calling thread: each is kept at the last
  * shape asked for and reused by the next call of that shape. Per value
  * type that is two pairs of `n` rows, which the radix sub-passes
  * alternate between (24 B a row for double, 16 B for float), plus 8 B
  * per partition. A warm call allocates only its result, 12 B per group,
  * which the workers fill in parallel.
  *
  * The paper reports "CPU time per element = T*P/n", which normalizes the
  * thread count away; its runners here (`TableIII`, `Fig4`, `Fig9`)
  * pass one worker so their per-thread figures keep that meaning.
  */
object PartitionAndAggregate {
  import AggKind._
  import RadixPartition.Partitioned

  /** Cache budget per thread for the buffer-size model, Eq. 4. The paper
    * uses 1 MiB (half of the 20 MiB LLC per core on their 8-core socket);
    * a comparable per-core L2+share-of-L3 budget holds on today's CPUs.
    */
  val CacheBytes: Int = 1 << 20
  val BszMax: Int     = 1024

  /** The fewest rows of a `d == 0` chunk. A chunk also has at least as
    * many rows as its table has slots, so that flushing and merging the
    * table cost no more than aggregating the chunk.
    */
  val MinChunkRows: Int = 4096

  /** Paper Eq. 4: buffer size that fills the per-thread cache budget with
    * `nGroups / F` group buffers of `sizeof(ScalarT)`-byte values.
    */
  def bszFor(nGroups: Int, fanout: Int, bytesPerValue: Int): Int = {
    val groupsPerPart = math.max(1L, (nGroups.toLong + fanout - 1) / fanout)
    val b = CacheBytes / (groupsPerPart * bytesPerValue)
    math.max(8L, math.min(b, BszMax.toLong)).toInt
  }

  /** Offline-tuned partitioning depth for the buffered repro types,
    * following the paper's §V-C procedure (measure each depth per group
    * count — see `Fig9` and `Fig9Bench` — and take the cross-overs). On this
    * substrate the JVM radix pass costs more relative to aggregation than
    * the paper's AVX-tuned one, so the thresholds sit higher than the
    * paper's (2^10/2^18); the *ordering* — buffered repro partitions
    * earlier than built-ins — is preserved. Tuned on one worker.
    */
  def depthFor(nGroups: Int): Int =
    if (nGroups < (1 << 15)) 0
    else if (nGroups < (1 << 22)) 1
    else 2

  /** Run GROUPBY-SUM over double-typed values. Returns (group key, sum)
    * pairs ordered by partition then table slot. Throws
    * `IllegalArgumentException` if `keys` and `values` differ in length,
    * or if the input holds more than `nGroups` distinct keys, or more than
    * a partition's table can hold.
    */
  def run(keys: Array[Int], values: Array[Double], nGroups: Int, d: Int,
          kind: AggKind): (Array[Int], Array[Double]) =
    run(keys, values, nGroups, d, kind, Workers.P)

  /** Run GROUPBY-SUM over float-typed values. */
  def runF(keys: Array[Int], values: Array[Float], nGroups: Int, d: Int,
           kind: AggKind): (Array[Int], Array[Double]) =
    runF(keys, values, nGroups, d, kind, Workers.P)

  /** [[run]] on up to `workers` threads, the caller's included. */
  private[repro] def run(keys: Array[Int], values: Array[Double], nGroups: Int, d: Int,
                         kind: AggKind, workers: Int): (Array[Int], Array[Double]) = {
    RadixPartition.requireSameLength(keys.length, values.length)
    val cap = capacity(nGroups, d)
    val table: () => AggTable[Array[Double]] = kind match {
      case PlainD       => () => new PlainDTable(cap)
      case Dec64        => () => new Dec64Table(cap)
      case ReproD(l)    => () => new ReproDTable(cap, l)
      case BufD(l, bsz) => () => new BufDTable(cap, l, bsz)
      case other => throw new IllegalArgumentException(s"${other.name} needs the float-typed entry point")
    }
    val ws = workspace.get
    aggregate(keys, values, d, nGroups, workers, ws.tables(kind, cap, workers, table), ws.doubles)
  }

  /** [[runF]] on up to `workers` threads, the caller's included. */
  private[repro] def runF(keys: Array[Int], values: Array[Float], nGroups: Int, d: Int,
                          kind: AggKind, workers: Int): (Array[Int], Array[Double]) = {
    RadixPartition.requireSameLength(keys.length, values.length)
    val cap = capacity(nGroups, d)
    val table: () => AggTable[Array[Float]] = kind match {
      case PlainF       => () => new PlainFTable(cap)
      case ReproF(l)    => () => new ReproFTable(cap, l)
      case BufF(l, bsz) => () => new BufFTable(cap, l, bsz)
      case other => throw new IllegalArgumentException(s"${other.name} needs the double-typed entry point")
    }
    val ws = workspace.get
    aggregate(keys, values, d, nGroups, workers, ws.tables(kind, cap, workers, table), ws.floats)
  }

  /** Table capacity for the groups of one of the `256^d` partitions. */
  private[exec] def capacity(nGroups: Int, d: Int): Int = {
    require(d >= 0 && d <= 3, s"partition depth must be in [0,3], got $d")
    val fanout = RadixPartition.fanout(d)
    HashAgg.capacityFor(math.max(1L, (nGroups.toLong + fanout - 1) / fanout).toInt)
  }

  /** The calling thread's tables of one table class: those of the last
    * shape asked for, made by `make` on the worker that first needs one.
    */
  private final class Tables[A](val kind: AggKind, val cap: Int, val make: () => AggTable[A]) {
    var all = new Array[AggTable[A]](0)

    /** Worker `w`'s table, reset. */
    def fresh(w: Int): AggTable[A] = {
      if (all(w) == null) all(w) = make() else all(w).reset()
      all(w)
    }
  }

  /** The calling thread's radix-pass arrays for one value type `A`, and how
    * results of that type are staged in their partition's rows and copied
    * out. The two pairs that the radix sub-passes alternate between, like
    * the partition bounds, have the size of the last call with `d >= 1`.
    */
  private sealed abstract class Rows[A] {
    private val pairs = new Array[(Array[Int], A)](2)
    private var offsets = new Array[Int](0)
    /** Per non-empty partition of the last call, the groups it emitted,
      * then where its results start in the output.
      */
    var at = new Array[Int](0)

    protected def alloc(n: Int): A
    protected def levels(keys: Array[Int], values: A, d: Int, workers: Int,
                         out: Seq[(Array[Int], A)], offsets: Array[Int]): Partitioned[A]
    def emit(t: AggTable[A], keys: Array[Int], values: A, pos: Int): Int
    def copy(values: A, from: Int, out: Array[Double], pos: Int, n: Int): Unit

    /** `d >= 1` levels of partitioning of the caller's rows into this
      * thread's arrays.
      */
    def partition(keys: Array[Int], values: A, d: Int, workers: Int): Partitioned[A] = {
      val n = keys.length
      var i = 0
      while (i < 2) {
        if (pairs(i) == null || pairs(i)._1.length != n) {
          pairs(i) = null // a collection during the allocation may reclaim the old pair
          pairs(i) = (new Array[Int](n), alloc(n))
        }
        i += 1
      }
      val fanout = RadixPartition.fanout(d)
      if (offsets.length != fanout + 1) { offsets = new Array[Int](fanout + 1); at = new Array[Int](fanout + 1) }
      levels(keys, values, d, workers, pairs.toSeq, offsets)
    }
  }
  private final class Doubles extends Rows[Array[Double]] {
    protected def alloc(n: Int): Array[Double] = new Array[Double](n)
    protected def levels(keys: Array[Int], values: Array[Double], d: Int, workers: Int,
                         out: Seq[(Array[Int], Array[Double])], offsets: Array[Int]): Partitioned[Array[Double]] =
      RadixPartition.partition(keys, values, d, workers, out, offsets)
    def emit(t: AggTable[Array[Double]], keys: Array[Int], values: Array[Double], pos: Int): Int =
      t.emit(keys, values, pos)
    def copy(values: Array[Double], from: Int, out: Array[Double], pos: Int, n: Int): Unit =
      System.arraycopy(values, from, out, pos, n)
  }
  private final class Floats extends Rows[Array[Float]] {
    protected def alloc(n: Int): Array[Float] = new Array[Float](n)
    protected def levels(keys: Array[Int], values: Array[Float], d: Int, workers: Int,
                         out: Seq[(Array[Int], Array[Float])], offsets: Array[Int]): Partitioned[Array[Float]] =
      RadixPartition.partitionF(keys, values, d, workers, out, offsets)
    def emit(t: AggTable[Array[Float]], keys: Array[Int], values: Array[Float], pos: Int): Int =
      t.emitFloats(keys, values, pos)
    def copy(values: Array[Float], from: Int, out: Array[Double], pos: Int, n: Int): Unit = {
      var i = 0
      while (i < n) { out(pos + i) = values(from + i); i += 1 }
    }
  }

  /** A calling thread's reused memory: its tables, one class of them per
    * table class, and its radix-pass arrays, one set per value type. Pool
    * threads keep none: each call's workers use its caller's, so callers
    * that share the pool never share a table or a row.
    */
  private final class Workspace {
    private val byClass = new java.util.HashMap[Class[_], Tables[_]]
    val doubles = new Doubles
    val floats = new Floats

    /** The tables of `kind` with `cap` slots, room for `workers`; they
      * replace those of any other shape of the same class.
      */
    def tables[A](kind: AggKind, cap: Int, workers: Int, make: () => AggTable[A]): Tables[A] = {
      var ts = byClass.get(kind.getClass).asInstanceOf[Tables[A]]
      if (ts == null || ts.kind != kind || ts.cap != cap) {
        ts = new Tables(kind, cap, make)
        byClass.put(kind.getClass, ts)
      }
      if (ts.all.length < workers) ts.all = java.util.Arrays.copyOf(ts.all, workers)
      ts
    }
  }

  private val workspace = ThreadLocal.withInitial(() => new Workspace)

  private def tooManyGroups(nGroups: Int): Nothing =
    throw new IllegalArgumentException(s"input holds more than $nGroups distinct keys")

  /** HASHAGGREGATION of each non-empty partition on up to `workers`
    * workers; the caller is worker 0, and worker `w` uses table `w`.
    *
    * At `d == 0` the one partition is the caller's input, which is never
    * written. Chunk `w` of it goes into table `w`, which its worker then
    * flushes; the caller merges the tables after the first into it, in
    * chunk order, and emits it into fresh arrays. Table 0 thus claims every
    * key in the order of its first row in the input, so it ends with the
    * slots, and emits the order, of one table over the whole input.
    *
    * Deeper, `rows` partitions the input into the calling thread's arrays,
    * and the workers take the non-empty partitions from one counter, each
    * into its table, reset between partitions. A worker emits partition
    * `i` in place, at its first row: its rows are dead once aggregated,
    * and it has at least as many rows as groups. After a failure the
    * other workers take no further partition. The workers then copy the
    * results out in partition order into exact-size arrays, the only ones
    * a warm call allocates, each a contiguous range of partitions holding
    * about an equal share of the groups.
    */
  private def aggregate[A](keys: Array[Int], values: A, d: Int, nGroups: Int, workers: Int,
                           tables: Tables[A], rows: Rows[A]): (Array[Int], Array[Double]) = {
    if (d == 0) {
      val n = keys.length
      val chunks = tables.kind match {
        case PlainD | PlainF => 1
        case _ => math.max(1, math.min(workers, n / math.max(MinChunkRows, tables.cap)))
      }
      def start(w: Int): Int = (n.toLong * w / chunks).toInt
      Workers.run(chunks) { w =>
        val t = tables.fresh(w)
        t.aggregate(keys, values, start(w), start(w + 1), 0)
        t.flush()
      }
      val table = tables.all(0)
      var w = 1
      while (w < chunks) { table.merge(tables.all(w), 0); w += 1 }
      if (table.size > nGroups) tooManyGroups(nGroups)
      val out = (new Array[Int](table.size), new Array[Double](table.size))
      table.emit(out._1, out._2, 0)
      return out
    }
    val part = rows.partition(keys, values, d, workers)
    // Compact the bounds, in place, to those of the non-empty partitions:
    // the i-th of them then holds rows offsets(i) until offsets(i + 1).
    val offsets = part.offsets
    val fanout = RadixPartition.fanout(d)
    var parts = 0
    var p = 0
    while (p < fanout) {
      if (offsets(p + 1) > offsets(p)) { offsets(parts) = offsets(p); parts += 1 }
      p += 1
    }
    offsets(parts) = offsets(fanout)
    val nParts = parts
    val at = rows.at
    val next = new AtomicInteger
    val nWorkers = math.max(1, math.min(workers, nParts))
    Workers.run(nWorkers, () => next.set(nParts)) { w =>
      var i = next.getAndIncrement()
      while (i < nParts) {
        val from = offsets(i)
        val table = tables.fresh(w)
        table.aggregate(part.keys, part.values, from, offsets(i + 1), 8 * d)
        at(i) = rows.emit(table, part.keys, part.values, from) - from
        i = next.getAndIncrement()
      }
    }
    // Every non-empty partition emits a group, so `at` rises strictly.
    var total = 0L
    var i = 0
    while (i < nParts) { val size = at(i); at(i) = total.toInt; total += size; i += 1 }
    if (total > nGroups) tooManyGroups(nGroups)
    at(nParts) = total.toInt
    val outKeys = new Array[Int](total.toInt)
    val outVals = new Array[Double](total.toInt)
    /** The first partition whose results start at or after `pos`. */
    def firstAt(pos: Long): Int = {
      val j = java.util.Arrays.binarySearch(at, 0, nParts + 1, pos.toInt)
      if (j >= 0) j else -j - 1
    }
    Workers.run(nWorkers) { w =>
      var i = firstAt(total * w / nWorkers)
      val end = firstAt(total * (w + 1) / nWorkers)
      while (i < end) {
        System.arraycopy(part.keys, offsets(i), outKeys, at(i), at(i + 1) - at(i))
        rows.copy(part.values, offsets(i), outVals, at(i), at(i + 1) - at(i))
        i += 1
      }
    }
    (outKeys, outVals)
  }
}

/** The deterministic-order baseline (§II-C / §VI-A): impose a total order
  * on the records — (key, value under IEEE total order) — and sum each
  * group sequentially in that order. Reproducible across any input
  * permutation, but pays a full sort; the paper measures it at 7-20x the
  * cost of hash-based aggregation.
  */
object SortAgg {
  def run(keys: Array[Int], values: Array[Double]): (Array[Int], Array[Double]) = {
    val n = keys.length
    val idx = new Array[Integer](n)
    var i = 0
    while (i < n) { idx(i) = Integer.valueOf(i); i += 1 }
    java.util.Arrays.sort(idx, (a: Integer, b: Integer) => {
      val ka = keys(a.intValue); val kb = keys(b.intValue)
      if (ka != kb) Integer.compare(ka, kb)
      else java.lang.Double.compare(values(a.intValue), values(b.intValue))
    })
    val outKeys = new scala.collection.mutable.ArrayBuffer[Int]
    val outVals = new scala.collection.mutable.ArrayBuffer[Double]
    i = 0
    while (i < n) {
      val k = keys(idx(i).intValue)
      var sum = 0.0
      while (i < n && keys(idx(i).intValue) == k) { sum += values(idx(i).intValue); i += 1 }
      outKeys += k
      outVals += sum
    }
    (outKeys.toArray, outVals.toArray)
  }
}
