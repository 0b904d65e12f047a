package repro.exec

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
  * partitioning with fan-out 256, then HASHAGGREGATION of each partition.
  * Partitions are disjoint in key space, so concatenating the per-partition
  * results *is* the final merge (the cross-thread state merge of Alg. 4
  * lines 4-6 is exercised at the Spark layer, where partial aggregates of
  * the same group really do meet).
  *
  * The paper reports "CPU time per element = T*P/n", which normalizes the
  * thread count away; these kernels run single-threaded (P=1).
  */
object PartitionAndAggregate {
  import AggKind._

  /** Cache budget per thread for the buffer-size model, Eq. 4. The paper
    * uses 1 MiB (half of the 20 MiB LLC per core on their 8-core socket);
    * a comparable per-core L2+share-of-L3 budget holds on today's CPUs.
    */
  val CacheBytes: Int = 1 << 20
  val BszMax: Int     = 1024

  /** Paper Eq. 4: buffer size that fills the per-thread cache budget with
    * `nGroups / F` group buffers of `sizeof(ScalarT)`-byte values.
    */
  def bszFor(nGroups: Int, fanout: Int, bytesPerValue: Int): Int = {
    val groupsPerPart = math.max(1, (nGroups + fanout - 1) / fanout)
    val b = CacheBytes / (groupsPerPart * bytesPerValue)
    math.max(8, math.min(b, BszMax))
  }

  /** Offline-tuned partitioning depth for the buffered repro types,
    * following the paper's §V-C procedure (measure each depth per group
    * count — see `Fig9` and `Fig9Bench` — and take the cross-overs). On this
    * substrate the JVM radix pass costs more relative to aggregation than
    * the paper's AVX-tuned one, so the thresholds sit higher than the
    * paper's (2^10/2^18); the *ordering* — buffered repro partitions
    * earlier than built-ins — is preserved.
    */
  def depthFor(nGroups: Int): Int =
    if (nGroups < (1 << 15)) 0
    else if (nGroups < (1 << 22)) 1
    else 2

  /** Run GROUPBY-SUM over double-typed values. Returns (group key, sum)
    * pairs ordered by partition then table slot. Throws
    * `IllegalArgumentException` if the input holds more than `nGroups`
    * distinct keys, or more than a partition's table can hold.
    */
  def run(keys: Array[Int], values: Array[Double], nGroups: Int, d: Int,
          kind: AggKind): (Array[Int], Array[Double]) = {
    val part = RadixPartition.partition(keys, values, d)
    val cap = capacity(nGroups, d)
    val table: AggTable[Array[Double]] = kind match {
      case PlainD       => new PlainDTable(cap)
      case Dec64        => new Dec64Table(cap)
      case ReproD(l)    => new ReproDTable(cap, l)
      case BufD(l, bsz) => new BufDTable(cap, l, bsz)
      case other => throw new IllegalArgumentException(s"${other.name} needs the float-typed entry point")
    }
    aggregatePartitions(part.keys, part.values, part.offsets, d, nGroups, table)
  }

  /** Run GROUPBY-SUM over float-typed values. */
  def runF(keys: Array[Int], values: Array[Float], nGroups: Int, d: Int,
           kind: AggKind): (Array[Int], Array[Double]) = {
    val part = RadixPartition.partitionF(keys, values, d)
    val cap = capacity(nGroups, d)
    val table: AggTable[Array[Float]] = kind match {
      case PlainF       => new PlainFTable(cap)
      case ReproF(l)    => new ReproFTable(cap, l)
      case BufF(l, bsz) => new BufFTable(cap, l, bsz)
      case other => throw new IllegalArgumentException(s"${other.name} needs the double-typed entry point")
    }
    aggregatePartitions(part.keys, part.values, part.offsets, d, nGroups, table)
  }

  /** Table capacity for the groups of one of the `256^d` partitions. */
  private def capacity(nGroups: Int, d: Int): Int = {
    val fanout = 1 << (8 * d)
    HashAgg.capacityFor(math.max(1, (nGroups + fanout - 1) / fanout))
  }

  /** HASHAGGREGATION of each non-empty partition into the one `table`,
    * which is reset between partitions.
    */
  private def aggregatePartitions[A](keys: Array[Int], values: A, offsets: Array[Int], d: Int,
                                     nGroups: Int, table: AggTable[A]): (Array[Int], Array[Double]) = {
    val outKeys = new Array[Int](math.min(nGroups.toLong, keys.length.toLong).toInt)
    val outVals = new Array[Double](outKeys.length)
    var pos = 0
    var first = true
    var p = 0
    while (p < offsets.length - 1) {
      val from = offsets(p)
      val to   = offsets(p + 1)
      if (to > from) {
        if (!first) table.reset()
        first = false
        table.aggregate(keys, values, from, to, 8 * d)
        if (table.size > outKeys.length - pos)
          throw new IllegalArgumentException(s"input holds more than $nGroups distinct keys")
        pos = table.emit(outKeys, outVals, pos)
      }
      p += 1
    }
    (outKeys.take(pos), outVals.take(pos))
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
