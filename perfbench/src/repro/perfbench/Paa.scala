package repro.perfbench

import repro.SynthData
import repro.core.{ReproDouble, ReproFloat}
import repro.exec._
import repro.tables.TableIII

/** `PartitionAndAggregate` over driver-side arrays: 2^22 rows, keys uniform
  * in [0, 2^groupsLog2), values U[1,2) (the paper's §VI data), L = 2. Depth
  * and buffer size come from the code's own models: `depthFor`/`bszFor`
  * (Eq. 4) for the repro modes, `TableIII.builtinDepthFor` for `native`.
  */
final case class Paa(name: String, groupsLog2: Int, rowsLog2: Int = 22) extends Workload {
  def prepare(seed: Long): PaaPrepared = new PaaPrepared(this, seed)
}

final class PaaPrepared(w: Paa, seed: Long) extends Prepared {
  import AggKind._

  val Levels = 2
  val nRows: Int = 1 << w.rowsLog2
  val nGroups: Int = 1 << w.groupsLog2
  val keys: Array[Int] = SynthData.localUniformKeys(nRows, nGroups, seed)
  val vals: Array[Double] = SynthData.localUniformValues(nRows, seed + 1)
  val valsF: Array[Float] = SynthData.toFloats(vals)

  val depth: Int = PartitionAndAggregate.depthFor(nGroups)
  val nativeDepth: Int = TableIII.builtinDepthFor(nGroups)
  private val fanout = 1 << (8 * depth)
  val bsz: Int = PartitionAndAggregate.bszFor(nGroups, fanout, 8)
  val bszF: Int = PartitionAndAggregate.bszFor(nGroups, fanout, 4)

  // Scalar-path reference: ReproDouble / ReproFloat per group.
  val counts: Array[Long] = FlushModel.counts(keys(_), 0, nRows, nGroups)
  private val byGroup = new ByGroup(keys(_), nRows, counts)
  val states: Array[ReproDouble] = byGroup.states(Levels, byGroup.sort(vals))
  val ref: Reference = Reference.fromStates(states, counts)
  val refF: Reference = {
    val sorted = byGroup.sort(valsF)
    Reference.fromValues(Array.tabulate(nGroups) { g =>
      val st = new ReproFloat(Levels)
      var i = byGroup.offsets(g)
      while (i < byGroup.offsets(g + 1)) { st.add(sorted(i)); i += 1 }
      st.value.toDouble
    }, counts.map(_ > 0))
  }

  def rows: Long = nRows

  private type Out = (Array[Int], Array[Double])

  /** The same steps as `PartitionAndAggregate.run`, called one layer at a
    * time so each call gets a span: `RadixPartition.partition`, then the
    * table's `reset`/`aggregate`/`emit` per non-empty partition.
    */
  private trait Replay {
    def partition(): Array[Int]
    def aggregate(from: Int, to: Int, shift: Int): Unit
    def emit(outKeys: Array[Int], outVals: Array[Double], pos: Int): Int
    def reset(): Unit
  }

  private def replayTable(kind: AggKind, d: Int, cap: Int): Replay = {
    def onDoubles(agg: (Array[Int], Array[Double], Int, Int, Int) => Unit,
                  emitF: (Array[Int], Array[Double], Int) => Int, resetF: () => Unit): Replay = new Replay {
      private var part: RadixPartition.PartitionedD = _
      def partition(): Array[Int] = { part = RadixPartition.partition(keys, vals, d); part.offsets }
      def aggregate(from: Int, to: Int, shift: Int): Unit = agg(part.keys, part.values, from, to, shift)
      def emit(ok: Array[Int], ov: Array[Double], p: Int): Int = emitF(ok, ov, p)
      def reset(): Unit = resetF()
    }
    kind match {
      case PlainD =>
        val t = new PlainDTable(cap); onDoubles(t.aggregate, t.emit, () => t.reset())
      case ReproD(l) =>
        val t = new ReproDTable(cap, l); onDoubles(t.aggregate, t.emit, () => t.reset())
      case BufD(l, b) =>
        val t = new BufDTable(cap, l, b); onDoubles(t.aggregate, t.emit, () => t.reset())
      case BufF(l, b) =>
        val t = new BufFTable(cap, l, b)
        new Replay {
          private var part: RadixPartition.PartitionedF = _
          def partition(): Array[Int] = { part = RadixPartition.partitionF(keys, valsF, d); part.offsets }
          def aggregate(from: Int, to: Int, shift: Int): Unit = t.aggregate(part.keys, part.values, from, to, shift)
          def emit(ok: Array[Int], ov: Array[Double], p: Int): Int = t.emit(ok, ov, p)
          def reset(): Unit = t.reset()
        }
      case other => throw new IllegalArgumentException(s"no replay for ${other.name}")
    }
  }

  private def replay(t: Tracer, kind: AggKind, d: Int): Out = {
    val fanout = 1 << (8 * d)
    val shift = 8 * d
    val cap = HashAgg.capacityFor(math.max(1, (nGroups + fanout - 1) / fanout))
    val table = t.span("table.new", "exec")(replayTable(kind, d, cap))
    val offsets = t.span("partition", "exec")(table.partition())
    val outKeys = new Array[Int](math.min(nGroups.toLong, nRows.toLong).toInt)
    val outVals = new Array[Double](outKeys.length)
    var pos = 0
    var p = 0
    var first = true
    while (p < fanout) {
      val from = offsets(p)
      val to = offsets(p + 1)
      if (to > from) {
        if (!first) t.span("reset", "exec")(table.reset())
        first = false
        t.span("aggregate", "exec")(table.aggregate(from, to, shift))
        pos = t.span("emit", "exec")(table.emit(outKeys, outVals, pos))
      }
      p += 1
    }
    (outKeys.take(pos), outVals.take(pos))
  }

  private final class PaaMode(name: String, kind: AggKind, d: Int, f32: Boolean) extends Mode[Out](name) {
    private val exact = kind != PlainD
    private var replayChecked = false

    def run(): Out =
      if (f32) PartitionAndAggregate.runF(keys, valsF, nGroups, d, kind)
      else PartitionAndAggregate.run(keys, vals, nGroups, d, kind)

    def check(out: Out): Unit =
      (if (f32) refF else ref).checkAll(out._1(_), out._2(_), out._1.length, exact, name)

    /** The replay; the first one per mode is also compared bit for bit
      * with `PartitionAndAggregate.run` on the same input.
      */
    def traced(t: Tracer): Out = {
      val out = t.span(s"op.$name", "bench")(replay(t, kind, d))
      if (!replayChecked) {
        val direct = run()
        val same = java.util.Arrays.equals(out._1, direct._1) &&
          java.util.Arrays.equals(out._2.map(java.lang.Double.doubleToRawLongBits),
                                  direct._2.map(java.lang.Double.doubleToRawLongBits))
        if (!same) throw new CheckFailed(s"$name: replay differs from PartitionAndAggregate.run")
        replayChecked = true
      }
      out
    }
  }

  val modes: Seq[Mode[_]] = Seq(
    new PaaMode("native", PlainD, nativeDepth, f32 = false),
    new PaaMode("repro", ReproD(Levels), depth, f32 = false),
    new PaaMode("repro_buf", BufD(Levels, bsz), depth, f32 = false),
    new PaaMode("repro_buf_f32", BufF(Levels, bszF), depth, f32 = true),
  )

  /** BufDTable bytes: key, L sums, L carries, e1, bsz buffer slots, fill. */
  private def tableBytes: Long = {
    val cap = HashAgg.capacityFor(math.max(1, (nGroups + fanout - 1) / fanout))
    cap.toLong * (4 + 8 * Levels + 8 * Levels + 4 + 8 * bsz + 4)
  }

  def provenance: Map[String, Any] = Map(
    "rows" -> nRows, "groups" -> nGroups, "groups_present" -> ref.groups, "seed" -> seed,
    "levels" -> Levels, "depth" -> depth, "native_depth" -> nativeDepth,
    "bsz" -> bsz, "bsz_f32" -> bszF, "table_bytes" -> tableBytes,
    "aggregate_operator" -> "repro.exec.PartitionAndAggregate (driver, 1 thread)",
  )

  def layerMetrics(spans: Seq[Span], ops: Int): (Map[String, Double], Int) = {
    def cpu(n: String) = spans.filter(_.name == n).map(_.cpuNs).sum.toDouble
    val alloc = spans.filter(_.name == "partition").map(_.allocBytes).sum.toDouble
    val present = states.indices.filter(counts(_) > 0).map(states(_)).toArray
    (Layers.core(Levels, bsz, nRows, vals, FlushModel.chunks(counts.iterator, bsz), present) ++ Map(
      "exec.partition_ns_per_row"          -> cpu("partition") / ops / nRows,
      "exec.partition_alloc_bytes_per_row" -> alloc / ops / nRows,
      "exec.aggregate_ns_per_row"          -> cpu("aggregate") / ops / nRows,
      "exec.emit_ns_per_group"             -> cpu("emit") / ops / ref.groups,
      "exec.table_bytes"                   -> tableBytes.toDouble,
    ), 0)
  }
}
