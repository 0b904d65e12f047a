package repro.perfbench

import org.apache.spark.sql.catalyst.expressions.{BoundReference, SpecificInternalRow}
import org.apache.spark.sql.types.DoubleType

import repro.core.{ReproDouble, RsumBatchD, RsumD}
import repro.spark.ReproSum

/** Per-layer measurements that call a layer's public functions directly on
  * a workload's data. Times are thread CPU time of single-threaded calls,
  * the median of [[Reps]] repetitions.
  */
object Layers {
  val Reps = 3

  /** Few-state workloads repeat the per-state calls up to this many calls. */
  private val MinStateCalls = 1 << 18

  @volatile private var sink: Double = 0.0

  private def cpuMedian(body: => Unit): Double =
    Stats.median((1 to Reps).map { _ => val c0 = Jvm.cpuNs(); body; (Jvm.cpuNs() - c0).toDouble })

  /** `repro.core` on `values`, with the buffer-flush chunks `chunkLens` (a
    * chunk that would run past the end restarts at 0) and the per-group
    * reference `states` of the workload.
    */
  def core(levels: Int, bsz: Int, rows: Long, values: Array[Double], chunkLens: Array[Int],
           states: Array[ReproDouble]): Map[String, Double] = {
    val kernel = new RsumBatchD(levels)
    val s = new Array[Double](levels)
    val c = new Array[Long](levels)
    val chunked = chunkLens.iterator.map(_.toLong).sum
    val batchNs = cpuMedian {
      var e1 = RsumD.EMPTY
      var off = 0
      var i = 0
      while (i < chunkLens.length) {
        val len = chunkLens(i)
        if (off + len > values.length) off = 0
        e1 = kernel.run(values, off, len, s, c, 0, e1)
        off += len
        i += 1
      }
      sink += RsumD.eval(s, c, 0, levels, e1)
    }
    val addNs = cpuMedian {
      val st = new ReproDouble(levels)
      var i = 0
      while (i < values.length) { st.add(values(i)); i += 1 }
      sink += st.value
    }
    val n = states.length
    val r = math.max(1, MinStateCalls / n)
    val evalNs = cpuMedian {
      var k = 0
      while (k < r) { var i = 0; while (i < n) { sink += states(i).value; i += 1 }; k += 1 }
    }
    val mergeNs = Stats.median((1 to Reps).map { _ =>
      val copies = Array.tabulate(r * n)(i => states(i % n).copy())
      val c0 = Jvm.cpuNs()
      var i = 0
      while (i < copies.length) { copies(i).merge(states(i % n)); i += 1 }
      (Jvm.cpuNs() - c0).toDouble
    })
    var images: Array[Array[Byte]] = null
    val serNs = cpuMedian { images = Array.tabulate(r * n)(i => states(i % n).serialize()) }
    val deserNs = cpuMedian {
      var i = 0
      while (i < images.length) { sink += ReproDouble.deserialize(images(i)).levels; i += 1 }
    }
    val calls = (r * n).toDouble
    Map(
      "core.batch_run_ns_per_value"   -> batchNs / chunked,
      "core.batch_run_calls_per_row"  -> chunkLens.length / rows.toDouble,
      "core.flush_fill_ratio"         -> chunked.toDouble / chunkLens.length / bsz,
      "core.add_ns_per_value"         -> addNs / values.length,
      "core.eval_ns_per_group"        -> evalNs / calls,
      "core.merge_ns_per_state"       -> mergeNs / calls,
      "core.serialize_ns_per_state"   -> serNs / calls,
      "core.deserialize_ns_per_state" -> deserNs / calls,
      "core.state_bytes"              -> states(0).serialize().length.toDouble,
    )
  }

  /** `repro.spark.ReproSum` called directly: `cols(a)(i)` is the input of
    * aggregate `a` at row `i`, rows sorted by group so that group `g` is rows
    * `offsets(g) until offsets(g+1)`, as after Spark's sort fallback. Each
    * group's state is updated, serialized, deserialized and merged, and its
    * result is checked against `refs(a)` bit for bit. Returns the metrics
    * and the number of mismatching states.
    */
  def sparkAdapter(levels: Int, bsz: Int, cols: Array[Array[Double]], offsets: Array[Int],
                   refs: Array[Reference]): (Map[String, Double], Int) = {
    val nAgg = cols.length
    val aggs = Array.tabulate(nAgg)(a => ReproSum(BoundReference(a, DoubleType, nullable = false), levels, bsz))
    val row = new SpecificInternalRow(Seq.fill(nAgg)(DoubleType))
    val nGroups = offsets.length - 1
    val rows = offsets(nGroups) - offsets(0)
    val block = 4096
    val r = math.max(1, MinStateCalls / (nGroups * nAgg))
    var updNs, serNs, deserNs, mergeNs = 0L
    var calls = 0L
    var mismatches = 0
    var g0 = 0
    while (g0 < nGroups) {
      val g1 = math.min(nGroups, g0 + block)
      val nb = (g1 - g0) * nAgg
      val st = Array.tabulate(nb)(i => aggs(i % nAgg).createAggregationBuffer())
      var c0 = Jvm.cpuNs()
      var g = g0
      while (g < g1) {
        var i = offsets(g)
        while (i < offsets(g + 1)) {
          var a = 0
          while (a < nAgg) { row.setDouble(a, cols(a)(i)); a += 1 }
          a = 0
          while (a < nAgg) { aggs(a).update(st((g - g0) * nAgg + a), row); a += 1 }
          i += 1
        }
        g += 1
      }
      updNs += Jvm.cpuNs() - c0
      var k = 0
      while (k < r) {
        c0 = Jvm.cpuNs()
        val images = Array.tabulate(nb)(i => aggs(i % nAgg).serialize(st(i)))
        val c1 = Jvm.cpuNs()
        val back = Array.tabulate(nb)(i => aggs(i % nAgg).deserialize(images(i)))
        val c2 = Jvm.cpuNs()
        var i = 0
        while (i < nb) { aggs(i % nAgg).merge(back(i), st(i)); i += 1 }
        val c3 = Jvm.cpuNs()
        serNs += c1 - c0; deserNs += c2 - c1; mergeNs += c3 - c2
        calls += nb
        k += 1
      }
      var i = 0
      while (i < nb) {
        val grp = g0 + i / nAgg
        if (offsets(grp + 1) > offsets(grp)) {
          val v = aggs(i % nAgg).eval(st(i)).asInstanceOf[Double]
          val ref = refs(i % nAgg)
          if (!ref.present(grp) || java.lang.Double.doubleToRawLongBits(v) != ref.bits(grp)) mismatches += 1
        }
        i += 1
      }
      g0 = g1
    }
    (Map(
      "spark.update_ns_per_row"        -> updNs.toDouble / rows,
      "spark.merge_ns_per_state"       -> mergeNs.toDouble / calls,
      "spark.serialize_ns_per_state"   -> serNs.toDouble / calls,
      "spark.deserialize_ns_per_state" -> deserNs.toDouble / calls,
    ), mismatches)
  }
}
