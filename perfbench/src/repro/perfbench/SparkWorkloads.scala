package repro.perfbench

import scala.collection.mutable.ArrayBuffer

import org.apache.spark.scheduler._
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.catalyst.expressions.aggregate.Partial
import org.apache.spark.sql.execution.aggregate.BaseAggregateExec
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types.FloatType

import repro.SynthData
import repro.core.ReproDouble
import repro.spark.ReproFunctions
import repro.tables.TpchQ1

/** The one local Spark session of a benchmark process. Input and shuffle
  * partition counts are fixed and adaptive execution is off, so the plan
  * and the task count do not depend on the machine.
  */
object SparkEnv {
  val InputPartitions = 4
  val ShufflePartitions = 4
  lazy val master: String = s"local[${math.min(4, Runtime.getRuntime.availableProcessors)}]"
  val listener = new TaskListener
  private var started: SparkSession = _

  def session: SparkSession = synchronized {
    if (started == null) {
      started = SparkSession.builder
        .master(master)
        .appName("perfbench")
        .config("spark.default.parallelism", InputPartitions.toLong)
        .config("spark.sql.shuffle.partitions", ShufflePartitions.toLong)
        .config("spark.sql.adaptive.enabled", false)
        .config("spark.ui.enabled", false)
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.sql.warehouse.dir", sys.props.getOrElse("java.io.tmpdir", ".") + "/warehouse")
        .getOrCreate()
      started.sparkContext.setLogLevel("ERROR")
      started.sparkContext.addSparkListener(listener)
    }
    started
  }

  def provenance: Map[String, Any] =
    if (started == null) Map.empty
    else Map("spark_version" -> started.version, "spark_master" -> master,
             "spark_shuffle_partitions" -> ShufflePartitions,
             "spark_input_partitions" -> InputPartitions, "spark_adaptive" -> false)

  def stop(): Unit = synchronized { if (started != null) { started.stop(); started = null } }

  /** Pulls every column of `df` (all DOUBLE) to the driver, per input
    * partition: `result(partition)(column)(row)`.
    */
  def pullDoubles(df: DataFrame): Array[Array[Array[Double]]] = {
    val n = df.schema.length
    df.queryExecution.toRdd.mapPartitions { it =>
      val b = Array.fill(n)(Array.newBuilder[Double])
      it.foreach { r => var c = 0; while (c < n) { b(c) += r.getDouble(c); c += 1 } }
      Iterator(b.map(_.result()))
    }.collect()
  }
}

/** Task and job counts of the Spark listener bus. */
final class TaskListener extends SparkListener {
  private var jobsStarted, jobsEnded, tasks, shuffleBytes, cpuNs, gcMs = 0L

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized { jobsStarted += 1 }
  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized { jobsEnded += 1 }
  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    tasks += 1
    val m = e.taskMetrics
    if (m != null) {
      shuffleBytes += m.shuffleWriteMetrics.bytesWritten
      cpuNs += m.executorCpuTime
      gcMs += m.jvmGCTime
    }
  }

  /** (shuffle write bytes, executor CPU ns, task GC ms) of the ended tasks. */
  def counters: (Long, Long, Long) = synchronized { (shuffleBytes, cpuNs, gcMs) }

  /** Waits until the bus has delivered the end of every started job and
    * nothing changed for 50 ms (events arrive asynchronously).
    */
  def quiesce(): Unit = {
    val deadline = System.nanoTime() + 5000000000L
    var last = (-1L, -1L)
    var stableSince = System.nanoTime()
    while (System.nanoTime() < deadline) {
      val now = synchronized { (jobsStarted, tasks) }
      val done = synchronized { jobsEnded == jobsStarted }
      if (now != last) { last = now; stableSince = System.nanoTime() }
      else if (done && System.nanoTime() - stableSince > 50000000L) return
      Thread.sleep(5)
    }
  }
}

/** What one traced query did, from Spark's SQL and task metrics. */
final case class QueryStats(wallMs: Double, planMs: Double, aggTimeMs: Double, fallbackTasks: Long,
                            aggTasks: Long, spillBytes: Long, shuffleBytes: Long,
                            executorCpuMs: Double, taskGcMs: Double)

/** A mode that runs one SQL query and collects its result. `layer` is the
  * repo module the query exercises (`spark` or `tables`). Traced runs wrap
  * the query in a span, add Spark's planning phases as child spans, and keep
  * the query's [[QueryStats]].
  */
final class QueryMode(name: String, layer: String, query: () => DataFrame, checkRows: Array[Row] => Unit,
                      inputPartitions: Int) extends Mode[Array[Row]](name) {
  val stats: ArrayBuffer[QueryStats] = ArrayBuffer.empty
  var operators: Seq[String] = Nil

  def run(): Array[Row] = {
    val df = query()
    val out = df.collect()
    if (operators.isEmpty) operators = aggregates(df).map(_.nodeName)
    out
  }

  def check(out: Array[Row]): Unit = checkRows(out)

  private def aggregates(df: DataFrame): Seq[BaseAggregateExec] =
    df.queryExecution.executedPlan.collect { case a: BaseAggregateExec => a }

  def traced(t: Tracer): Array[Row] = {
    // Late task-end events of earlier queries must not count towards this one.
    SparkEnv.listener.quiesce()
    val l0 = SparkEnv.listener.counters
    val t0 = System.nanoTime()
    var df: DataFrame = null
    val out = t.span(s"op.$name", "bench") {
      t.span("query", layer) {
        df = query()
        val rows = df.collect()
        val nsPerMs = 1000000L
        val offset = System.nanoTime() - System.currentTimeMillis() * nsPerMs
        for ((phase, s) <- df.queryExecution.tracker.phases)
          t.record(s"plan.$phase", layer, s.startTimeMs * nsPerMs + offset, s.endTimeMs * nsPerMs + offset)
        rows
      }
    }
    val wallMs = (System.nanoTime() - t0) / 1e6
    SparkEnv.listener.quiesce()
    val l1 = SparkEnv.listener.counters
    val aggs = aggregates(df)
    def metric(a: BaseAggregateExec, m: String) = a.metrics.get(m).map(_.value).getOrElse(0L)
    val aggTasks = aggs.map { a =>
      if (a.aggregateExpressions.headOption.exists(_.mode == Partial)) inputPartitions
      else SparkEnv.ShufflePartitions
    }.sum
    stats += QueryStats(
      wallMs = wallMs,
      planMs = df.queryExecution.tracker.phases.values.map(_.durationMs).sum.toDouble,
      aggTimeMs = aggs.map(metric(_, "aggTime")).sum.toDouble,
      fallbackTasks = aggs.map(metric(_, "numTasksFallBacked")).sum,
      aggTasks = aggTasks.toLong,
      spillBytes = aggs.map(metric(_, "spillSize")).sum,
      shuffleBytes = l1._1 - l0._1,
      executorCpuMs = (l1._2 - l0._2) / 1e6, taskGcMs = (l1._3 - l0._3).toDouble)
    out
  }

  /** Medians over the traced queries of the `spark.*` (and, for the
    * `tables` layer, `tables.*`) metrics.
    */
  def metrics(rows: Long): Map[String, Double] = {
    def med(f: QueryStats => Double) = Stats.median(stats.map(f))
    val spark = Map(
      "spark.agg_time_ms"                 -> med(_.aggTimeMs),
      "spark.fallback_frac"               -> med(s => s.fallbackTasks.toDouble / math.max(1L, s.aggTasks)),
      "spark.spill_bytes"                 -> med(_.spillBytes.toDouble),
      "spark.shuffle_write_bytes_per_row" -> med(_.shuffleBytes.toDouble / rows),
      "spark.executor_cpu_ms"             -> med(_.executorCpuMs),
      "spark.gc_ms"                       -> med(_.taskGcMs),
    )
    if (layer != "tables") spark
    else spark ++ Map("tables.plan_ms" -> med(_.planMs), "tables.exec_ms" -> med(s => s.wallMs - s.planMs))
  }
}

/** Spark SQL `SELECT k, <agg>(v) FROM t GROUP BY k` over a cached
  * `SynthData.uniformKeys` table: 2^20 rows, 2^14 keys, L = 2, bsz 256.
  */
final case class SparkWide(rowsLog2: Int = 20, keysLog2: Int = 14) extends Workload {
  val name = "spark-wide"
  def prepare(seed: Long): Prepared = new SparkWidePrepared(this, seed)
}

final class SparkWidePrepared(w: SparkWide, seed: Long) extends Prepared {
  val Levels: Int = ReproFunctions.DefaultLevels
  val Bsz: Int = ReproFunctions.DefaultBufferSize
  private val spark = SparkEnv.session
  ReproFunctions.register(spark)
  val rows: Long = 1L << w.rowsLog2
  val nKeys: Int = 1 << w.keysLog2
  private val table = SynthData.uniformKeys(spark, rows, nKeys, seed).cache()
  table.createOrReplaceTempView("t")
  require(table.count() == rows)

  private val parts = SparkEnv.pullDoubles(spark.sql("SELECT CAST(k AS DOUBLE), v FROM t"))
  private val keys: Array[Int] = parts.flatMap(_(0)).map(_.toInt) // keys in [1, nKeys]
  private val vals: Array[Double] = parts.flatMap(_(1))
  val counts: Array[Long] = FlushModel.counts(keys(_), 0, keys.length, nKeys + 1)
  private val byKey = new ByGroup(keys(_), keys.length, counts)
  private val sortedVals = byKey.sort(vals)
  val states: Array[ReproDouble] = byKey.states(Levels, sortedVals)
  private val statesF = byKey.states(Levels, sortedVals.map(_.toFloat.toDouble))
  val ref: Reference = Reference.fromStates(states, counts)
  private val refF = Reference.fromStates(statesF, counts)

  private def mode(name: String, agg: String, r: Reference, exact: Boolean) =
    new QueryMode(name, "spark", () => spark.sql(s"SELECT k, $agg AS s FROM t GROUP BY k"),
      out => r.checkAll(out(_).getLong(0).toInt, out(_).getDouble(1), out.length, exact, name),
      parts.length)

  private val reproBuf = mode("repro_buf", s"rsum_buffered(v, $Levels, $Bsz)", ref, exact = true)
  val modes: Seq[QueryMode] = Seq(
    mode("native", "sum(v)", ref, exact = false),
    mode("repro", s"rsum(v, $Levels)", ref, exact = true),
    reproBuf,
    mode("repro_buf_f32", s"rsum_buffered(CAST(v AS FLOAT), $Levels, $Bsz)", refF, exact = true),
  )

  def provenance: Map[String, Any] = Map(
    "rows" -> rows, "groups" -> nKeys, "groups_present" -> ref.groups, "seed" -> seed,
    "levels" -> Levels, "bsz" -> Bsz,
    "aggregate_operator" -> modes.map(m => m.name -> m.operators.mkString(",")).toMap,
  )

  def layerMetrics(spans: Seq[Span], ops: Int): (Map[String, Double], Int) = {
    val chunks = FlushModel.perPartition(keys(_), parts.map(_(0).length), nKeys + 1, Bsz)
    val present = states.indices.filter(counts(_) > 0).map(states(_)).toArray
    val (adapter, mismatches) = Layers.sparkAdapter(Levels, Bsz, Array(sortedVals), byKey.offsets, Array(ref))
    (Layers.core(Levels, Bsz, rows, vals, chunks, present) ++ adapter ++ reproBuf.metrics(rows), mismatches)
  }

  override def close(): Unit = {
    table.unpersist(blocking = true)
    spark.catalog.dropTempView("t")
  }
}

/** TPC-H Q1 through `repro.tables.TpchQ1` over a cached `SynthData.lineitem`
  * at SF 0.05: `double`, `reproNoBuffer(L=4)`, `reproBuffered(L=4, 256)`, and
  * `reproBuffered` again over a copy of lineitem whose DOUBLE columns are
  * cast to FLOAT, seen as `lineitem` by a second session so the query text
  * is unchanged.
  */
final case class TpchQ1Workload(sf: Double = 0.05) extends Workload {
  val name = "tpch-q1"
  def prepare(seed: Long): Prepared = new TpchQ1Prepared(this, seed)
}

final class TpchQ1Prepared(w: TpchQ1Workload, seed: Long) extends Prepared {
  val Levels = 4
  val Bsz = 256
  private val spark = SparkEnv.session
  private val sparkF32 = spark.newSession()
  ReproFunctions.register(spark)
  ReproFunctions.register(sparkF32)

  private val lineitem = SynthData.lineitem(spark, w.sf, seed).cache()
  lineitem.createOrReplaceTempView("lineitem")
  val rows: Long = lineitem.count()
  private val floatCols = Set("l_quantity", "l_extendedprice", "l_discount", "l_tax")
  private val lineitemF = lineitem.select(lineitem.columns.toSeq.map(c =>
    if (floatCols(c)) col(c).cast(FloatType).as(c) else col(c)): _*).cache()
  private val F32View = "perfbench_lineitem_f32"
  lineitemF.createOrReplaceGlobalTempView(F32View)
  sparkF32.table(s"global_temp.$F32View").createOrReplaceTempView("lineitem")
  require(lineitemF.count() == rows)

  /** Q1's distinct aggregate inputs, as Spark computes them. */
  private val Inputs = Seq("l_quantity", "l_extendedprice", "l_extendedprice * (1 - l_discount)",
                           "l_extendedprice * (1 - l_discount) * (1 + l_tax)", "l_discount")

  /** Per group (ordered as Q1 orders them): the reference states of each
    * input, and the group's row count.
    */
  final class Q1Reference(session: SparkSession) {
    private val parts = SparkEnv.pullDoubles(session.sql(
      s"""SELECT CAST(ascii(l_returnflag) * 256 + ascii(l_linestatus) AS DOUBLE),
         |  ${Inputs.map(e => s"CAST($e AS DOUBLE)").mkString(", ")}
         |FROM lineitem WHERE l_shipdate <= DATE '${TpchQ1.Cutoff}'""".stripMargin))
    val codes: Array[Int] = parts.flatMap(_(0)).map(_.toInt)
    val groupCodes: Array[Int] = codes.distinct.sorted
    val group: Array[Int] = codes.map(java.util.Arrays.binarySearch(groupCodes, _))
    val cols: Array[Array[Double]] = Inputs.indices.map(c => parts.flatMap(_(c + 1))).toArray
    val nGroups: Int = groupCodes.length
    val partitions: Int = parts.length
    val partLengths: Array[Int] = parts.map(_(0).length)
    val count: Array[Long] = FlushModel.counts(group(_), 0, group.length, nGroups)
    val states: Array[Array[ReproDouble]] = cols.map { v =>
      val st = Array.fill(nGroups)(new ReproDouble(Levels))
      var i = 0
      while (i < v.length) { st(group(i)).add(v(i)); i += 1 }
      st
    }
    val sums: Array[Reference] = states.map(Reference.fromStates(_, count))

    /** The 7 floating-point columns of Q1 (2..8) for group `g`. */
    def expected(g: Int): Array[Double] = {
      val s = sums.map(_.value(g))
      Array(s(0), s(1), s(2), s(3), s(0) / count(g), s(1) / count(g), s(4) / count(g))
    }

    def check(out: Array[Row], exact: Boolean, what: String): Unit = {
      if (out.length != nGroups) throw new CheckFailed(s"$what: ${out.length} groups, expected $nGroups")
      val seen = new Array[Boolean](nGroups)
      for (r <- out) {
        val code = r.getString(0).charAt(0) * 256 + r.getString(1).charAt(0)
        val g = java.util.Arrays.binarySearch(groupCodes, code)
        if (g < 0 || seen(g)) throw new CheckFailed(s"$what: unexpected or repeated group $code")
        seen(g) = true
        if (r.getLong(9) != count(g)) throw new CheckFailed(s"$what: count_order ${r.getLong(9)} != ${count(g)}")
        val e = expected(g)
        for (c <- e.indices) {
          val v = r.getDouble(c + 2)
          val ok = if (exact) java.lang.Double.doubleToRawLongBits(v) == java.lang.Double.doubleToRawLongBits(e(c))
                   else math.abs(v - e(c)) <= Metrics.NativeRelTol * math.abs(e(c))
          if (!ok) throw new CheckFailed(s"$what: group $code column ${c + 2} is $v, expected ${e(c)}")
        }
      }
    }
  }

  val ref = new Q1Reference(spark)
  val refF = new Q1Reference(sparkF32)

  private def mode(name: String, q: () => DataFrame, r: Q1Reference, exact: Boolean) =
    new QueryMode(name, "tables", q, r.check(_, exact, name), r.partitions)

  private val reproBuf = mode("repro_buf", () => TpchQ1.reproBuffered(spark, Levels, Bsz), ref, exact = true)
  val modes: Seq[QueryMode] = Seq(
    mode("native", () => TpchQ1.double(spark), ref, exact = false),
    mode("repro", () => TpchQ1.reproNoBuffer(spark, Levels), ref, exact = true),
    reproBuf,
    mode("repro_buf_f32", () => TpchQ1.reproBuffered(sparkF32, Levels, Bsz), refF, exact = true),
  )

  def provenance: Map[String, Any] = Map(
    "rows" -> rows, "scale_factor" -> w.sf, "groups" -> ref.nGroups, "seed" -> seed,
    "rows_aggregated" -> ref.codes.length, "levels" -> Levels, "bsz" -> Bsz,
    "aggregate_operator" -> modes.map(m => m.name -> m.operators.mkString(",")).toMap,
  )

  def layerMetrics(spans: Seq[Span], ops: Int): (Map[String, Double], Int) = {
    val price = 1 // l_extendedprice: the core layer runs on one aggregate input
    val chunks = FlushModel.perPartition(ref.group(_), ref.partLengths, ref.nGroups, Bsz)
    val core = Layers.core(Levels, Bsz, ref.codes.length, ref.cols(price), chunks, ref.states(price))
    val byGroup = new ByGroup(ref.group(_), ref.group.length, ref.count)
    val sortedCols = ref.cols.map(byGroup.sort)
    val (adapter, mismatches) = Layers.sparkAdapter(Levels, Bsz, sortedCols, byGroup.offsets, ref.sums)
    (core ++ adapter ++ reproBuf.metrics(rows), mismatches)
  }

  override def close(): Unit = {
    lineitemF.unpersist(blocking = true)
    lineitem.unpersist(blocking = true)
    spark.catalog.dropTempView("lineitem")
    sparkF32.catalog.dropTempView("lineitem")
    spark.catalog.dropGlobalTempView(F32View)
  }
}
