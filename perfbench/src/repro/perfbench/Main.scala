package repro.perfbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}

import scala.collection.immutable.VectorMap
import scala.collection.mutable.ArrayBuffer
import scala.util.control.NonFatal

/** One checked operation. */
final case class OpSample(mode: String, wallNs: Long, allocBytes: Long, gcMs: Long, failed: Boolean, traced: Boolean)

/** What a run prints and writes. */
final case class RunResult(metrics: Seq[(String, Double, String)], attempted: Int, failed: Int,
                           info: Map[String, Any], spans: Map[String, Seq[Span]]) {
  def correct: Boolean = failed == 0 && attempted > 0
}

/** Closed-loop runner: one client, the next operation starts when the
  * previous one has returned and been checked.
  */
object Runner {
  /** Set-ups per untraced run; setup_s is their median. */
  val SetupReps = 3

  /** Checked warm-up rounds over all modes at the end of each set-up. */
  val WarmupRounds = 1

  /** Further checked rounds after the last set-up, before the timed phase:
    * without them the first timed operations of the Spark workloads are
    * still up to 1.5x slower than the rest.
    */
  val SettleRounds = 3

  /** Runs `m` once and checks its output. A failed check or an exception
    * marks the operation failed; the message goes to `errors`.
    */
  def once[R](m: Mode[R], alloc: Boolean, tracer: Option[Tracer], errors: ArrayBuffer[String]): OpSample = {
    val a0 = if (alloc) Jvm.allocSnapshot() else null
    val g0 = Jvm.gcMs()
    val t0 = System.nanoTime()
    var out: Option[R] = None
    var failed = false
    try out = Some(tracer.fold(m.run())(m.traced))
    catch { case NonFatal(e) => failed = true; errors += s"${m.name}: $e" }
    // A traced operation is timed by its own span, without the bookkeeping
    // (metric collection, replay check) that follows it.
    val wall = tracer.filter(_ => !failed).flatMap(_.spans.lastOption).map(_.durNs)
      .getOrElse(System.nanoTime() - t0)
    val gc = Jvm.gcMs() - g0
    val allocBytes = if (alloc) Jvm.allocSince(a0) else 0L
    for (o <- out) {
      try m.check(o)
      catch { case NonFatal(e) => failed = true; errors += s"${m.name}: ${e.getMessage}" }
    }
    OpSample(m.name, wall, allocBytes, gc, failed, tracer.isDefined)
  }

  private def timing(samples: Seq[OpSample]): Map[String, Any] = {
    val ms = samples.map(_.wallNs / 1e6)
    val tail = Stats.tailPercentile(ms.length)
    Map("samples" -> ms.length, "median_ms" -> Stats.median(ms), "min_ms" -> ms.min, "mean_ms" -> ms.sum / ms.length,
        "tail_percentile" -> tail, "tail_ms" -> tail.map(Stats.percentile(ms, _)), "samples_ms" -> ms)
  }

  /** `timed` are the timed operations, `all` every checked one. */
  private def commonInfo(p: Prepared, timed: Seq[OpSample], all: Seq[OpSample], errors: Seq[String]): Map[String, Any] = {
    val byMode = timed.groupBy(_.mode)
    val failed = all.count(_.failed)
    Map(
      "workload" -> p.provenance,
      "spark" -> SparkEnv.provenance,
      "timings" -> byMode.map { case (m, s) => m -> timing(s.filter(!_.traced)) },
      "overhead_x" -> (for (b <- byMode.get("repro_buf"); n <- byMode.get("native"))
        yield Stats.median(b.filter(!_.traced).map(_.wallNs.toDouble)) /
              Stats.median(n.filter(!_.traced).map(_.wallNs.toDouble))),
      "fail_frac" -> failed.toDouble / math.max(1, all.length),
      "errors" -> errors.take(10),
    )
  }

  /** The untraced run: [[SetupReps]] set-ups, each ending with
    * [[WarmupRounds]] checked operations per mode, then [[SettleRounds]]
    * more, then round-robin over the modes for `seconds`. Every checked
    * operation, warm-up included, counts towards attempted/failed.
    */
  def untraced(w: Workload, seed: Long, seconds: Double): RunResult = {
    val errors = ArrayBuffer.empty[String]
    val warm = ArrayBuffer.empty[OpSample]
    val setupS = ArrayBuffer.empty[Double]
    var p: Prepared = null
    for (_ <- 1 to SetupReps) {
      if (p != null) { p.close(); p = null }
      val t0 = System.nanoTime()
      p = w.prepare(seed)
      for (_ <- 1 to WarmupRounds; m <- p.modes) warm += once(m, alloc = false, None, errors)
      setupS += (System.nanoTime() - t0) / 1e9
    }
    for (_ <- 1 to SettleRounds; m <- p.modes) warm += once(m, alloc = false, None, errors)
    val samples = ArrayBuffer.empty[OpSample]
    val deadline = System.nanoTime() + (seconds * 1e9).toLong
    while (System.nanoTime() < deadline)
      for (m <- p.modes) samples += once(m, alloc = m.name == "repro_buf", None, errors)

    // Rows per second of wall time: all rows of a mode over all its time.
    val meanNs = samples.groupBy(_.mode).map { case (m, s) => m -> s.map(_.wallNs.toDouble).sum / s.length }
    val bufAlloc = Stats.median(samples.filter(_.mode == "repro_buf").map(_.allocBytes.toDouble))
    val metrics = Metrics.endToEnd.map {
      case (n @ "alloc_bytes_per_row", u) => (n, bufAlloc / p.rows, u)
      case (n @ "setup_s", u) => (n, Stats.median(setupS), u)
      case (n, u) => (n, p.rows * 1e3 / meanNs(n.stripSuffix("_mrows_per_s")), u)
    }
    val all = (warm ++ samples).toSeq
    val info = commonInfo(p, samples.toSeq, all, errors.toSeq) ++ Map("setup_s_samples" -> setupS.toSeq,
      "warmup_ms" -> warm.groupBy(_.mode).map { case (m, s) => m -> s.map(_.wallNs / 1e6).toSeq })
    p.close()
    RunResult(metrics, all.length, all.count(_.failed), info, Map.empty)
  }

  /** The traced run: one set-up, a warm-up round of untraced and traced
    * operations (the first traced one per mode also runs the replay check),
    * then for `seconds` each mode alternately untraced and traced. Then the
    * per-layer calls of the workload.
    */
  def traced(w: Workload, seed: Long, seconds: Double): RunResult = {
    val errors = ArrayBuffer.empty[String]
    val p = w.prepare(seed)
    val warm = ArrayBuffer.empty[OpSample]
    for (m <- p.modes) {
      warm += once(m, alloc = false, None, errors)
      warm += once(m, alloc = false, Some(new Tracer), errors)
    }
    val tracers = p.modes.map(m => m.name -> new Tracer).toMap
    val samples = ArrayBuffer.empty[OpSample]
    val deadline = System.nanoTime() + (seconds * 1e9).toLong
    while (System.nanoTime() < deadline)
      for (m <- p.modes) {
        samples += once(m, alloc = false, None, errors)
        samples += once(m, alloc = false, Some(tracers(m.name)), errors)
      }

    val buf = samples.filter(_.mode == "repro_buf")
    val (untracedBuf, tracedBuf) = buf.partition(!_.traced)
    val spans = tracers("repro_buf").spans
    val ops = tracedBuf.length
    val (layers, layerFailures) = p.layerMetrics(spans, ops)
    if (layerFailures > 0) errors += s"$layerFailures per-layer results differ from the reference"
    val self = Tracer.selfByLayer(spans)
    val measured = layers ++ Map(
      "jvm.gc_ms" -> buf.map(_.gcMs.toDouble).sum / buf.length,
      "trace.overhead_frac" -> (Stats.median(tracedBuf.map(_.wallNs.toDouble)) /
                                Stats.median(untracedBuf.map(_.wallNs.toDouble)) - 1.0),
    ) ++ Seq("bench", "exec", "spark", "tables").map(l => s"self.${l}_ms_per_op" -> self.getOrElse(l, 0L) / 1e6 / ops)
    val metrics = Metrics.perLayer.map { case (n, u) => (n, measured.getOrElse(n, 0.0), u) }
    val all = (warm ++ samples).toSeq
    val info = commonInfo(p, samples.toSeq, all, errors.toSeq) ++ Map(
      "not_measured" -> Metrics.perLayer.map(_._1).filterNot(measured.contains),
      "traced_timings" -> samples.groupBy(_.mode).map { case (m, s) => m -> timing(s.filter(_.traced).toSeq) },
      "layer_check_failures" -> layerFailures)
    p.close()
    RunResult(metrics, all.length + (if (layerFailures > 0) 1 else 0),
              all.count(_.failed) + (if (layerFailures > 0) 1 else 0), info, tracers.map { case (m, t) => m -> t.spans })
  }
}

/** Command line: `--workload <name> --seed <n> --seconds <s> --trace <0|1>
  * --out <result file>`. Prints one line per metric, then the result as
  * one JSON object on the last line.
  */
object Main {
  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def opt(k: String) = opts.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val workload = Workload.byName(opt("workload"))
    val seed = opt("seed").toLong
    val seconds = opt("seconds").toDouble
    val out = opt("out")
    val trace = opt("trace") match {
      case "0" => false
      case "1" => true
      case t => throw new IllegalArgumentException(s"--trace must be 0 or 1, got $t")
    }
    val code =
      try {
        val r = if (trace) Runner.traced(workload, seed, seconds) else Runner.untraced(workload, seed, seconds)
        report(r, workload.name, seed, seconds, trace, out)
        0
      } catch { case NonFatal(e) => e.printStackTrace(); 1 }
      finally SparkEnv.stop()
    sys.exit(code)
  }

  private def machine: Map[String, Any] = Map(
    "git_sha" -> sys.props.get("perfbench.gitSha"),
    "source_digest" -> sys.props.get("perfbench.sourceDigest"),
    "java_version" -> sys.props("java.version"),
    "java_vm" -> sys.props("java.vm.name"),
    "jvm_flags" -> Jvm.inputArguments.filterNot(_.startsWith("-Dperfbench.")),
    "nproc" -> Runtime.getRuntime.availableProcessors,
    "heap_max_bytes" -> Runtime.getRuntime.maxMemory,
    "l2_bytes" -> sys.props.get("perfbench.l2Bytes").map(_.toLong),
    "l3_bytes" -> sys.props.get("perfbench.l3Bytes").map(_.toLong),
  )

  def report(r: RunResult, workload: String, seed: Long, seconds: Double, trace: Boolean,
             out: String): Unit = {
    val run = Map("workload" -> workload, "seed" -> seed, "seconds" -> seconds, "trace" -> trace)
    val timings = r.info("timings").asInstanceOf[Map[String, Map[String, Any]]]
    for ((m, t) <- timings.toSeq.sortBy(_._1)) {
      val tail = t("tail_percentile").asInstanceOf[Option[Double]]
        .map(p => f"p${p}%.0f ${t("tail_ms").asInstanceOf[Option[Double]].get}%.3f ms")
        .getOrElse("no percentile with 10 samples above it")
      println(f"timing $m: median ${t("median_ms").asInstanceOf[Double]}%.3f ms, $tail, min ${t("min_ms").asInstanceOf[Double]}%.3f ms, mean ${t("mean_ms").asInstanceOf[Double]}%.3f ms, ${t("samples")} samples")
    }
    for (x <- r.info("overhead_x").asInstanceOf[Option[Double]]) println(f"overhead_x (repro_buf / native median time): $x%.3f")
    println(s"fail_frac: ${r.failed} of ${r.attempted} checked operations failed")
    for (e <- r.info("errors").asInstanceOf[Seq[String]]) println(s"error: $e")
    for ((n, v, u) <- r.metrics) println(s"metric $n = $v $u")
    val metrics = VectorMap.from(r.metrics.map { case (n, v, u) => n -> Map("value" -> v, "unit" -> u) })
    val doc = Map(
      "run" -> run, "machine" -> machine, "correct" -> r.correct, "attempted" -> r.attempted,
      "failed" -> r.failed, "metrics" -> metrics) ++ r.info ++
      (if (r.spans.isEmpty) Map.empty
       else Map("span_fields" -> Seq("id", "parent", "name", "layer", "start_ns", "end_ns", "cpu_ns", "alloc_bytes"),
                "spans" -> r.spans.map { case (m, ss) =>
                  m -> ss.map(s => Seq(s.id, s.parent, s.name, s.layer, s.startNs, s.endNs, s.cpuNs, s.allocBytes)) }))
    Files.createDirectories(Paths.get(out).toAbsolutePath.getParent)
    Files.write(Paths.get(out), Json.write(doc).getBytes(StandardCharsets.UTF_8))
    println(s"result file: $out")
    println(Json.write(Map("correct" -> r.correct, "attempted" -> r.attempted, "failed" -> r.failed,
                           "metrics" -> metrics)))
  }
}
