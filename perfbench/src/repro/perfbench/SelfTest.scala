package repro.perfbench

import java.io.File

import scala.collection.immutable.VectorMap
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

import com.fasterxml.jackson.databind.ObjectMapper

/** The benchmark's own tests, on small inputs. Run through
  * `python3 perfbench/test_perfbench.py`; exits non-zero on a failure.
  *
  *   - the metric names and units a run prints match BENCHMARK.json, for
  *     every workload, untraced and traced;
  *   - self-time arithmetic over nested and overlapping spans;
  *   - non-finite numbers become null in the result JSON;
  *   - a deliberately wrong reference, injected here, raises the failed
  *     count of a run.
  */
object SelfTest {
  private val failures = ArrayBuffer.empty[String]

  private def check(cond: Boolean, what: => String): Unit =
    if (cond) println(s"ok   $what") else { println(s"FAIL $what"); failures += what }

  /** The four workloads at test size; same modes and layers as the real ones. */
  private val small: Seq[Workload] = Seq(
    Paa("paa-narrow", groupsLog2 = 10, rowsLog2 = 14),
    Paa("paa-wide", groupsLog2 = 16, rowsLog2 = 14),
    SparkWide(rowsLog2 = 14, keysLog2 = 10),
    TpchQ1Workload(sf = 0.001),
  )

  private def declared(json: String): (Seq[(String, String)], Seq[(String, String)], Seq[String]) = {
    val root = new ObjectMapper().readTree(new File(json))
    def metrics(k: String) = root.get(k).elements().asScala.map(m => m.get("name").asText -> m.get("unit").asText).toSeq
    (metrics("end_to_end"), metrics("per_layer"), root.get("workloads").elements().asScala.map(_.get("name").asText).toSeq)
  }

  def selfTime(): Unit = {
    def sp(id: Int, parent: Int, layer: String, a: Long, b: Long) = Span(id, parent, s"s$id", layer, a, b, 0L, 0L)
    val spans = Seq(
      sp(0, -1, "bench", 0, 100),
      sp(1, 0, "exec", 10, 50),  // overlaps sibling 3
      sp(2, 1, "core", 20, 30),  // grandchild: only its parent loses it
      sp(3, 0, "exec", 40, 70),
      sp(4, 0, "exec", 90, 120), // runs past its parent: clipped
    )
    val self = Tracer.selfNs(spans)
    check(self == Map(0 -> 30L, 1 -> 30L, 2 -> 10L, 3 -> 30L, 4 -> 30L), s"self time of nested spans: $self")
    check(Tracer.selfByLayer(spans) == Map("bench" -> 30L, "exec" -> 90L, "core" -> 10L), "self time by layer")

    val t = new Tracer
    t.span("outer", "bench") { t.span("inner", "exec") { t.span("leaf", "core")(()) } }
    val byName = t.spans.map(s => s.name -> s).toMap
    check(byName("leaf").parent == byName("inner").id && byName("inner").parent == byName("outer").id &&
          byName("outer").parent == -1, "recorded spans link to their parents")
    check(Tracer.selfNs(t.spans).values.forall(_ >= 0), "recorded self times are non-negative")
  }

  def json(): Unit = {
    val out = Json.write(VectorMap("nan" -> Double.NaN, "inf" -> Double.PositiveInfinity, "x" -> 1.5,
                                   "some" -> Some(2L), "none" -> None, "seq" -> Seq(1, "a")))
    check(out == """{"nan":null,"inf":null,"x":1.5,"some":2,"none":null,"seq":[1,"a"]}""", s"result JSON: $out")
  }

  def metricNames(json: String): Unit = {
    val (e2e, layers, workloads) = declared(json)
    check(e2e == Metrics.endToEnd, "end_to_end metrics of BENCHMARK.json match the program's")
    check(layers == Metrics.perLayer, "per_layer metrics of BENCHMARK.json match the program's")
    check(workloads == Workload.all.map(_.name), "workloads of BENCHMARK.json match the program's")
    for (w <- small) {
      val u = Runner.untraced(w, seed = 7, seconds = 0.3)
      check(u.metrics.map(m => m._1 -> m._3) == e2e, s"${w.name}: untraced run prints the end_to_end metrics")
      check(u.metrics.forall(m => m._2 > 0 && !m._2.isInfinite), s"${w.name}: end_to_end values are positive")
      check(u.correct, s"${w.name}: untraced run is correct (${u.info("errors")})")
      val t = Runner.traced(w, seed = 7, seconds = 0.3)
      check(t.metrics.map(m => m._1 -> m._3) == layers, s"${w.name}: traced run prints the per_layer metrics")
      check(t.metrics.forall(m => !m._2.isNaN && !m._2.isInfinite), s"${w.name}: per_layer values are finite")
      check(t.correct, s"${w.name}: traced run, replay and layer calls are correct (${t.info("errors")})")
    }
  }

  /** Flips the low bit of one group's expected sum after set-up. */
  private def wrongReference(w: Workload): Workload = new Workload {
    val name = w.name
    def prepare(seed: Long): Prepared = {
      val p = w.prepare(seed)
      val ref = p match {
        case x: PaaPrepared => x.ref
        case x: SparkWidePrepared => x.ref
        case other => throw new IllegalArgumentException(s"no reference to corrupt in $other")
      }
      val g = ref.present.indexWhere(identity)
      ref.bits(g) ^= 1L
      p
    }
  }

  def failFrac(): Unit =
    for (w <- Seq(small.head, small(2))) {
      val r = Runner.untraced(wrongReference(w), seed = 7, seconds = 0.3)
      val frac = r.info("fail_frac").asInstanceOf[Double]
      check(r.failed > 0 && frac > 0 && !r.correct, s"${w.name}: a wrong reference raises fail_frac (to $frac)")
      // native is checked with a tolerance, repro modes bit for bit
      val failedModes = r.info("errors").asInstanceOf[Seq[String]].map(_.takeWhile(_ != ':')).toSet
      check(Set("repro", "repro_buf").subsetOf(failedModes), s"${w.name}: every exact mode notices ($failedModes)")
    }

  def main(args: Array[String]): Unit = {
    val json = args.headOption.getOrElse("BENCHMARK.json")
    try {
      selfTime()
      this.json()
      metricNames(json)
      failFrac()
    } finally SparkEnv.stop()
    println(if (failures.isEmpty) "all self-tests passed" else s"${failures.size} self-test(s) failed")
    sys.exit(if (failures.isEmpty) 0 else 1)
  }
}
