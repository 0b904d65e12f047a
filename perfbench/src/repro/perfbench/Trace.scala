package repro.perfbench

import scala.collection.mutable.ArrayBuffer

/** One traced interval. `layer` names the repo module whose call the span
  * wraps (`core`, `exec`, `spark`, `tables`), or `bench` for the benchmark's
  * own glue. `parent` is the id of the enclosing span, -1 at the top.
  * `cpuNs` and `allocBytes` are the calling thread's CPU time and
  * allocation during the span (0 for spans recorded after the fact).
  */
final case class Span(id: Int, parent: Int, name: String, layer: String,
                      startNs: Long, endNs: Long, cpuNs: Long, allocBytes: Long) {
  def durNs: Long = endNs - startNs
}

/** In-memory span recorder for the traced run. Spans are opened and closed
  * from the benchmark's own code around calls into each layer; nothing is
  * written until the run ends. Single-threaded: spans record the calling
  * thread's counters.
  */
final class Tracer {
  private val buf = ArrayBuffer.empty[Span]
  private var stack: List[Int] = Nil
  private var nextId = 0

  def spans: Seq[Span] = buf.toSeq
  def current: Int = stack.headOption.getOrElse(-1)

  def span[T](name: String, layer: String)(body: => T): T = {
    val id = nextId
    nextId += 1
    val parent = current
    stack = id :: stack
    val a0 = Jvm.threadAllocBytes()
    val c0 = Jvm.cpuNs()
    val t0 = System.nanoTime()
    try body
    finally {
      val t1 = System.nanoTime()
      val c1 = Jvm.cpuNs()
      val a1 = Jvm.threadAllocBytes()
      stack = stack.tail
      buf += Span(id, parent, name, layer, t0, t1, c1 - c0, a1 - a0)
    }
  }

  /** Record an interval measured elsewhere (e.g. Spark's planning phases)
    * as a child of the innermost open span.
    */
  def record(name: String, layer: String, startNs: Long, endNs: Long): Unit = {
    buf += Span(nextId, current, name, layer, startNs, endNs, 0L, 0L)
    nextId += 1
  }
}

object Tracer {

  /** Self time of each span: its duration minus the part of its interval
    * that its direct children cover. Children are clipped to the parent
    * and overlapping children are counted once.
    */
  def selfNs(spans: Seq[Span]): Map[Int, Long] = {
    val children = spans.groupBy(_.parent)
    spans.map { s =>
      val iv = children.getOrElse(s.id, Nil)
        .map(c => (math.max(c.startNs, s.startNs), math.min(c.endNs, s.endNs)))
        .filter { case (a, b) => b > a }
        .sortBy(_._1)
      var covered = 0L
      var curA = Long.MinValue
      var curB = Long.MinValue
      for ((a, b) <- iv) {
        if (a > curB) {
          if (curB > curA) covered += curB - curA
          curA = a; curB = b
        } else if (b > curB) curB = b
      }
      if (curB > curA) covered += curB - curA
      s.id -> (s.durNs - covered)
    }.toMap
  }

  /** Total self time per layer. */
  def selfByLayer(spans: Seq[Span]): Map[String, Long] = {
    val self = selfNs(spans)
    spans.groupBy(_.layer).map { case (l, ss) => l -> ss.map(s => self(s.id)).sum }
  }
}
