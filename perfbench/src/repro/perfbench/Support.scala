package repro.perfbench

import java.lang.management.ManagementFactory

import scala.jdk.CollectionConverters._

import com.fasterxml.jackson.core.JsonGenerator
import com.fasterxml.jackson.databind.{JsonSerializer, ObjectMapper, SerializerProvider}
import com.fasterxml.jackson.databind.module.SimpleModule
import com.fasterxml.jackson.module.scala.DefaultScalaModule

/** Raised by a mode's output check; the operation counts as failed. */
final class CheckFailed(msg: String) extends RuntimeException(msg)

/** JVM counters read from the platform MXBeans. */
object Jvm {
  private val threads =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  /** CPU time of the calling thread, ns. */
  def cpuNs(): Long = threads.getCurrentThreadCpuTime

  /** Bytes allocated so far by the calling thread. */
  def threadAllocBytes(): Long = threads.getCurrentThreadAllocatedBytes

  /** Allocation counters of every live thread. */
  final class AllocSnapshot(val ids: Array[Long], val bytes: Array[Long])

  def allocSnapshot(): AllocSnapshot = {
    val ids = threads.getAllThreadIds
    new AllocSnapshot(ids, threads.getThreadAllocatedBytes(ids))
  }

  /** Bytes allocated since `before`, summed over the threads alive now.
    * Threads that started in between count in full; threads that ended in
    * between are lost, which is why the Spark workloads keep their task
    * threads alive across operations (they idle far less than the pool's
    * keep-alive).
    */
  def allocSince(before: AllocSnapshot): Long = {
    val prev = new java.util.HashMap[Long, Long](before.ids.length * 2)
    var i = 0
    while (i < before.ids.length) {
      if (before.bytes(i) >= 0) prev.put(before.ids(i), before.bytes(i))
      i += 1
    }
    val now = allocSnapshot()
    var sum = 0L
    i = 0
    while (i < now.ids.length) {
      val b = now.bytes(i)
      if (b >= 0) sum += b - prev.getOrDefault(now.ids(i), 0L)
      i += 1
    }
    sum
  }

  /** Accumulated collection time of every garbage collector, ms. */
  def gcMs(): Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).filter(_ >= 0).sum

  def inputArguments: Seq[String] = ManagementFactory.getRuntimeMXBean.getInputArguments.asScala.toSeq
}

object Stats {
  def median(xs: collection.Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** Nearest-rank percentile `p` (0 < p <= 100) of `xs`. */
  def percentile(xs: collection.Seq[Double], p: Double): Double = {
    val s = xs.sorted
    val rank = math.ceil(p / 100.0 * s.length).toInt
    s(math.max(0, math.min(s.length - 1, rank - 1)))
  }

  /** The highest of the usual reporting percentiles that still has at least
    * ten samples above it, or None when there are fewer than 20 samples.
    */
  def tailPercentile(n: Int): Option[Double] =
    Seq(99.0, 95.0, 90.0, 75.0, 50.0).find(p => n * (100.0 - p) / 100.0 >= 10.0)
}

/** JSON of the result lines and files, written by Jackson: Scala maps,
  * sequences and options included. Non-finite numbers become null.
  */
object Json {
  private val mapper = {
    val finiteOrNull = new SimpleModule().addSerializer(classOf[java.lang.Double],
      new JsonSerializer[java.lang.Double] {
        def serialize(d: java.lang.Double, g: JsonGenerator, p: SerializerProvider): Unit =
          if (d.isNaN || d.isInfinite) g.writeNull() else g.writeNumber(d.doubleValue)
      })
    new ObjectMapper().registerModule(DefaultScalaModule).registerModule(finiteOrNull)
  }

  def write(v: Any): String = mapper.writeValueAsString(v)
}
