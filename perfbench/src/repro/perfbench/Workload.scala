package repro.perfbench

import scala.collection.mutable.ArrayBuffer

import repro.core.ReproDouble

/** One way of computing a workload's GROUP BY SUM (`native`, `repro`,
  * `repro_buf` or `repro_buf_f32`).
  */
abstract class Mode[R](val name: String) {
  /** The timed operation. */
  def run(): R

  /** Throws [[CheckFailed]] when `out` is wrong. */
  def check(out: R): Unit

  /** The same operation with a span around each layer call. */
  def traced(t: Tracer): R
}

/** A workload's generated inputs, reference results and modes. */
trait Prepared extends AutoCloseable {
  /** Input rows one operation aggregates. */
  def rows: Long
  def modes: Seq[Mode[_]]
  def provenance: Map[String, Any]

  /** Per-layer metrics: layer calls made directly on the workload's data,
    * plus figures read off the traced `repro_buf` operations' spans. Layers
    * the workload does not run are left out. Also returns the number of
    * results of those direct calls that failed their check.
    */
  def layerMetrics(reproBufSpans: Seq[Span], tracedOps: Int): (Map[String, Double], Int)

  def close(): Unit = ()
}

trait Workload {
  def name: String
  def prepare(seed: Long): Prepared
}

object Workload {
  val all: Seq[Workload] = Seq(
    Paa("paa-narrow", groupsLog2 = 10),
    Paa("paa-wide", groupsLog2 = 20),
    new SparkWide(),
    new TpchQ1Workload(),
  )

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(throw new IllegalArgumentException(
      s"unknown workload '$name'; known: ${all.map(_.name).mkString(", ")}"))
}

/** Expected per-group results, indexed by dense group id. */
final class Reference(val present: Array[Boolean], val bits: Array[Long]) {
  val groups: Int = present.count(identity)

  def value(g: Int): Double = java.lang.Double.longBitsToDouble(bits(g))

  /** Checks one output group: bit-identical when `exact`, else within
    * [[Metrics.NativeRelTol]]. Throws [[CheckFailed]].
    */
  def checkValue(g: Int, v: Double, exact: Boolean, what: => String): Unit = {
    if (g < 0 || g >= present.length || !present(g)) throw new CheckFailed(s"$what: unexpected group $g")
    val ok =
      if (exact) java.lang.Double.doubleToRawLongBits(v) == bits(g)
      else math.abs(v - value(g)) <= Metrics.NativeRelTol * math.abs(value(g))
    if (!ok) throw new CheckFailed(s"$what: group $g is $v, expected ${value(g)}")
  }

  /** Checks a whole (group id, value) output: every group exactly once. */
  def checkAll(groupsOut: Int => Int, valuesOut: Int => Double, n: Int, exact: Boolean, what: String): Unit = {
    if (n != groups) throw new CheckFailed(s"$what: $n groups, expected $groups")
    val seen = new Array[Boolean](present.length)
    var i = 0
    while (i < n) {
      val g = groupsOut(i)
      checkValue(g, valuesOut(i), exact, what)
      if (seen(g)) throw new CheckFailed(s"$what: group $g twice")
      seen(g) = true
      i += 1
    }
  }
}

object Reference {
  def fromStates(states: Array[ReproDouble], count: Array[Long]): Reference =
    new Reference(count.map(_ > 0),
                  states.map(s => java.lang.Double.doubleToRawLongBits(s.value)))

  def fromValues(values: Array[Double], present: Array[Boolean]): Reference =
    new Reference(present, values.map(java.lang.Double.doubleToRawLongBits))
}

/** Rows sorted by group with a counting sort (stable): group `g` holds
  * positions `offsets(g) until offsets(g+1)`. Reference states are built
  * group by group from the sorted values, which keeps each state in cache;
  * the result does not depend on the order, which is what is checked.
  */
final class ByGroup(keys: Int => Int, n: Int, counts: Array[Long]) {
  val offsets: Array[Int] = counts.scanLeft(0L)(_ + _).map(_.toInt)

  def sort(values: Array[Double]): Array[Double] = {
    val out = new Array[Double](n)
    val next = offsets.clone()
    var i = 0
    while (i < n) { val g = keys(i); out(next(g)) = values(i); next(g) += 1; i += 1 }
    out
  }

  def sort(values: Array[Float]): Array[Float] = {
    val out = new Array[Float](n)
    val next = offsets.clone()
    var i = 0
    while (i < n) { val g = keys(i); out(next(g)) = values(i); next(g) += 1; i += 1 }
    out
  }

  def states(levels: Int, sorted: Array[Double]): Array[ReproDouble] =
    Array.tabulate(counts.length) { g =>
      val st = new ReproDouble(levels)
      var i = offsets(g)
      while (i < offsets(g + 1)) { st.add(sorted(i)); i += 1 }
      st
    }
}

/** Buffer-flush model: the chunk lengths a summation buffer of `bsz` slots
  * hands to `RsumBatchD.run` when the rows of each group arrive in one
  * buffer per (input partition, group): full chunks of `bsz`, then one
  * partial chunk at finalisation.
  */
object FlushModel {
  def chunks(counts: Iterator[Long], bsz: Int): Array[Int] = {
    val out = ArrayBuffer.empty[Int]
    for (c <- counts if c > 0) {
      var i = 0L
      while (i < c / bsz) { out += bsz; i += 1 }
      if (c % bsz > 0) out += (c % bsz).toInt
    }
    out.toArray
  }

  /** Chunks when each of `partLengths` consecutive input partitions keeps
    * its own buffer per group, as a Spark task does.
    */
  def perPartition(keys: Int => Int, partLengths: Array[Int], nGroups: Int, bsz: Int): Array[Int] = {
    val from = partLengths.scanLeft(0)(_ + _)
    chunks(partLengths.indices.iterator.flatMap(p => counts(keys, from(p), from(p + 1), nGroups).iterator), bsz)
  }

  /** Per-group counts of `keys(from until to)`, keys in [0, nGroups). */
  def counts(keys: Int => Int, from: Int, to: Int, nGroups: Int): Array[Long] = {
    val c = new Array[Long](nGroups)
    var i = from
    while (i < to) { c(keys(i)) += 1; i += 1 }
    c
  }
}
