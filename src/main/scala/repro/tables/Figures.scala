package repro.tables

import repro.SynthData
import repro.core.{ReproDouble, RsumBatchD, RsumD}
import repro.exec.{AggKind, PartitionAndAggregate}

/** Fig. 4 (paper §IV): HASHAGGREGATION at 16 groups with the unbuffered
  * `repro<ScalarT,L>` drop-in types is 4x-12x slower than with built-in
  * scalars (growing with L, float ≈ double because the repro arithmetic is
  * compute-bound). 16 groups keeps everything in cache so the measurement
  * isolates the data type itself.
  */
object Fig4 {

  final case class Row(name: String, nsPerElement: Double, slowdown: Double)
  final case class Result(rows: Seq[Row]) {
    def render: String = {
      val sb = new StringBuilder
      sb ++= "Fig. 4: HashAggregation with 16 groups — slowdown of unbuffered repro types\n"
      sb ++= f"${"data type"}%-18s | ${"ns/element"}%10s | ${"slowdown vs builtin"}%19s\n"
      sb ++= "-" * 55 + "\n"
      rows.foreach(r => sb ++= f"${r.name}%-18s | ${r.nsPerElement}%10.2f | ${r.slowdown}%19.2f\n")
      sb.result()
    }
  }

  def run(n: Int = 1 << 22, warmup: Int = 1, reps: Int = 3): Result = {
    import Timing._
    val g = 16
    val keys = SynthData.localUniformKeys(n, g, 501)
    val valsD = SynthData.localUniformValues(n, 502)
    val valsF = SynthData.toFloats(valsD)

    def t(kind: AggKind): Double = nsPerElement(n, warmup, reps) {
      kind match {
        case AggKind.PlainF | AggKind.ReproF(_) | AggKind.BufF(_, _) =>
          PartitionAndAggregate.runF(keys, valsF, g, 0, kind)._2.sum
        case _ =>
          PartitionAndAggregate.run(keys, valsD, g, 0, kind)._2.sum
      }
    }

    val baseD = t(AggKind.PlainD)
    val baseF = t(AggKind.PlainF)
    val rows = Seq(
      Row("double", baseD, 1.0),
      Row("float", baseF, baseF / baseF),
      Row("DECIMAL(19)", t(AggKind.Dec64), t(AggKind.Dec64) / baseD)) ++
      (1 to 4).map { l => val x = t(AggKind.ReproD(l)); Row(s"repro<double,$l>", x, x / baseD) } ++
      (1 to 4).map { l => val x = t(AggKind.ReproF(l)); Row(s"repro<float,$l>", x, x / baseF) }
    Result(rows)
  }
}

/** Fig. 6 (paper §VI-B2): relative performance of the RSUM variants when
  * called on chunks of c values (mimicking how aggregation switches between
  * groups). SCALAR wins for tiny chunks, SIMD (batched) wins from c ≈ 2^4..
  * 2^6, and by c ≈ 2^9 the batched kernel approaches its single-call
  * throughput.
  */
object Fig6 {

  final case class Row(chunk: Int, scalarSlowdown: Double, simdSlowdown: Double)
  final case class Result(rows: Seq[Row], convNs: Double, simdInfSlowdown: Double) {
    def render: String = {
      val sb = new StringBuilder
      sb ++= "Fig. 6: RSUM (L=2, double) slowdown vs conventional sum, by chunk size\n"
      sb ++= f"${"chunk c"}%8s | ${"scalar/conv"}%11s | ${"simd/conv"}%9s\n"
      sb ++= "-" * 36 + "\n"
      rows.foreach(r => sb ++= f"${r.chunk}%8d | ${r.scalarSlowdown}%11.2f | ${r.simdSlowdown}%9.2f\n")
      sb ++= f"${"c = inf"}%8s | ${"—"}%11s | ${simdInfSlowdown}%9.2f\n"
      sb.result()
    }
  }

  def run(n: Int = 1 << 22, levels: Int = 2, warmup: Int = 2, reps: Int = 5): Result = {
    import Timing._
    val vals = SynthData.localUniformValues(n, 601)

    val convNs = nsPerElement(n, warmup, reps) {
      var acc = 0.0; var i = 0
      while (i < n) { acc += vals(i); i += 1 }
      acc
    }

    def scalarChunked(c: Int): Double = nsPerElement(n, warmup, reps) {
      // fresh state per chunk: mimics switching between groups
      var acc = 0.0
      var i = 0
      while (i < n) {
        val end = math.min(i + c, n)
        val st = new ReproDouble(levels)
        while (i < end) { st.add(vals(i)); i += 1 }
        acc += st.value
      }
      acc
    }

    // The kernel itself: `ReproDouble.addBatch` takes the scalar path below
    // this crossover (FpD.BatchMin).
    def simdChunked(c: Int): Double = {
      val scratch = new RsumBatchD(levels)
      nsPerElement(n, warmup, reps) {
        var acc = 0.0
        var i = 0
        while (i < n) {
          val len = math.min(c, n - i)
          val s = new Array[Double](levels)
          val cs = new Array[Long](levels)
          acc += RsumD.eval(s, cs, 0, levels, scratch.run(vals, i, len, s, cs, 0, RsumD.EMPTY))
          i += len
        }
        acc
      }
    }

    val chunks = Seq(4, 12, 48, 128, 512, 4096)
    val rows = chunks.map(c => Row(c, scalarChunked(c) / convNs, simdChunked(c) / convNs))
    val inf = simdChunked(n) / convNs
    Result(rows, convNs, inf)
  }
}
