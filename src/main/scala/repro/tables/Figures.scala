package repro.tables

import repro.SynthData
import repro.core.{FpF, ReproDouble, RsumBatchD, RsumD}
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

  def run(): Result = {
    import Timing._
    val g = 16
    val keys = SynthData.localUniformKeys(N, g, 501)
    val valsD = SynthData.localUniformValues(N, 502)
    val valsF = SynthData.toFloats(valsD)

    def t(kind: AggKind): Double = nsPerElement(N) {
      kind match {
        case AggKind.PlainF | AggKind.ReproF(_) | AggKind.BufF(_, _) =>
          PartitionAndAggregate.runF(keys, valsF, g, 0, kind, workers = 1)._2.sum
        case _ =>
          PartitionAndAggregate.run(keys, valsD, g, 0, kind, workers = 1)._2.sum
      }
    }

    val baseD = t(AggKind.PlainD)
    val baseF = t(AggKind.PlainF)
    val dec = t(AggKind.Dec64)
    val rows = Seq(
      Row("double", baseD, 1.0),
      Row("float", baseF, baseF / baseF),
      Row("DECIMAL(19)", dec, dec / baseD)) ++
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

  /** [[run]]'s levels, and unmeasured and measured runs per timing. */
  private final val Levels = 2
  private final val Warmup = 2
  private final val Reps = 5

  /** [[crossover]]'s chunk lengths, levels, input values, states, and
    * unmeasured and measured runs per timing.
    */
  private val CrossoverChunks = Seq(1, 2, 3, 4, 6, 8, 10, 12, 14, 16, 20, 24, 32)
  private val CrossoverLevels = Seq(2, 4)
  private final val CrossoverN = 1 << 18
  private final val CrossoverStates = 1024
  private final val CrossoverWarmup = 5
  private final val CrossoverReps = 9

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

  def run(): Result = {
    import Timing._
    val vals = SynthData.localUniformValues(N, 601)

    val convNs = nsPerElement(N, Warmup, Reps) {
      var acc = 0.0; var i = 0
      while (i < N) { acc += vals(i); i += 1 }
      acc
    }

    def scalarChunked(c: Int): Double = nsPerElement(N, Warmup, Reps) {
      // fresh state per chunk: mimics switching between groups
      var acc = 0.0
      var i = 0
      while (i < N) {
        val end = math.min(i + c, N)
        val st = new ReproDouble(Levels)
        while (i < end) { st.add(vals(i)); i += 1 }
        acc += st.value
      }
      acc
    }

    // The kernel itself, as `ReproDouble.addBatch` runs it at every length.
    def simdChunked(c: Int): Double = {
      val scratch = new RsumBatchD(Levels)
      nsPerElement(N, Warmup, Reps) {
        var acc = 0.0
        var i = 0
        while (i < N) {
          val len = math.min(c, N - i)
          val s = new Array[Double](Levels)
          val cs = new Array[Long](Levels)
          acc += RsumD.eval(s, cs, 0, Levels, scratch.run(vals, i, len, s, cs, 0, RsumD.EMPTY))
          i += len
        }
        acc
      }
    }

    val chunks = Seq(4, 12, 48, 128, 512, 4096)
    val rows = chunks.map(c => Row(c, scalarChunked(c) / convNs, simdChunked(c) / convNs))
    val inf = simdChunked(N) / convNs
    Result(rows, convNs, inf)
  }

  /** ns/value of the scalar `add` and of the batched kernel `run`, per
    * chunk length, for each column's precision and L.
    */
  final case class Crossover(chunks: Seq[Int], cols: Seq[(String, Int)], ns: Seq[Seq[(Double, Double)]]) {
    def render: String = {
      val sb = new StringBuilder
      sb ++= "Fig. 6 crossover: ns/value, scalar add / batched run\n"
      sb ++= f"${"chunk c"}%8s" + cols.map { case (p, l) => f" | ${s"$p L=$l"}%13s" }.mkString + "\n"
      chunks.indices.foreach { i =>
        sb ++= f"${chunks(i)}%8d" + ns(i).map { case (a, b) => f" | ${f"$a%.1f / $b%.1f"}%13s" }.mkString + "\n"
      }
      sb.result()
    }
  }

  /** The scalar/batched crossover: `CrossoverN` mixed-magnitude
    * values (doubles, or the same narrowed to float) added chunk by chunk
    * into `CrossoverStates` states taken round robin, through `RsumD.add`
    * one value at a time and through `RsumBatchD.run` one chunk at a time;
    * the median of `CrossoverReps` after `CrossoverWarmup` passes.
    */
  def crossover(): Crossover = {
    import Timing._
    val vd = SynthData.localMixedValues(CrossoverN, 602)
    val vf = SynthData.toFloats(vd)

    def nsD(c: Int, l: Int, batch: Boolean): Double = {
      val k = new RsumBatchD(l)
      nsPerElement(CrossoverN / c * c, CrossoverWarmup, CrossoverReps) {
        val (s, cs, e) = (new Array[Double](CrossoverStates * l), new Array[Long](CrossoverStates * l),
                          Array.fill(CrossoverStates)(RsumD.EMPTY))
        var i = 0; var st = 0
        while (i + c <= CrossoverN) {
          if (batch) e(st) = k.run(vd, i, c, s, cs, st * l, e(st))
          else { var j = i; while (j < i + c) { e(st) = RsumD.add(s, cs, st * l, l, e(st), vd(j)); j += 1 } }
          st = (st + 1) % CrossoverStates
          i += c
        }
        RsumD.eval(s, cs, 0, l, e(0))
      }
    }

    // Floats on float's grid: the same kernels, given float's grid.
    def nsF(c: Int, l: Int, batch: Boolean): Double = {
      val k = new RsumBatchD(l)
      nsPerElement(CrossoverN / c * c, CrossoverWarmup, CrossoverReps) {
        val (s, cs, e) = (new Array[Double](CrossoverStates * l), new Array[Long](CrossoverStates * l),
                          Array.fill(CrossoverStates)(RsumD.EMPTY))
        var i = 0; var st = 0
        while (i + c <= CrossoverN) {
          if (batch) e(st) = k.run(vf, i, c, s, cs, st * l, e(st))
          else { var j = i; while (j < i + c) { e(st) = RsumD.add(s, cs, st * l, l, e(st), vf(j), FpF.M, FpF.W, FpF.E1MIN, FpF.ELMIN); j += 1 } }
          st = (st + 1) % CrossoverStates
          i += c
        }
        RsumD.eval(s, cs, 0, l, e(0), FpF.M, FpF.W, FpF.ELMIN)
      }
    }

    val cols = for (p <- Seq("double", "float"); l <- CrossoverLevels) yield (p, l)
    val ns = CrossoverChunks.map(c => cols.map { case (p, l) =>
      if (p == "double") (nsD(c, l, false), nsD(c, l, true)) else (nsF(c, l, false), nsF(c, l, true))
    })
    Crossover(CrossoverChunks, cols, ns)
  }
}
