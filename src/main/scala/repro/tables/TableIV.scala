package repro.tables

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.SynthData
import repro.spark.ReproFunctions

/** Table IV (paper §VI-E): end-to-end CPU time of TPC-H Query 1 (DECIMAL
  * columns replaced by DOUBLE) relative to the unmodified engine, for
  * four configurations: native doubles, `repro<double,4>` without and with
  * summation buffers, and sorted-input doubles.
  *
  * Engine substitution: the paper integrates into MonetDB v11.25.23; we
  * integrate at the same architectural place in Spark SQL (the aggregate
  * function executed by the aggregation operator, injected via the
  * function registry) and measure the same end-to-end ratio. The
  * "Aggregations" vs "Other" split is obtained by also timing Q1 with the
  * floating-point aggregates replaced by `count(*)` — a proxy for the
  * scan/filter/grouping work ("Other"); Aggregations = total − Other.
  * Times are wall-clock of the executed query on a warmed cache (the
  * paper reports CPU time; on an otherwise idle machine with a fixed
  * parallelism the two are proportional).
  */
object TableIV {

  final case class Variant(name: String, total: Double, agg: Double, other: Double)
  final case class Result(variants: Seq[Variant], otherNsAbs: Double, doubleTotalNs: Double) {
    def render(paper: Map[String, (Double, Double, Double)]): String = {
      val sb = new StringBuilder
      sb ++= "Table IV: TPC-H Q1 CPU time relative to built-in doubles (total double = 100)\n"
      sb ++= f"${"variant"}%-26s | ${"paper agg"}%9s | ${"our agg"}%8s | ${"paper other"}%11s | ${"our other"}%9s | ${"paper total"}%11s | ${"our total"}%9s\n"
      sb ++= "-" * 104 + "\n"
      for (v <- variants) {
        val (pa, po, pt) = paper.getOrElse(v.name, (Double.NaN, Double.NaN, Double.NaN))
        def f(x: Double) = if (x.isNaN) "      —" else f"$x%7.1f"
        sb ++= f"${v.name}%-26s | ${f(pa)}%9s | ${f(v.agg)}%8s | ${f(po)}%11s | ${f(v.other)}%9s | ${f(pt)}%11s | ${f(v.total)}%9s\n"
      }
      sb.result()
    }
  }

  /** Paper's Table IV: (Aggregations, Other, Total) per variant. */
  val PaperValues: Map[String, (Double, Double, Double)] = Map(
    "double"                  -> (34.2, 65.8, 100.0),
    "repro<d,4> no buffer"    -> (51.3, 63.1, 114.4),
    "repro<d,4> with buffer"  -> (38.7, 64.0, 102.7),
    "double (sorted)"         -> (45.1, 682.1, 727.2))

  /** Scale factor, levels and buffer size of the repro variants, and
    * unmeasured and measured rounds.
    */
  private final val Sf = 0.1
  private final val Levels = 4
  private final val Bsz = 256
  private final val Warmup = 3
  private final val Reps = 7

  def run(spark: SparkSession): Result = {
    ReproFunctions.register(spark)
    val lineitem = SynthData.lineitem(spark, Sf).cache()
    lineitem.createOrReplaceTempView("lineitem")
    lineitem.count() // materialize the cache
    TpchQ1.registerSorted(spark)

    // Round-robin measurement: every warmup/measurement round executes all
    // queries once, so JIT/cache warmup is not attributed to whichever
    // query happens to run first. The per-variant median is reported.
    val thunks: Seq[(String, () => Unit)] = Seq(
      "other"    -> (() => { TpchQ1.otherOnly(spark).collect(); () }),
      "double"   -> (() => { TpchQ1.double(spark).collect(); () }),
      "noBuffer" -> (() => { TpchQ1.reproNoBuffer(spark, Levels).collect(); () }),
      "buffered" -> (() => { TpchQ1.reproBuffered(spark, Levels, Bsz).collect(); () }),
      // the sorted baseline pays the sort on every execution (that is the
      // point: reproducibility via ordering is paid per query)
      "sorted"   -> (() => {
        TpchQ1.registerSorted(spark)
        TpchQ1.sortedDouble(spark).collect(); ()
      }))

    for (_ <- 1 to Warmup; (_, t) <- thunks) t()
    val samples = Map(thunks.map { case (n, _) => n -> new Array[Long](Reps) }: _*)
    for (r <- 0 until Reps; (n, t) <- thunks) {
      val t0 = System.nanoTime()
      t()
      samples(n)(r) = System.nanoTime() - t0
    }
    def med(n: String): Double = {
      val a = samples(n).clone(); java.util.Arrays.sort(a); a(Reps / 2).toDouble
    }

    val tOther    = med("other")
    val tDouble   = med("double")
    val tNoBuf    = med("noBuffer")
    val tBuffered = med("buffered")
    val tSorted   = med("sorted")

    lineitem.unpersist()

    val unit = tDouble / 100.0 // "relative to total CPU time on built-in doubles in %"
    def variant(name: String, total: Double, other: Double) =
      Variant(name, total / unit, (total - other) / unit, other / unit)

    // For the sorted variant, Spark's optimizer eliminates the sort under a
    // count-only aggregate, so the count proxy cannot capture its "Other";
    // its aggregation work is identical to the double variant's (native
    // sums), so: agg(sorted) := agg(double), other := total - agg.
    val aggDouble = tDouble - tOther
    Result(
      Seq(
        variant("double", tDouble, tOther),
        variant("repro<d,4> no buffer", tNoBuf, tOther),
        variant("repro<d,4> with buffer", tBuffered, tOther),
        variant("double (sorted)", tSorted, tSorted - aggDouble)),
      tOther, tDouble)
  }
}
