package repro.spark

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.execution.aggregate.ObjectHashAggregateExec
import org.apache.spark.sql.functions._
import repro.{FullDomain, Oracle, SparkSpec, SynthData}
import repro.core.{BufferedReproDouble, ReproDouble, ReproSlotsD}
import repro.core.ExactSum.bits
import scala.util.Random

class ReproSumSparkSpec extends SparkSpec with AdaptiveSparkPlanHelper {

  private lazy val init: Unit = ReproFunctions.register(spark)

  private def pairsDf(n: Int, g: Int, seed: Long, mixed: Boolean = false): DataFrame = {
    import spark.implicits._
    val keys = SynthData.localUniformKeys(n, g, seed)
    val vals = if (mixed) SynthData.localMixedValues(n, seed + 1)
               else SynthData.localUniformKeys(n, 1000, seed + 1).map(_ / 1000.0)
    keys.zip(vals).toSeq.toDF("k", "v")
  }

  private def sumsByKey(df: DataFrame, aggExpr: String): Map[Int, Long] =
    df.createOrReplaceTempView("t") match {
      case _ =>
        spark.sql(s"SELECT k, $aggExpr AS s FROM t GROUP BY k")
          .collect()
          .map(r => r.getInt(0) -> bits(r.getDouble(1)))
          .toMap
    }

  // ------------------------------------------------------------ correctness

  test("rsum matches native sum within tolerance on a grouped query") {
    init
    val df = pairsDf(20000, 50, 1001)
    df.createOrReplaceTempView("t")
    val rows = spark.sql(
      "SELECT k, sum(v) AS s, rsum(v, 2) AS r, rsum_buffered(v, 2, 64) AS rb FROM t GROUP BY k")
      .collect()
    assert(rows.length == 50)
    rows.foreach { r =>
      assert(math.abs(r.getDouble(1) - r.getDouble(2)) < 1e-8, s"key ${r.getInt(0)}")
      assert(math.abs(r.getDouble(1) - r.getDouble(3)) < 1e-8, s"key ${r.getInt(0)}")
    }
  }

  test("rsum(v, 1) matches native sum to L=1 accuracy (Table II: large L=1 bound)") {
    init
    val df = pairsDf(5000, 20, 1101)
    df.createOrReplaceTempView("t")
    val rows = spark.sql("SELECT k, sum(v) AS s, rsum(v, 1) AS r FROM t GROUP BY k").collect()
    rows.foreach { r =>
      // per-value truncation at level 1 is ~2^-13 of the extractor here
      assert(math.abs(r.getDouble(1) - r.getDouble(2)) < (5000.0 / 20) * math.pow(2, -12))
    }
  }

  for (l <- 2 to 4) {
    test(s"rsum(v, $l) grouped query matches the DuckDB oracle (rounded)") {
      init
      val df = pairsDf(5000, 20, 1100 + l)
      df.createOrReplaceTempView("t")
      val got = spark.sql(s"SELECT k, round(rsum(v, $l), 3) AS s FROM t GROUP BY k")
      Oracle.assertEquivalent(got,
        "SELECT k, round(sum(CAST(v AS DOUBLE)), 3) AS s FROM t GROUP BY k",
        "t" -> df)
    }
  }

  test("rsum_buffered grouped query matches the DuckDB oracle (rounded)") {
    init
    val df = pairsDf(5000, 20, 1201)
    df.createOrReplaceTempView("t")
    val got = spark.sql("SELECT k, round(rsum_buffered(v, 2, 128), 3) AS s FROM t GROUP BY k")
    Oracle.assertEquivalent(got,
      "SELECT k, round(sum(CAST(v AS DOUBLE)), 3) AS s FROM t GROUP BY k",
      "t" -> df)
  }

  test("rsum ungrouped (whole-table) aggregation") {
    init
    val df = pairsDf(10000, 7, 1301)
    df.createOrReplaceTempView("t")
    val got = spark.sql("SELECT rsum(v, 2) AS s FROM t").collect()(0).getDouble(0)
    val exp = df.agg(sum("v")).collect()(0).getDouble(0)
    assert(math.abs(got - exp) < 1e-8)
  }

  test("rsum default levels and argument validation") {
    init
    val df = pairsDf(100, 5, 1401)
    df.createOrReplaceTempView("t")
    assert(spark.sql("SELECT rsum(v) AS s FROM t").collect()(0).getDouble(0) > 0)
    intercept[Exception] { spark.sql("SELECT rsum(v, 99) FROM t").collect() }
    intercept[Exception] { spark.sql("SELECT rsum() FROM t").collect() }
    val l2 = spark.sql("SELECT rsum(v, 2) FROM t").collect()(0).getDouble(0)
    for (ok <- Seq("2Y", "2S", "CAST(2 AS BIGINT)"))
      assert(bits(spark.sql(s"SELECT rsum(v, $ok) FROM t").collect()(0).getDouble(0)) == bits(l2), ok)
    // fractional, out of Int range, NULL and string literals are refused,
    // not truncated, wrapped or cast
    for (bad <- Seq("2.7D", "4294967298", "NULL", "'2'", "2.0")) {
      val e = intercept[IllegalArgumentException] { spark.sql(s"SELECT rsum(v, $bad) FROM t").collect() }
      assert(e.getMessage.contains("rsum levels"), bad)
      val eb = intercept[IllegalArgumentException] {
        spark.sql(s"SELECT rsum_buffered(v, 2, $bad) FROM t").collect()
      }
      assert(eb.getMessage.contains("rsum buffer size"), bad)
    }
  }

  test("rsum coerces integer and float inputs") {
    init
    import spark.implicits._
    Seq((1, 10, 1.5f), (1, 20, 2.5f), (2, 30, 3.5f)).toDF("k", "i", "f")
      .createOrReplaceTempView("coerce")
    val rows = spark.sql(
      "SELECT k, rsum(i) AS si, rsum(f) AS sf FROM coerce GROUP BY k ORDER BY k").collect()
    assert(rows(0).getDouble(1) == 30.0 && rows(0).getDouble(2) == 4.0)
    assert(rows(1).getDouble(1) == 30.0 && rows(1).getDouble(2) == 3.5)
  }

  test("an rsum group's state holds one ReproSlotsD and no ReproDouble or nested BufferedReproDouble") {
    def fieldTypes(c: Class[_]): Seq[Class[_]] =
      if (c == null) Nil
      else c.getDeclaredFields.toSeq.filterNot(f => java.lang.reflect.Modifier.isStatic(f.getModifiers))
        .map(_.getType) ++ fieldTypes(c.getSuperclass)
    val types = fieldTypes(classOf[ReproSumState])
    assert(types.count(_ == classOf[ReproSlotsD]) == 1, types)
    assert(!types.exists(t => t == classOf[ReproDouble] || classOf[BufferedReproDouble].isAssignableFrom(t)), types)
  }

  // ---------------------------------------------------------- SQL semantics

  test("rsum ignores NULLs and returns NULL for empty groups (like SUM)") {
    init
    import spark.implicits._
    val df = Seq[(Int, Option[Double])](
      (1, Some(1.0)), (1, None), (1, Some(2.0)), (2, None), (2, None))
      .toDF("k", "v")
    df.createOrReplaceTempView("nulls")
    val rows = spark.sql(
      "SELECT k, sum(v) AS s, rsum(v, 2) AS r FROM nulls GROUP BY k ORDER BY k").collect()
    assert(rows(0).getDouble(1) == 3.0 && rows(0).getDouble(2) == 3.0)
    assert(rows(1).isNullAt(1) && rows(1).isNullAt(2))
  }

  test("rsum and rsum_buffered return 0.0, not NULL, for a group of only zeros and NULLs") {
    init
    import spark.implicits._
    // RSUM ignores zeros, so only the row count tells groups 1 and 2 from
    // the empty group 3.
    val df = Seq[(Int, Option[Double])](
      (1, Some(0.0)), (1, None), (1, Some(-0.0)), (2, Some(-0.0)), (3, None), (3, None), (4, Some(1.5)))
      .toDF("k", "v").cache()
    df.count()
    for (p <- Seq(1, 7); agg <- Seq("rsum(v, 2)", "rsum_buffered(v, 2, 16)")) {
      df.repartition(p).createOrReplaceTempView("zeros")
      val rows = spark.sql(s"SELECT k, $agg AS s FROM zeros GROUP BY k ORDER BY k").collect()
      val what = s"$agg after repartition($p)"
      assert(rows.map(_.getInt(0)).toSeq == Seq(1, 2, 3, 4), what)
      for (r <- Seq(rows(0), rows(1)))
        assert(!r.isNullAt(1) && bits(r.getDouble(1)) == bits(0.0), s"$what: key ${r.getInt(0)} gave ${r.get(1)}")
      assert(rows(2).isNullAt(1), s"$what: the empty group gave ${rows(2).get(1)}")
      assert(rows(3).getDouble(1) == 1.5, what)
    }
    df.unpersist()
  }

  test("rsum propagates NaN and infinities like SUM") {
    init
    import spark.implicits._
    val df = Seq((1, 1.0), (1, Double.NaN), (2, Double.PositiveInfinity), (2, 5.0),
                 (3, Double.PositiveInfinity), (3, Double.NegativeInfinity))
      .toDF("k", "v")
    df.createOrReplaceTempView("nonfinite")
    val rows = spark.sql(
      "SELECT k, sum(v) AS s, rsum(v, 2) AS r FROM nonfinite GROUP BY k ORDER BY k").collect()
    rows.foreach { r =>
      val s = r.getDouble(1); val rr = r.getDouble(2)
      assert(bits(s) == bits(rr) || (s.isNaN && rr.isNaN), s"key ${r.getInt(0)}: $s vs $rr")
    }
  }

  // -------------------------------------------------- bit-reproducibility

  test("rsum result bits are identical across repartitionings and input orders") {
    init
    val base = pairsDf(30000, 40, 2001, mixed = true).cache()
    base.count()
    def runWith(df: DataFrame, aggExpr: String): Map[Int, Long] = {
      df.createOrReplaceTempView("rt")
      spark.sql(s"SELECT k, $aggExpr AS s FROM rt GROUP BY k")
        .collect().map(r => r.getInt(0) -> bits(r.getDouble(1))).toMap
    }
    val ref = runWith(base, "rsum(v, 2)")
    for (p <- Seq(1, 2, 7, 64)) {
      assert(runWith(base.repartition(p), "rsum(v, 2)") == ref, s"repartition($p)")
      assert(runWith(base.repartition(p).sortWithinPartitions(desc("v")), "rsum(v, 2)") == ref,
             s"repartition($p) sorted desc")
    }
    assert(runWith(base.orderBy("v"), "rsum(v, 2)") == ref)
    base.unpersist()
  }

  test("rsum_buffered bits equal rsum bits for any buffer size") {
    init
    val base = pairsDf(20000, 30, 2101, mixed = true).cache()
    base.count()
    base.createOrReplaceTempView("bt")
    val ref = spark.sql("SELECT k, rsum(v, 3) AS s FROM bt GROUP BY k")
      .collect().map(r => r.getInt(0) -> bits(r.getDouble(1))).toMap
    for (bsz <- Seq(1, 16, 256, 1024)) {
      val got = spark.sql(s"SELECT k, rsum_buffered(v, 3, $bsz) AS s FROM bt GROUP BY k")
        .collect().map(r => r.getInt(0) -> bits(r.getDouble(1))).toMap
      assert(got == ref, s"bsz=$bsz")
    }
    base.unpersist()
  }

  test("native double sum is NOT stable across repartitionings on the same data (sanity)") {
    init
    val base = pairsDf(30000, 4, 2201, mixed = true).cache()
    base.count()
    def runWith(df: DataFrame): Map[Int, Long] = {
      df.createOrReplaceTempView("st")
      spark.sql("SELECT k, sum(v) AS s FROM st GROUP BY k")
        .collect().map(r => r.getInt(0) -> bits(r.getDouble(1))).toMap
    }
    val ref = runWith(base)
    val configs = Seq(
      base.repartition(2), base.repartition(7), base.repartition(64),
      base.orderBy("v"), base.orderBy(desc("v")),
      base.repartition(13).sortWithinPartitions("v"))
    assert(configs.exists(runWith(_) != ref),
      "expected at least one plan variation to change native sum bits")
    base.unpersist()
  }

  test("rsum and rsum_buffered bits equal ReproDouble bits past the sort-based fallback (4096 keys)") {
    init
    import spark.implicits._
    val (keys, vals) = FullDomain.doubles(1 << 16, 2501, FullDomain.keys(4096))
    val ref = FullDomain.reproBits(keys, vals, 2)
    val base = keys.zip(vals).toSeq.toDF("k", "v").cache()
    base.count()
    for (p <- Seq(1, 7); agg <- "rsum(v, 2)" +: Seq(1, 16, 256).map(b => s"rsum_buffered(v, 2, $b)")) {
      base.repartition(p).createOrReplaceTempView("fb")
      val df = spark.sql(s"SELECT k, $agg AS s FROM fb GROUP BY k")
      val got = df.collect().map(r => r.getInt(0) -> bits(r.getDouble(1))).toMap
      assert(got == ref, s"$agg after repartition($p)")
      // more keys per task than spark.sql.objectHashAggregate.sortBased.fallbackThreshold
      val fellBack = collect(df.queryExecution.executedPlan) {
        case a: ObjectHashAggregateExec => a.metrics("numTasksFallBacked").value
      }
      assert(fellBack.exists(_ > 0), s"$agg after repartition($p): no sort-based fallback in $fellBack")
    }
    base.unpersist()
  }

  test("rsum and rsum_buffered bits equal ReproDouble bits on full-domain input, any repartition") {
    init
    import spark.implicits._
    val (keys, vals) = FullDomain.doubles(20000, 2401)
    val ref = FullDomain.reproBits(keys, vals, 2)
    val base = keys.zip(vals).toSeq.toDF("k", "v").cache()
    base.count()
    for (p <- Seq(1, 7, 64); agg <- "rsum(v, 2)" +: Seq(1, 16, 256).map(b => s"rsum_buffered(v, 2, $b)")) {
      base.repartition(p).createOrReplaceTempView("fd")
      val got = spark.sql(s"SELECT k, $agg AS s FROM fd GROUP BY k")
        .collect().map(r => r.getInt(0) -> bits(r.getDouble(1))).toMap
      assert(got == ref, s"$agg after repartition($p)")
    }
    base.unpersist()
  }
}
