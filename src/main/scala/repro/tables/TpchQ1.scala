package repro.tables

import org.apache.spark.sql.{DataFrame, SparkSession}

/** TPC-H Query 1 over the DOUBLE-typed lineitem (the paper's modified
  * benchmark replaces all DECIMAL columns by DOUBLE, §VI-E), in the four
  * variants of Table IV:
  *
  *   - `double`   — unmodified engine (native `sum` on doubles);
  *   - `noBuffer` — reproducible sums via `rsum(x, L)` (the §IV drop-in);
  *   - `buffered` — reproducible sums via `rsum_buffered(x, L, bsz)` (§V);
  *   - `sorted`   — the only reproducible option *without* modifying the
  *     engine: impose a total order on the aggregation input by sorting.
  */
object TpchQ1 {

  val Cutoff = "1998-09-02"

  private def sums(agg: String => String): String =
    s"""SELECT l_returnflag, l_linestatus,
       |  ${agg("l_quantity")}                                        AS sum_qty,
       |  ${agg("l_extendedprice")}                                   AS sum_base_price,
       |  ${agg("l_extendedprice * (1 - l_discount)")}                AS sum_disc_price,
       |  ${agg("l_extendedprice * (1 - l_discount) * (1 + l_tax)")}  AS sum_charge,
       |  ${agg("l_quantity")} / count(*)                             AS avg_qty,
       |  ${agg("l_extendedprice")} / count(*)                        AS avg_price,
       |  ${agg("l_discount")} / count(*)                             AS avg_disc,
       |  count(*)                                                    AS count_order
       |FROM lineitem
       |WHERE l_shipdate <= DATE '$Cutoff'
       |GROUP BY l_returnflag, l_linestatus
       |ORDER BY l_returnflag, l_linestatus""".stripMargin

  /** Q1 with native double sums (the `double` column of Table IV). */
  def double(spark: SparkSession): DataFrame =
    spark.sql(sums(e => s"sum($e)"))

  /** Q1 with `rsum(x, levels)` — repro without summation buffers. */
  def reproNoBuffer(spark: SparkSession, levels: Int = 4): DataFrame =
    spark.sql(sums(e => s"rsum($e, $levels)"))

  /** Q1 with `rsum_buffered(x, levels, bsz)` — repro with summation
    * buffers.
    */
  def reproBuffered(spark: SparkSession, levels: Int = 4, bsz: Int = 256): DataFrame =
    spark.sql(sums(e => s"rsum_buffered($e, $levels, $bsz)"))

  /** Q1 on an input totally ordered by (group key, every aggregated
    * expression) — the sort-for-determinism baseline. The registered view
    * `lineitem_sorted` must exist (see [[registerSorted]]).
    */
  def sortedDouble(spark: SparkSession): DataFrame =
    spark.sql(sums(e => s"sum($e)").replace("FROM lineitem", "FROM lineitem_sorted"))

  /** Registers `lineitem_sorted`: the input in a deterministic total order
    * (sorted by group key then all value columns), the only way to make the
    * aggregation reproducible with an unmodified engine.
    */
  def registerSorted(spark: SparkSession): Unit =
    spark.sql(
      """SELECT * FROM lineitem
        |ORDER BY l_returnflag, l_linestatus, l_quantity, l_extendedprice,
        |         l_discount, l_tax, l_shipdate""".stripMargin)
      .createOrReplaceTempView("lineitem_sorted")

  /** Q1's non-aggregation work (scan, filter, grouping) with all floating
    * point aggregates replaced by `count` — the "Other" proxy used to split
    * Table IV's CPU time into Aggregations vs Other.
    */
  def otherOnly(spark: SparkSession): DataFrame =
    spark.sql(
      s"""SELECT l_returnflag, l_linestatus, count(*) AS count_order
         |FROM lineitem
         |WHERE l_shipdate <= DATE '$Cutoff'
         |GROUP BY l_returnflag, l_linestatus
         |ORDER BY l_returnflag, l_linestatus""".stripMargin)
}
