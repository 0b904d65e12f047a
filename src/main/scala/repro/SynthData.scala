package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Synthetic data: a TPC-H-shaped `lineitem` at a scale factor (SF=1.0 is
  * TPC-H SF1's 6M rows; tests use SF<=0.01, benchmarks SF~=0.1), a
  * uniform-key Spark table, and local array workloads. Generators are
  * deterministic in their size and seed, so the DuckDB oracle sees
  * identical input.
  */
object SynthData {
  private val NLineitemPerSf = 6_000_000L
  private val NOrdersPerSf   = 1_500_000L
  private val NPartPerSf     =   200_000L

  private def n(base: Long, sf: Double): Long = math.max(1L, (base * sf).toLong)

  def lineitem(spark: SparkSession, sf: Double = 0.01, seed: Long = 0): DataFrame = {
    val nOrders = n(NOrdersPerSf, sf); val nPart = n(NPartPerSf, sf)
    spark.range(n(NLineitemPerSf, sf)).select(
      (rand(seed)     * nOrders + 1).cast(LongType)    as "l_orderkey",
      (rand(seed + 1) * nPart   + 1).cast(LongType)    as "l_partkey",
      (rand(seed + 2) * 7 + 1).cast(IntegerType)       as "l_linenumber",
      (rand(seed + 3) * 50 + 1).cast(DoubleType)       as "l_quantity",
      round(rand(seed + 4) * 90000 + 900, 2)           as "l_extendedprice",
      round(rand(seed + 5) * 0.10, 2)                  as "l_discount",
      round(rand(seed + 6) * 0.08, 2)                  as "l_tax",
      element_at(array(lit("N"), lit("R"), lit("A")),
                 (rand(seed + 7) * 3 + 1).cast("int")) as "l_returnflag",
      element_at(array(lit("O"), lit("F")),
                 (rand(seed + 8) * 2 + 1).cast("int")) as "l_linestatus",
      date_add(lit("1992-01-01").cast(DateType),
               (rand(seed + 9) * 2557).cast("int"))    as "l_shipdate",
    )
  }

  def uniformKeys(spark: SparkSession, rows: Long, nKeys: Long, seed: Long = 4): DataFrame =
    spark.range(rows).select(
      (rand(seed) * nKeys + 1).cast(LongType) as "k",
      rand(seed + 1)                          as "v",
    )

  // ------------------------------------------------------------------------
  // Local (driver-side) array workloads for the operator-level kernels and
  // the RSUM micro-benchmarks — the paper's evaluation (§VI-A) uses raw
  // <key,value> arrays with uniform keys in [0, nGroups), values U[1,2) or
  // Exp(1). Deterministic in (n, seed).
  // ------------------------------------------------------------------------

  /** Uniform group keys in [0, nGroups) — the paper's key distribution. */
  def localUniformKeys(n: Int, nGroups: Int, seed: Long): Array[Int] = {
    val r = new java.util.Random(seed)
    Array.fill(n)(r.nextInt(nGroups))
  }

  /** Values uniformly distributed in [1, 2) (paper §VI-B). */
  def localUniformValues(n: Int, seed: Long): Array[Double] = {
    val r = new java.util.Random(seed)
    Array.fill(n)(1.0 + r.nextDouble())
  }

  /** Values exponentially distributed with lambda = 1 (paper §VI-B). */
  def localExpValues(n: Int, seed: Long): Array[Double] = {
    val r = new java.util.Random(seed)
    Array.fill(n)(-math.log(1.0 - r.nextDouble()))
  }

  /** Values spanning many binades — stresses the level-demotion path. */
  def localMixedValues(n: Int, seed: Long, maxExp: Int = 40): Array[Double] = {
    val r = new java.util.Random(seed)
    Array.fill(n)((r.nextDouble() * 2 - 1) * math.pow(2.0, r.nextInt(2 * maxExp) - maxExp))
  }

  def toFloats(values: Array[Double]): Array[Float] = values.map(_.toFloat)
}
