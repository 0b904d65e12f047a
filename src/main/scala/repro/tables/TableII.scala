package repro.tables

import repro.SynthData
import repro.core.{FpD, ReproDouble}

/** Table II (paper §VI-B1): maximum absolute error of conventional and
  * reproducible summation in double precision.
  *
  * The paper's table evaluates two analytic bounds on generated data:
  *   - Eq. 5 (conventional): `(n-1) * eps * sum(|b_i|)` with eps = 2^-53;
  *   - Eq. 6 (RSUM):        `n * 2^((1-L)*W - 1) * max|b_i|`, where the
  *     paper fixes max = 22 for Exp(1) (the 99.97% quantile at n = 10^6).
  *
  * We evaluate the same bounds on the actually generated data and — going
  * beyond the paper — also *measure* the realized error of both algorithms
  * against an exact BigDecimal sum, confirming the paper's remark that the
  * RSUM bounds are up to 2^(W-1) times pessimistic.
  */
object TableII {

  final case class Cell(bound: Double, measured: Double)
  final case class Row(algo: String, cells: Map[(Int, String), Cell])
  final case class Result(rows: Seq[Row], ns: Seq[Int], dists: Seq[String]) {
    def render(paper: Map[(String, Int, String), Double]): String = {
      val sb = new StringBuilder
      sb ++= "Table II: maximum absolute error, double precision\n"
      sb ++= f"${"algorithm"}%-14s | ${"n"}%7s | ${"dist"}%-7s | ${"paper bound"}%12s | ${"our bound"}%12s | ${"measured err"}%12s\n"
      sb ++= "-" * 80 + "\n"
      for (row <- rows; n <- ns; d <- dists) {
        val c = row.cells((n, d))
        val p = paper.get((row.algo, n, d)).map(v => f"$v%12.1e").getOrElse("           —")
        sb ++= f"${row.algo}%-14s | $n%7d | $d%-7s | $p | ${c.bound}%12.1e | ${c.measured}%12.1e\n"
      }
      sb.result()
    }
  }

  /** Paper's Table II values (bounds), keyed by (algorithm, n, dist). */
  val PaperValues: Map[(String, Int, String), Double] = Map(
    ("Conventional", 1000, "U[1,2)") -> 1.7e-10, ("Conventional", 1000, "Exp(1)") -> 1.1e-10,
    ("Conventional", 1000000, "U[1,2)") -> 1.7e-4, ("Conventional", 1000000, "Exp(1)") -> 1.1e-4,
    ("RSUM (L=1)", 1000, "U[1,2)") -> 1.0e3, ("RSUM (L=1)", 1000, "Exp(1)") -> 1.1e4,
    ("RSUM (L=1)", 1000000, "U[1,2)") -> 1.0e6, ("RSUM (L=1)", 1000000, "Exp(1)") -> 1.1e7,
    ("RSUM (L=2)", 1000, "U[1,2)") -> 9.1e-10, ("RSUM (L=2)", 1000, "Exp(1)") -> 1.0e-8,
    ("RSUM (L=2)", 1000000, "U[1,2)") -> 9.1e-7, ("RSUM (L=2)", 1000000, "Exp(1)") -> 1.0e-5,
    ("RSUM (L=3)", 1000, "U[1,2)") -> 8.3e-22, ("RSUM (L=3)", 1000, "Exp(1)") -> 9.1e-21,
    ("RSUM (L=3)", 1000000, "U[1,2)") -> 8.3e-19, ("RSUM (L=3)", 1000000, "Exp(1)") -> 9.1e-18,
  )

  private val Eps = math.pow(2.0, -53)

  /** Seed of the U[1,2) data; the Exp(1) data uses the next one. */
  private final val Seed = 7L

  def run(): Result = {
    val ns = Seq(1000, 1000000)
    val dists = Seq("U[1,2)", "Exp(1)")

    def data(n: Int, dist: String): Array[Double] = dist match {
      case "U[1,2)" => SynthData.localUniformValues(n, Seed)
      case "Exp(1)" => SynthData.localExpValues(n, Seed + 1)
    }

    def exact(vals: Array[Double]): BigDecimal =
      vals.foldLeft(BigDecimal(0))((a, v) => a + BigDecimal(v))

    // paper's choice: cap the Exp(1) "expected max" at 22
    def maxFor(vals: Array[Double], dist: String): Double =
      if (dist == "Exp(1)") 22.0 else vals.map(math.abs).max

    val cellsByAlgo = scala.collection.mutable.Map[String, Map[(Int, String), Cell]]()
      .withDefaultValue(Map.empty)

    for (n <- ns; d <- dists) {
      val vals = data(n, d)
      val ex = exact(vals)
      val sumAbs = vals.foldLeft(0.0)((a, v) => a + math.abs(v))

      val convBound = (n - 1).toDouble * Eps * sumAbs
      val convMeasured = (ex - BigDecimal(vals.sum)).abs.toDouble
      cellsByAlgo("Conventional") += ((n, d) -> Cell(convBound, convMeasured))

      for (l <- 1 to 3) {
        val bound = n.toDouble * math.pow(2.0, (1 - l) * FpD.W - 1) * maxFor(vals, d)
        val got = ReproDouble.sumBatched(vals, l)
        val measured = (ex - BigDecimal(got)).abs.toDouble
        cellsByAlgo(s"RSUM (L=$l)") += ((n, d) -> Cell(bound, measured))
      }
    }

    val order = Seq("Conventional", "RSUM (L=1)", "RSUM (L=2)", "RSUM (L=3)")
    Result(order.map(a => Row(a, cellsByAlgo(a))), ns, dists)
  }
}
