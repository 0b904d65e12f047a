package repro.tables

import repro.SynthData
import repro.exec.{AggKind, PartitionAndAggregate}

/** Table III (paper §VI-D): geometric mean — over the numbers of groups —
  * of the slowdown of PARTITIONANDAGGREGATE *with summation buffers* on
  * `repro<ScalarT,L>` relative to the same algorithm on the built-in
  * scalar type. Paper values: 1.88–2.35 for float-based types, 2.12–2.41
  * for double-based, monotone in L.
  *
  * Scale substitution: the paper sweeps 2^30 records over 2^1..2^30
  * groups on 8 pinned Haswell cores; we run n = 2^22 single-threaded over
  * five group counts spanning in-cache to out-of-cache regimes (the
  * "CPU time per element" metric normalizes thread count away). Buffer
  * sizes follow Eq. 4, partitioning depth the offline-tuned thresholds
  * (§V-C); built-in types use their own (later) depth thresholds (§VI-C).
  */
object TableIII {

  private val GroupCounts = Seq(1 << 4, 1 << 8, 1 << 12, 1 << 16, 1 << 20)

  final case class TypeResult(name: String, perGroupSlowdown: Seq[(Int, Double)], geomean: Double)
  final case class Result(types: Seq[TypeResult], baselineNs: Map[(String, Int), Double]) {
    def render(paper: Map[String, Double]): String = {
      val sb = new StringBuilder
      sb ++= "Table III: geomean slowdown of buffered repro<T,L> vs built-in T\n"
      sb ++= f"${"data type"}%-16s | ${"paper"}%6s | ${"ours"}%6s | per-group-count slowdowns\n"
      sb ++= "-" * 86 + "\n"
      for (t <- types) {
        val p = paper.get(t.name).map(v => f"$v%6.2f").getOrElse("     —")
        val per = t.perGroupSlowdown.map { case (g, s) => f"2^${(math.log(g) / math.log(2)).round}%d:$s%.2f" }.mkString("  ")
        sb ++= f"${t.name}%-16s | $p | ${t.geomean}%6.2f | $per\n"
      }
      sb.result()
    }
  }

  /** Paper's Table III. */
  val PaperValues: Map[String, Double] = Map(
    "repro<double,1>" -> 2.12, "repro<double,2>" -> 2.18,
    "repro<double,3>" -> 2.29, "repro<double,4>" -> 2.41,
    "repro<float,1>"  -> 1.88, "repro<float,2>"  -> 2.11,
    "repro<float,3>"  -> 2.16, "repro<float,4>"  -> 2.35)

  /** Built-in types run out of cache later than the buffered repro types
    * (§VI-C), so they partition later. Thresholds read off
    * `Fig9.run(buffered = false)` on this substrate: d = 0 was faster at
    * every group count up to 2^18 in every run, so d = 1 starts at 2^20
    * (paper's values: 2^16 / 2^25 on their machine).
    */
  def builtinDepthFor(nGroups: Int): Int =
    if (nGroups < (1 << 20)) 0 else if (nGroups < (1 << 25)) 1 else 2

  def run(): Result = {
    import Timing._
    val keysByG = GroupCounts.map(g => g -> SynthData.localUniformKeys(N, g, 1000 + g)).toMap
    val valsD = SynthData.localUniformValues(N, 77)
    val valsF = SynthData.toFloats(valsD)

    val baseline = scala.collection.mutable.Map[(String, Int), Double]()
    for (g <- GroupCounts) {
      val d = builtinDepthFor(g)
      baseline(("double", g)) = nsPerElement(N) {
        PartitionAndAggregate.run(keysByG(g), valsD, g, d, AggKind.PlainD, workers = 1)._2.sum
      }
      baseline(("float", g)) = nsPerElement(N) {
        PartitionAndAggregate.runF(keysByG(g), valsF, g, d, AggKind.PlainF, workers = 1)._2.sum
      }
    }

    def buffered(scalar: String, l: Int): TypeResult = {
      val per = GroupCounts.map { g =>
        val d = PartitionAndAggregate.depthFor(g)
        val fanout = 1 << (8 * d)
        val bytes = if (scalar == "double") 8 else 4
        val bsz = PartitionAndAggregate.bszFor(g, fanout, bytes)
        val t = nsPerElement(N) {
          if (scalar == "double")
            PartitionAndAggregate.run(keysByG(g), valsD, g, d, AggKind.BufD(l, bsz), workers = 1)._2.sum
          else
            PartitionAndAggregate.runF(keysByG(g), valsF, g, d, AggKind.BufF(l, bsz), workers = 1)._2.sum
        }
        g -> t / baseline((scalar, g))
      }
      TypeResult(s"repro<$scalar,$l>", per, geomean(per.map(_._2)))
    }

    val types =
      (1 to 4).map(l => buffered("double", l)) ++ (1 to 4).map(l => buffered("float", l))
    Result(types, baseline.toMap)
  }
}
