package repro.tables

import repro.SynthData
import repro.exec.{AggKind, PartitionAndAggregate}

/** Fig. 9 (paper §VI-D): PARTITIONANDAGGREGATE with different amounts of
  * partitioning on `repro<double,2>` with summation buffers. Each depth
  * uses the Eq. 4 buffer size for its fan-out. The cross-over points of
  * the three curves are the offline-tuned depth thresholds used by
  * `PartitionAndAggregate.depthFor` (the paper determines them the same
  * way, §V-C). With `buffered = false` it traces built-in double, whose
  * cross-overs are `TableIII.builtinDepthFor`'s thresholds.
  */
object Fig9 {

  private val GroupCounts = Seq(1 << 4, 1 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20)
  private final val Levels = 2

  final case class Row(groups: Int, nsByDepth: Seq[Double]) {
    def best: Int = nsByDepth.indexOf(nsByDepth.min)
  }
  final case class Result(rows: Seq[Row], aggregate: String) {
    def render: String = {
      val sb = new StringBuilder
      sb ++= s"Fig. 9: ns/element of PartitionAndAggregate($aggregate) by depth d\n"
      sb ++= f"${"groups"}%8s | ${"d=0"}%8s | ${"d=1"}%8s | ${"d=2"}%8s | best\n"
      sb ++= "-" * 48 + "\n"
      rows.foreach { r =>
        sb ++= f"2^${(math.log(r.groups) / math.log(2)).round}%-6d | ${r.nsByDepth(0)}%8.2f | ${r.nsByDepth(1)}%8.2f | ${r.nsByDepth(2)}%8.2f | d=${r.best}\n"
      }
      sb.result()
    }
  }

  def run(buffered: Boolean = true): Result = {
    import Timing._
    val vals = SynthData.localUniformValues(N, 901)
    val rows = GroupCounts.map { g =>
      val keys = SynthData.localUniformKeys(N, g, 900 + g)
      val times = (0 to 2).map { d =>
        val kind =
          if (buffered) AggKind.BufD(Levels, PartitionAndAggregate.bszFor(g, 1 << (8 * d), 8))
          else AggKind.PlainD
        nsPerElement(N) {
          PartitionAndAggregate.run(keys, vals, g, d, kind, workers = 1)._2.sum
        }
      }
      Row(g, times)
    }
    Result(rows, if (buffered) s"repro<double,$Levels>+buf" else "double")
  }
}
