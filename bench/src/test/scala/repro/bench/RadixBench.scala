package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.SynthData
import repro.exec.RadixPartition
import repro.tables.Timing

/** The L1 "radix pass ns/record" figure: ns per row of `d` levels of
  * `RadixPartition` over 2^22 rows with keys uniform in [0, 2^20) (the
  * shape of perfbench's `paa-wide`), for d = 1 and 2, on one worker and on
  * every core, for double and float values. The passes write into output
  * arrays allocated once, as `PartitionAndAggregate`'s calling thread
  * keeps them, so the figure is the pass's and not the allocation's.
  */
class RadixBench extends AnyFunSuite {

  private val P = Runtime.getRuntime.availableProcessors

  final case class Row(d: Int, workers: Int, value: String, nsPerRow: Double)

  lazy val rows: Seq[Row] = {
    val n = Timing.N
    val keys = SynthData.localUniformKeys(n, 1 << 20, 71)
    val vals = SynthData.localUniformValues(n, 72)
    val valsF = SynthData.toFloats(vals)
    val outD = Seq.fill(2)((new Array[Int](n), new Array[Double](n)))
    val outF = Seq.fill(2)((new Array[Int](n), new Array[Float](n)))
    val offsets = new Array[Int](RadixPartition.fanout(2) + 1)
    val configs = for (d <- 1 to 2; workers <- Seq(1, P).distinct; value <- Seq("double", "float"))
      yield (d, workers, value)
    def nsPerRow(d: Int, workers: Int, value: String, reps: Int): Double =
      Timing.nsPerElement(n, warmup = 1, reps = reps) {
        val p =
          if (value == "double") RadixPartition.partition(keys, vals, d, workers, outD, offsets)
          else RadixPartition.partitionF(keys, valsF, d, workers, outF, offsets)
        p.keys(n / 2).toDouble
      }
    // One unmeasured round first, so that no configuration runs code the
    // JIT has not yet compiled.
    configs.foreach { case (d, workers, value) => nsPerRow(d, workers, value, reps = 3) }
    configs.map { case (d, workers, value) => Row(d, workers, value, nsPerRow(d, workers, value, reps = 9)) }
  }

  test("render radix pass ns/row (2^22 rows, keys in [0, 2^20))") {
    println(f"${"d"}%2s | ${"workers"}%7s | ${"value"}%6s | ${"ns/row"}%7s")
    println("-" * 33)
    rows.foreach(r => println(f"${r.d}%2d | ${r.workers}%7d | ${r.value}%6s | ${r.nsPerRow}%7.2f"))
  }

  test("every core is not slower than one worker (10% slack for noise)") {
    for (r <- rows if r.workers == P; one <- rows.find(o => o.workers == 1 && o.d == r.d && o.value == r.value))
      assert(r.nsPerRow <= one.nsPerRow * 1.1, s"d=${r.d}, ${r.value}: $P workers ${r.nsPerRow} ns/row, 1 worker ${one.nsPerRow}")
  }
}
