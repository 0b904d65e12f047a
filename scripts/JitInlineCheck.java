import repro.SynthData;
import repro.core.BufferedReproDouble;
import repro.core.ReproDouble;
import repro.exec.AggKind;
import repro.exec.BufDTable;
import repro.exec.BufFTable;
import repro.exec.PartitionAndAggregate;
import repro.exec.ReproDTable;
import repro.exec.ReproFTable;

/** Drives the scalar repro add path hot enough for C2 to compile it, as the
  * benchmark's paa-narrow workload does (2^10 groups, L=2): a ReproDTable
  * aggregate loop and a ReproDouble.add loop on U[1,2) values (the paper's
  * data), a ReproDTable loop on values spanning 2^-20..2^20, whose groups
  * change frame often, and a ReproFTable loop on the same values as floats.
  * A BufDTable loop on the U[1,2) values (bsz 128) keeps the batched kernel
  * hot in the same JVM, as the benchmark's buffered modes do; the kernel
  * and the scalar add's cold path share RsumD.raise. A second BufDTable
  * (bsz 32) takes about 4 rows per group, as a paa-wide partition does, so
  * its emit finalizes each group whose buffer never filled through
  * RsumBatchD.sumOf; a BufFTable (bsz 64) on the same keys does the same
  * for floats. Two BufferedReproDouble add loops, at bsz 0 and bsz 256,
  * drive the state of Spark's rsum and rsum_buffered aggregates. One
  * PartitionAndAggregate.run of BufD at d = 0 per round runs the BufDTable
  * loop on every worker, pool threads included, over chunks of the input,
  * and merges the workers' tables. One run of BufD (bsz 32) at d = 1 per
  * round, over the keys of about 4 rows per group, partitions into the
  * rows the calling thread keeps and runs the short-buffer BufDTable loop
  * on every worker;
  * the kept rows must fit the check's heap beside everything else. See
  * jit-inline-check.sh.
  */
public class JitInlineCheck {
  public static void main(String[] args) {
    int n = 1 << 16, groups = 1 << 10, levels = 2;
    int[] keys = SynthData.localUniformKeys(n, groups, 1);
    double[] vals = SynthData.localUniformValues(n, 2);
    double[] mixed = SynthData.localMixedValues(n, 3, 20);
    float[] mixedF = SynthData.toFloats(mixed);
    ReproDTable table = new ReproDTable(2 * groups, levels);
    ReproDTable mixedTable = new ReproDTable(2 * groups, levels);
    ReproFTable floatTable = new ReproFTable(2 * groups, levels);
    BufDTable bufTable = new BufDTable(2 * groups, levels, 128);
    int wideGroups = n / 4;
    int[] wideKeys = SynthData.localUniformKeys(n, wideGroups, 4);
    BufDTable shortTable = new BufDTable(2 * wideGroups, levels, 32);
    float[] valsF = SynthData.toFloats(vals);
    BufFTable shortFloatTable = new BufFTable(2 * wideGroups, levels, 64);
    int[] wideOutKeys = new int[wideGroups];
    double[] wideOutVals = new double[wideGroups];
    AggKind bufKind = new AggKind.BufD(levels, 128);
    AggKind wideKind = new AggKind.BufD(levels, 32);
    int[] outKeys = new int[groups];
    double[] outVals = new double[groups];
    double sink = 0;
    for (int rep = 0; rep < 200; rep++) {
      table.reset();
      table.aggregate(keys, vals, 0, n, 0);
      sink += outVals[table.emit(outKeys, outVals, 0) - 1];
      mixedTable.reset();
      mixedTable.aggregate(keys, mixed, 0, n, 0);
      sink += outVals[mixedTable.emit(outKeys, outVals, 0) - 1];
      bufTable.reset();
      bufTable.aggregate(keys, vals, 0, n, 0);
      sink += outVals[bufTable.emit(outKeys, outVals, 0) - 1];
      shortTable.reset();
      shortTable.aggregate(wideKeys, vals, 0, n, 0);
      sink += wideOutVals[shortTable.emit(wideOutKeys, wideOutVals, 0) - 1];
      shortFloatTable.reset();
      shortFloatTable.aggregate(wideKeys, valsF, 0, n, 0);
      sink += wideOutVals[shortFloatTable.emit(wideOutKeys, wideOutVals, 0) - 1];
      floatTable.reset();
      floatTable.aggregate(keys, mixedF, 0, n, 0);
      sink += outVals[floatTable.emit(outKeys, outVals, 0) - 1];
      ReproDouble st = new ReproDouble(levels);
      for (int i = 0; i < n; i++) st.add(vals[i]);
      sink += st.value();
      BufferedReproDouble rsum = new BufferedReproDouble(levels, 0);
      for (int i = 0; i < n; i++) rsum.add(vals[i]);
      sink += rsum.value();
      sink += PartitionAndAggregate.run(keys, vals, groups, 0, bufKind)._2()[0];
      sink += PartitionAndAggregate.run(wideKeys, vals, wideGroups, 1, wideKind)._2()[0];
      BufferedReproDouble rsumBuffered = new BufferedReproDouble(levels, 256);
      for (int i = 0; i < n; i++) rsumBuffered.add(vals[i]);
      sink += rsumBuffered.value();
    }
    System.out.println("checksum " + sink);
  }
}
