#!/usr/bin/env bash
# Checks that C2 inlines the scalar repro add path (ReproSlotsD.add,
# ReproSlotsF.add and RsumD.add) and the table probe (AggTable.slotOf) into
# their callers. C2 does not inline a method whose compiled
# code is already larger than InlineSmallCode (2500 bytes on JDK 17); the
# caller then makes a real call per value. Run from anywhere:
#
#   scripts/jit-inline-check.sh
#
# Builds the main sources with perfbench/build.py, runs JitInlineCheck.java
# (ReproDTable loops on U[1,2) and on mixed-magnitude values, a ReproFTable
# loop, a ReproDouble.add loop, BufferedReproDouble.add loops at bsz 0 and
# 256 (the state of Spark's rsum and rsum_buffered), two BufDTable
# loops, full flushes and short ones at about 4 rows per group, that keep
# the batched kernel compiled beside them, a BufFTable loop of short ones,
# and PartitionAndAggregate runs of BufD at d = 0 and d = 1 that run the
# BufDTable loops on every worker) with -XX:+PrintInlining and
# -XX:+PrintCompilation on the benchmark's heap and collector, prints every
# inlining decision about the four methods, and exits 1 if any of them reads
# "already compiled into a big method" or "hot method too big". It then
# prints, for information, the compile and inlining lines of the kernel's
# finalization of a never-flushed buffer (RsumBatchD.sumOf, sumOn,
# spreadAll and total).
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
classes="$(python3 perfbench/build.py)"
jars="$(python3 -c 'import sys; sys.path.insert(0, "perfbench"); import build; print(build.spark_jars())')"
out="$root/target/jit-inline-check"
mkdir -p "$out"
javac -nowarn -cp "$classes:$jars/*" -d "$out" scripts/JitInlineCheck.java
log="$out/inlining.log"
java -Xms1g -Xmx1g -XX:+UseParallelGC -XX:-UsePerfData \
  -XX:+UnlockDiagnosticVMOptions -XX:+PrintInlining -XX:+PrintCompilation \
  -cp "$out:$classes:$jars/*" JitInlineCheck > "$log"

# Inlining lines read "@ <bci> <method> (<n> bytes) <decision>".
pattern='@ [0-9]+ +(repro\.core\.ReproSlots[DF]::add|repro\.core\.RsumD\$::add|repro\.exec\.AggTable::slotOf) \('
grep -E "$pattern" "$log" | sed -E 's/^ +//' | sort | uniq -c
failed=0
if grep -E "$pattern" "$log" | grep -qE 'already compiled into a big method|hot method too big'; then
  failed=1
fi
echo "RsumBatchD.sumOf: compiled as"
grep -E '^ *[0-9]+ +[0-9]+ .*repro\.core\.RsumBatchD::(sumOf|sumOn|spreadAll|total) ' "$log" \
  | sed -E 's/^ *[0-9]+ +[0-9]+ +//' | sort | uniq -c || true
echo "RsumBatchD.sumOf: inlined as"
grep -E '@ [0-9]+ +repro\.core\.RsumBatchD::(sumOf|sumOn|spreadAll|total) \(' "$log" | sed -E 's/^ +//' | sort | uniq -c || true
if [ "$failed" = 1 ]; then
  echo "jit-inline-check: FAIL (the scalar add path or the probe is not inlined; see $log)"
  exit 1
fi
echo "jit-inline-check: OK"
