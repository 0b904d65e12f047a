"""Runs one workload of the benchmark and prints its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the benchmark first if its sources
changed (see build.py), then runs it in one JVM. The last line of standard
output is the result as one JSON object; the full result, with provenance
and (for --trace 1) the spans, goes to
.bench_build/perfbench/results/<workload>-seed<n>-trace<t>.json.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

import build

# A fixed 2 GiB heap, and the parallel collector: its stop-the-world young
# collections leave no concurrent GC threads competing with the measured
# ones. No perf-data file, which the JVM would write outside the checkout.
# Then the Java module opens Spark needs on JDK 17, as in the
# repository's build.sbt.
JVM_FLAGS = [
    "-Xms2g", "-Xmx2g", "-Xss8m", "-XX:+UseParallelGC", "-XX:-UsePerfData",
] + [f"--add-opens={p}=ALL-UNNAMED" for p in (
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar",
)]

# A run must end within 180 s; leave room to stop the JVM.
TIMEOUT_S = 170


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=build.ROOT, capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def cache_bytes(level):
    """Size of cpu0's unified cache of `level`, from sysconf, else sysfs."""
    try:
        v = os.sysconf(f"SC_LEVEL{level}_CACHE_SIZE")
        if v > 0:
            return v
    except (ValueError, OSError):
        pass
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    for d in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            if (d / "level").read_text().strip() == str(level) and (d / "type").read_text().strip() == "Unified":
                size = (d / "size").read_text().strip()
                return int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)
        except (OSError, ValueError):
            pass
    return None


def java_command(classes, jars, main_class, args, props=None):
    """The JVM command line for `main_class` of the built benchmark."""
    tmp = build.OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    props = dict(props or {}, **{
        "java.io.tmpdir": tmp,
        "log4j2.configurationFile": build.BENCH / "log4j2.properties",
    })
    return (["java"] + JVM_FLAGS
            + [f"-D{k}={v}" for k, v in props.items() if v is not None]
            + ["-cp", f"{classes}{os.pathsep}{jars / '*'}", main_class] + args)


def java_env():
    """Spark's scratch space stays inside the checkout."""
    return dict(os.environ, SPARK_LOCAL_DIRS=str(build.OUT / "tmp"))


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    try:
        classes, jars, source_digest = build.ensure_built()
    except build.BuildError as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    out = build.OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    props = {
        "perfbench.sourceDigest": source_digest,
        "perfbench.gitSha": git_sha(),
        "perfbench.l2Bytes": cache_bytes(2),
        "perfbench.l3Bytes": cache_bytes(3),
    }
    cmd = java_command(classes, jars, "repro.perfbench.Main",
                       ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
                        "--trace", str(args.trace), "--out", str(out)], props)
    proc = subprocess.Popen(cmd, cwd=build.ROOT, env=java_env())
    try:
        return proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {TIMEOUT_S} s", file=sys.stderr)
        proc.kill()
        proc.wait()
        return 3
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
