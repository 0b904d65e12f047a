"""Build file of the benchmark package.

Compiles the repository's main Scala sources together with the benchmark's
own sources (perfbench/src) with the Scala compiler that ships in the Spark
distribution's jars, so the build needs neither sbt nor network access. The
classes go to .bench_build/perfbench/classes under the repository root; a
digest of every source file decides whether a rebuild is needed.

    python3 perfbench/build.py          # build if the sources changed
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
MAIN_SOURCES = ROOT / "src" / "main" / "scala"
OUT = ROOT / ".bench_build" / "perfbench"
CLASSES = OUT / "classes"

# The DuckDB test oracle is not on the benchmark's path and its driver is
# not part of the Spark distribution.
EXCLUDED = {"Oracle.scala"}


class BuildError(Exception):
    pass


def spark_jars():
    """The jars directory of the Spark distribution: $SPARK_HOME/jars, else
    the one next to the spark-submit found on PATH."""
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = str(Path(submit).resolve().parent.parent)
    jars = Path(home) / "jars" if home else None
    if jars is None or not any(jars.glob("scala-compiler-*.jar")):
        raise BuildError("no Spark distribution with a Scala compiler found (set SPARK_HOME)")
    return jars


def sources():
    if not MAIN_SOURCES.is_dir():
        raise BuildError(f"main sources not found at {MAIN_SOURCES.relative_to(ROOT)}")
    main = [p for p in MAIN_SOURCES.rglob("*.scala") if p.name not in EXCLUDED]
    own = list((BENCH / "src").rglob("*.scala"))
    if not main or not own:
        raise BuildError("no Scala sources to build")
    return sorted(main + own)


def digest(files, jars):
    h = hashlib.sha256()
    h.update(",".join(sorted(p.name for p in jars.glob("*.jar"))).encode())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def ensure_built():
    """Builds if needed; returns (classes dir, jars dir, source digest)."""
    jars = spark_jars()
    files = sources()
    want = digest(files, jars)
    stamp = CLASSES / "DIGEST"
    if stamp.is_file() and stamp.read_text() == want:
        return CLASSES, jars, want
    tmp = OUT / "classes.tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    cmd = ["java", "-Xss8m", "-Xmx1g", "-XX:-UsePerfData", "-cp", str(jars / "*"), "scala.tools.nsc.Main",
           "-usejavacp", "-nowarn", "-d", str(tmp)] + [str(p) for p in files]
    print(f"perfbench: compiling {len(files)} Scala files", file=sys.stderr, flush=True)
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        raise BuildError(f"scalac exited with {proc.returncode}")
    (tmp / "DIGEST").write_text(want)
    shutil.rmtree(CLASSES, ignore_errors=True)
    tmp.rename(CLASSES)
    return CLASSES, jars, want


if __name__ == "__main__":
    try:
        print(ensure_built()[0])
    except BuildError as e:
        print(f"perfbench build failed: {e}", file=sys.stderr)
        sys.exit(2)
