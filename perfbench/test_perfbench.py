"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

Checks BENCHMARK.json against the limits of its format, runs the Scala
self-tests (metric names against BENCHMARK.json on every workload, self-time
arithmetic, a wrong reference raising the failed count; see SelfTest.scala),
and checks that run.py fails without printing a result when the repository's
sources are absent. Takes under a minute.
"""

import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import build  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class BenchmarkJson(unittest.TestCase):
    def setUp(self):
        self.doc = json.loads((build.ROOT / "BENCHMARK.json").read_text())

    def test_keys_and_limits(self):
        d = self.doc
        self.assertEqual(set(d), {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"})
        self.assertEqual(d["command"][:2], ["python3", "perfbench/run.py"])
        self.assertEqual(d["paths"], ["perfbench"])
        self.assertTrue(1 <= d["run_seconds"] <= 60 and isinstance(d["run_seconds"], int))
        self.assertTrue(2 <= len(d["workloads"]) <= 8)
        names = [w["name"] for w in d["workloads"]] + [m["name"] for m in d["end_to_end"] + d["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, NAME)
        for w in d["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        for m in d["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in d["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in d["end_to_end"] + d["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        setup = [m for m in d["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup, [dict(setup[0], unit="s", better="lower")])
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in d["end_to_end"]))


class SelfTests(unittest.TestCase):
    def test_scala_self_tests(self):
        classes, jars, _ = build.ensure_built()
        cmd = run.java_command(classes, jars, "repro.perfbench.SelfTest", [str(build.ROOT / "BENCHMARK.json")])
        proc = subprocess.run(cmd, cwd=build.ROOT, env=run.java_env(), capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        self.assertEqual(proc.returncode, 0, proc.stdout[-3000:] + proc.stderr[-3000:])


class WithoutSources(unittest.TestCase):
    def test_fails_without_printing_a_result(self):
        bare = build.OUT / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(build.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(build.BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "paa-narrow", "--seed", "1",
                               "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True,
                              timeout=180)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
