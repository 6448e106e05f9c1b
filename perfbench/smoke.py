"""Smoke test of the benchmark itself, at toy size.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json untraced and traced and checks that
the last output line is a correct result carrying exactly the end-to-end,
respectively per-layer, metrics named there, each with its unit.  Also
checks that the benchmark refuses to run, without printing a result, in a
directory holding only BENCHMARK.json and the benchmark's own files.  Takes
about a minute and a half on two cores.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd, workload, trace):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace),
           "--size", "toy"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


class SmokeTest(unittest.TestCase):
    def test_every_metric_emitted_with_its_unit(self):
        for workload in SPEC["workloads"]:
            for trace, group in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload["name"], trace=trace):
                    proc = run(ROOT, workload["name"], trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.splitlines()[-1])
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertIs(result["correct"], True, proc.stdout)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    emitted = {name: m["unit"]
                               for name, m in result["metrics"].items()}
                    self.assertEqual(emitted, {m["name"]: m["unit"]
                                               for m in SPEC[group]})
                    for m in result["metrics"].values():
                        self.assertTrue(math.isfinite(m["value"]))

    def test_refuses_without_sources(self):
        (HERE / "out").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=HERE / "out") as bare:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for path in SPEC["paths"]:
                shutil.copytree(ROOT / path, Path(bare) / path,
                                ignore=shutil.ignore_patterns(
                                    "out", "__pycache__"))
            proc = run(bare, SPEC["workloads"][0]["name"], 0)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
