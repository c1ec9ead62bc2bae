#!/usr/bin/env python3
"""The benchmark's own tests: smoke mode of every workload.

    python3 perfbench/test_bench.py

Runs perfbench/run.py --smoke (tiny fleets, a 5-minute packet run) for
each workload, untraced and traced, and checks that every output check
passed and that every metric BENCHMARK.json names is emitted with its
unit. Builds cosim_bench on first use, like the benchmark itself.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_smoke(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, timeout=900, check=True, text=True)
    return json.loads(proc.stdout.rstrip("\n").split("\n")[-1])


class SmokeTest(unittest.TestCase):
    spec = load_spec()

    def check(self, trace: int, section: str) -> None:
        expected = {m["name"]: m["unit"] for m in self.spec[section]}
        for w in self.spec["workloads"]:
            with self.subTest(workload=w["name"], trace=trace):
                result = run_smoke(w["name"], trace)
                self.assertTrue(result["correct"], result)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                metrics = result["metrics"]
                self.assertEqual(set(metrics), set(expected))
                for name, unit in expected.items():
                    self.assertEqual(metrics[name]["unit"], unit, name)
                    self.assertTrue(math.isfinite(metrics[name]["value"]),
                                    name)
                    if trace == 0:
                        self.assertGreater(metrics[name]["value"], 0.0, name)

    def test_end_to_end_metrics(self) -> None:
        self.check(0, "end_to_end")

    def test_per_layer_metrics(self) -> None:
        self.check(1, "per_layer")


if __name__ == "__main__":
    unittest.main()
