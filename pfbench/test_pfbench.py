#!/usr/bin/env python3
"""Self-test of the benchmark: every workload, untraced and traced, on a seed
that was not used while the benchmark was written, must pass the oracle with
error_rate 0 and print exactly the metrics BENCHMARK.json names. A checkout
holding only the benchmark must fail without printing a result.

Run from the repository root: python3 pfbench/test_pfbench.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HELD_OUT_SEED = 918273645
SECONDS = 2
# hooks_mt is runnable but not gated (its spread is too wide; see README.md).
WORKLOADS = ("web_hot", "build_fork", "attack_churn", "hooks_mt")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(cwd, workload, trace, env=None):
    cmd = [sys.executable, "pfbench/run.py", "--workload", workload,
           "--seed", str(HELD_OUT_SEED), "--seconds", str(SECONDS),
           "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=900, check=False)


class HeldOutSeedTest(unittest.TestCase):
    def check(self, workload, trace, names):
        done = run(ROOT, workload, trace)
        self.assertEqual(done.returncode, 0, done.stderr[-4000:])
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), set(names))
        for name, unit in names.items():
            self.assertEqual(result["metrics"][name]["unit"], unit, name)
        return result["metrics"]

    def test_workloads(self):
        spec = load_spec()
        end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload, trace=0):
                metrics = self.check(workload, 0, end_to_end)
                for name, m in metrics.items():
                    self.assertGreater(m["value"], 0, name)
            with self.subTest(workload=workload, trace=1):
                metrics = self.check(workload, 1, per_layer)
                self.assertEqual(metrics["bench.error_rate"]["value"], 0)


class BareCheckoutTest(unittest.TestCase):
    def test_fails_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(os.path.join(ROOT, "pfbench"), os.path.join(tmp, "pfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tmp, ".bench_build"))
            done = run(tmp, "web_hot", 0, env)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"metrics"', done.stdout)


if __name__ == "__main__":
    unittest.main()
