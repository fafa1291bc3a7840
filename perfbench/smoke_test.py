#!/usr/bin/env python3
"""Smoke test of the benchmark command at tiny input sizes.

    python3 perfbench/smoke_test.py

Checks that every metric BENCHMARK.json names is printed, with its unit and
a finite value, for each workload in both modes; that a tampered digest trips
the repetition gate; and that a tree without the library sources exits
non-zero without printing a result. Builds the driver on first use, like the
benchmark itself; everything it writes stays under build-perfbench/.
"""

import argparse
import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.dont_write_bytecode = True  # importing run.py leaves nothing behind
sys.path.insert(0, str(HERE))
import run as perfbench  # noqa: E402
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Small enough for a few seconds per run, large enough that every workload
# still exercises its layers (misses, elephants, churn, faults, speculation).
TINY = {"static-recurrent": 400, "churn-gossip": 150,
        "htlc-fault-sp": 20000, "replay": 400}


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(proc):
    """The result object on the last stdout line, or None."""
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return None
    try:
        last = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return last if "metrics" in last else None


class SmokeTest(unittest.TestCase):
    def check_metrics(self, workload, trace, expected):
        proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--payments", str(TINY[workload]))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = result_of(proc)
        self.assertIsNotNone(result, proc.stdout)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        for m in expected:
            got = result["metrics"].get(m["name"])
            self.assertIsNotNone(got, "%s: %s missing" % (workload, m["name"]))
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in expected})

    def test_end_to_end_metrics_printed(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check_metrics(w["name"], 0, SPEC["end_to_end"])

    def test_per_layer_metrics_printed(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check_metrics(w["name"], 1, SPEC["per_layer"])

    def test_tampered_digest_trips_gate(self):
        perfbench.build()
        real = perfbench.run_driver
        records = []

        def tampered(*args):
            record = real(*args)
            if records:  # every repetition after the first
                record["digest"] = "%016x" % (int(record["digest"], 16) ^ 1)
            records.append(record)
            return record

        args = argparse.Namespace(workload="static-recurrent", seed=3,
                                  seconds=1, trace=0, payments=400)
        with mock.patch.object(perfbench, "run_driver", tampered):
            with self.assertRaisesRegex(perfbench.GateError,
                                        "digest differs"):
                perfbench.measure(args)

    def test_tree_without_sources_fails_without_result(self):
        build = ROOT / "build-perfbench"
        build.mkdir(exist_ok=True)
        tree = Path(tempfile.mkdtemp(dir=build))
        try:
            shutil.copy(ROOT / "BENCHMARK.json", tree)
            shutil.copytree(HERE, tree / "perfbench")
            proc = bench("--workload", "static-recurrent", "--seed", "1",
                         "--seconds", "1", "--trace", "0", cwd=tree)
            self.assertNotEqual(proc.returncode, 0)
            self.assertIsNone(result_of(proc))
        finally:
            shutil.rmtree(tree)


if __name__ == "__main__":
    unittest.main()
