#!/usr/bin/env python3
"""Tests of the benchmark itself, at tiny shapes (about half a minute in all).

Run from the root of a checkout:

    python3 perfbench/test_bench.py

Each workload must print every metric BENCHMARK.json names, with its unit;
an output corrupted on purpose must fail the run's checks; and a directory
holding only the benchmark's own files must fail without a result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = os.path.join(ROOT, "BENCHMARK.json")


def run(workload, trace, inject="none", seed=1, cwd=ROOT):
    """Runs one tiny workload; returns (exit code, parsed last line or None)."""
    command = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace), "--scale", "tiny", "--inject", inject]
    result = subprocess.run(command, cwd=cwd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, timeout=600)
    lines = result.stdout.decode().strip().splitlines()
    try:
        return result.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        return result.returncode, None


class MetricsTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(SPEC) as f:
            cls.spec = json.load(f)

    def assert_emits(self, workload, trace):
        code, result = run(workload, trace)
        self.assertEqual(code, 0, result)
        self.assertIs(result["correct"], True)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        declared = self.spec["per_layer" if trace else "end_to_end"]
        want = {m["name"]: m["unit"] for m in declared}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)

    def test_workloads_are_declared(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         ["prepare-wrelated", "serve-hot", "serve-churn"])

    # prepare-wrange is run by hand only; BENCHMARK.json leaves it out (see
    # README.md). Known defect at this tiny shape (WRange 16x32, seed 1,
    # workload 2): the ALM never reaches a feasible iterate, Prepare returns
    # the feasible initializer (residual ~3e-14 <= gamma) with converged =
    # false, and the convergence check rejects the run. Remove the marker
    # once fixed.
    @unittest.expectedFailure
    def test_prepare_wrange(self):
        self.assert_emits("prepare-wrange", 0)

    def test_prepare_wrelated(self):
        self.assert_emits("prepare-wrelated", 0)
        self.assert_emits("prepare-wrelated", 1)

    def test_serve_hot(self):
        self.assert_emits("serve-hot", 0)
        self.assert_emits("serve-hot", 1)

    def test_serve_churn(self):
        self.assert_emits("serve-churn", 0)
        self.assert_emits("serve-churn", 1)


class InjectedFaultTest(unittest.TestCase):
    def assert_rejected(self, workload, inject):
        code, result = run(workload, 0, inject=inject)
        self.assertNotEqual(code, 0)
        self.assertIs(result["correct"], False)
        self.assertEqual(result["metrics"], {})

    def test_nan_answer_fails_prepare(self):
        self.assert_rejected("prepare-wrelated", "nan")

    def test_nan_answer_fails_serve(self):
        self.assert_rejected("serve-hot", "nan")

    def test_uncounted_charge_fails_ledger(self):
        self.assert_rejected("serve-churn", "ledger")


class BareDirectoryTest(unittest.TestCase):
    def test_fails_without_library_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare_checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(SPEC, bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, result = run("serve-hot", 0, cwd=bare)
            self.assertNotEqual(code, 0)
            self.assertIsNone(result)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
