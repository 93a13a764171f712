"""Smoke tests of the benchmark itself (not part of the library's test suite).

Run from the repository root:

    python3 perfbench/smoke.py

Every workload runs once untraced and once traced at minimal length, which
takes about two minutes on two cores, dominated by plane-verify.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, Outcome, Workload  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc


class Spec(unittest.TestCase):
    def test_metric_names(self):
        names = [m["name"] for group in ("end_to_end", "per_layer")
                 for m in SPEC[group]] + [w["name"] for w in SPEC["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)

    def test_spec_matches_code(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["end_to_end"]},
                         run.END_TO_END_UNITS)
        self.assertEqual([(m["name"], m["unit"], m["better"])
                          for m in SPEC["per_layer"]], tracer.PER_LAYER)


class Harness(unittest.TestCase):
    def test_self_time_subtracts_direct_children(self):
        tr = tracer.Tracer()
        tr.run = "op0"
        tr.spans += [(2, "leaf", 1.0, 2.0, 1, "op0"),
                     (1, "mid", 0.5, 3.0, 0, "op0"),
                     (0, "root", 0.0, 4.0, None, "op0")]
        _setup, ops = tr.totals()
        self.assertEqual(ops["leaf.self_s"], 1.0)
        self.assertEqual(ops["mid.self_s"], 1.5)
        self.assertEqual(ops["root.self_s"], 1.5)

    def test_reference_seconds_leave_out_samples_and_scale_by_speed(self):
        host = hostspeed.HostSpeed()
        host.starts = [1.0, 2.0, 3.0, 9.0]
        host.ends = [1.1, 2.1, 3.1, 9.1]
        host.speeds = [0.5, 0.5, 0.8, 2.0]
        wall, ref = host.ref_seconds(0.5, 3.5)
        self.assertAlmostEqual(wall, 2.7)
        self.assertAlmostEqual(ref, 2.7 * 0.6)
        # too few samples inside: the three nearest to the op's middle
        wall, ref = host.ref_seconds(8.0, 8.5)
        self.assertAlmostEqual(wall, 0.5)
        self.assertAlmostEqual(ref, 0.5 * (2.0 + 0.8 + 0.5) / 3)

    def test_output_mismatch_is_a_failed_check(self):
        calls = []

        def op(state, i):
            calls.append(i)
            return Outcome(i, str(len(calls)).encode(), 1, 0)

        flaky = Workload("flaky", lambda cli, seed: {}, op)
        args = run.parse_args(["--workload", "small-suites", "--seed", "0",
                               "--seconds", "0.01"])
        checks = run.Checks()
        run.measure(args, flaky, {}, checks)
        self.assertEqual(checks.failed, 1)  # the re-run of op 0 differed
        checks = run.Checks()
        samples = run.measure_traced(args, flaky, {}, tracer.Tracer(), checks)
        # every traced op differed from its untraced twin
        self.assertEqual(checks.failed, len(samples["traced_s"]))


class Workloads(unittest.TestCase):
    def check_run(self, workload, trace, group):
        proc = bench(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        expected = {m["name"]: m["unit"] for m in SPEC[group]}
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                         expected)
        return result["metrics"]

    def test_every_workload_untraced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.check_run(workload, 0, "end_to_end")
                for name, metric in metrics.items():
                    self.assertGreater(metric["value"], 0, name)

    def test_every_workload_traced_matches_untraced(self):
        # a traced run fails a check whenever a traced op's output differs
        # byte-for-byte from the untraced run of the same op
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_run(workload, 1, "per_layer")

    def test_without_program_sources_exits_nonzero(self):
        bare = HERE / "out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in HERE.glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        try:
            proc = bench("small-suites", 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main(verbosity=2)
