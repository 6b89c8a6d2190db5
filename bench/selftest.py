"""Fast self-test of the benchmark harness.

    python3 bench/selftest.py

Runs every workload at its smallest size (``--quick``, one second) on the
default seed and on a held-out seed, untraced and traced, and checks that
each run emits every metric ``BENCHMARK.json`` names, with its unit, and that
the untraced and the traced run agree on work counters and output digests.
It then corrupts one output of each workload through the package's own
functions and checks that the op counts as failed and the run as incorrect.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 0
HELD_OUT_SEED = 7919


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _bench(workload, seed, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--quick"],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    if done.returncode != 0:
        raise AssertionError(f"{workload} seed {seed} trace {trace} exited "
                             f"{done.returncode}: {done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


class EmittedMetrics(unittest.TestCase):
    def test_every_workload_and_seed(self):
        spec = _spec()
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]), sorted(WORKLOADS))
        for name in WORKLOADS:
            for seed in (DEFAULT_SEED, HELD_OUT_SEED):
                with self.subTest(workload=name, seed=seed):
                    untraced, u_detail = _bench(name, seed, 0)
                    traced, t_detail = _bench(name, seed, 1)
                    for result, key in ((untraced, "end_to_end"), (traced, "per_layer")):
                        self.assertTrue(result["correct"], result)
                        self.assertEqual(result["failed"], 0)
                        self.assertGreaterEqual(result["attempted"], 1)
                        self.assertEqual(
                            {m: v["unit"] for m, v in result["metrics"].items()},
                            {m["name"]: m["unit"] for m in spec[key]})
                        for m, v in result["metrics"].items():
                            self.assertIsInstance(v["value"], (int, float), m)
                    self.assertEqual(untraced["metrics"]["ok_ratio"]["value"], 1.0)
                    self.assertEqual(u_detail["counters"], t_detail["counters"])
                    self.assertEqual(u_detail["digest"], t_detail["digest"])
                    self.assertEqual(t_detail["span_problems"], [])
                    self.assertEqual(t_detail["self_sum_ms"], t_detail["root_ms"])


def _shift_records(find_fixed_points):
    def corrupted(scenario):
        records = find_fixed_points(scenario)
        return [dataclasses.replace(r, state=dataclasses.replace(
            r.state, x=0.5 * r.state.x + 0.25)) for r in records]
    return corrupted


def _drop_first_label(basin_scan):
    def corrupted(*args, **kwargs):
        basin = basin_scan(*args, **kwargs)
        first = dataclasses.replace(basin.cells[0], label=None, unresolved=True)
        return dataclasses.replace(basin, cells=(first,) + basin.cells[1:])
    return corrupted


# Each corruption goes through the package functions the op calls, after
# set-up, so the harness sees a wrong output exactly as it would see a bug.
CORRUPTIONS = {
    "sweep": lambda ctx: setattr(ctx.cli, "threshold_bisect", lambda *a, **k: 2.0),
    "basin-map": lambda ctx: setattr(ctx.pkg, "basin_scan", _drop_first_label(ctx.pkg.basin_scan)),
    "trajectory": lambda ctx: setattr(ctx.cli, "trajectory_svg", lambda *a, **k: "<svg"),
    "fixed-points": lambda ctx: setattr(ctx.pkg, "find_fixed_points",
                                        _shift_records(ctx.pkg.find_fixed_points)),
}


class CorruptedOutput(unittest.TestCase):
    def setUp(self):
        self.workdir = os.path.join(run.OUT, "work", f"selftest-{os.getpid()}")
        os.makedirs(self.workdir, exist_ok=True)
        self.setup = run.setup

    def tearDown(self):
        run.setup = self.setup
        shutil.rmtree(self.workdir, ignore_errors=True)

    def test_corruption_is_counted(self):
        self.assertEqual(sorted(CORRUPTIONS), sorted(WORKLOADS))
        for name, corrupt in CORRUPTIONS.items():
            with self.subTest(workload=name):
                def corrupted_setup(*args, **kwargs):
                    ctx, took = self.setup(*args, **kwargs)
                    corrupt(ctx)
                    return ctx, took

                run.setup = corrupted_setup
                workload = run.sized(name, quick=True)
                timed, _, passes, metrics, _ = run.untraced_run(
                    workload, HELD_OUT_SEED, 0.01, True, self.workdir)
                result = run.result_line(timed, passes, metrics, [])
                self.assertGreaterEqual(result["failed"], 1)
                self.assertTrue(timed.problems)
                self.assertLess(metrics["ok_ratio"]["value"], 1.0)
                self.assertFalse(result["correct"])


if __name__ == "__main__":
    unittest.main()
