"""Benchmark harness for ecoopinion.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload sweep --seed 0 --seconds 25 --trace 0

One process is one closed-loop client: the next op starts only after the
previous one has completed and been checked. The package is imported from
``src/`` of the checkout holding this file; the harness refuses to run
without it. Everything the run writes goes under ``.bench_out/``.

``--trace 0`` sets up several times (median ``setup_s``), runs timed ops for
``--seconds``, then runs the reference inputs once more under a counting-only
tracer to collect deterministic work counters. ``--trace 1`` sets up once
under the tracer, runs every op twice, untraced and traced, and reports
per-layer metrics from the traced spans together with the tracing overhead.
Times are scaled by a calibration kernel timed between ops (see CAL_REF_NS).
The last line of standard output is the result object; the line before it
holds counters, digests, raw wall times, the environment and the tail's
sample count.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field, replace

from tracing import Tracer, check_nesting, config_loads, summarize
from workloads import WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 15
RECORD_REPEATS = 3
TAIL_BEYOND = 10
# End-to-end times are reported in reference units: each measured wall time
# is scaled by CAL_REF_NS over the time the calibration kernel took just
# before and just after it. On a shared machine whose speed drifts by tens of
# percent for minutes at a time, this keeps runs of one code comparable, while
# a change to the package moves the scaled times as much as the raw ones. The
# raw wall times are kept in the detail line.
CAL_REF_NS = 400_000
CAL_STEPS = 500
# The paired untraced and traced ops of a traced run take this share of
# --seconds; the rest is left for set-up and the layer probes.
TRACE_PAIRED_SHARE = 0.8


class HarnessError(RuntimeError):
    """The benchmark cannot run in this directory."""


@dataclass
class Context:
    pkg: object
    cli: object
    raw: dict
    workdir: str
    state: dict = field(default_factory=dict)
    inputs: list = field(default_factory=list)


@dataclass
class Pass:
    """Ops of one pass over the inputs, in order."""

    latencies_ns: list = field(default_factory=list)
    digests: list = field(default_factory=list)
    problems: list = field(default_factory=list)   # (op index, message)
    failed: int = 0
    output_bytes: list = field(default_factory=list)
    counters: list = field(default_factory=list)   # per-op Counter, when traced
    scales: list = field(default_factory=list)     # per-op CAL_REF_NS / kernel time
    wall_s: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies_ns)


# -- machine speed -----------------------------------------------------------

def _kernel_ns() -> int:
    """A fixed RK4 loop on a damped oscillator: the mix of closure calls,
    tuples, float arithmetic and list appends the package's integrator runs,
    but code of the benchmark's own, so no package change can move it."""
    t0 = time.perf_counter_ns()

    def f(x, v):
        return v, -x - 0.1 * v

    x, v, h = 1.0, 0.0, 0.01
    path = []
    for _ in range(CAL_STEPS):
        a = f(x, v)
        b = f(x + 0.5 * h * a[0], v + 0.5 * h * a[1])
        c = f(x + 0.5 * h * b[0], v + 0.5 * h * b[1])
        d = f(x + h * c[0], v + h * c[1])
        x += h / 6.0 * (a[0] + 2.0 * b[0] + 2.0 * c[0] + d[0])
        v += h / 6.0 * (a[1] + 2.0 * b[1] + 2.0 * c[1] + d[1])
        path.append((x, v))
    return time.perf_counter_ns() - t0


def kernel_ns() -> int:
    """Best of three kernel timings, so an interrupt does not count."""
    return min(_kernel_ns() for _ in range(3))


def scale(before_ns, after_ns) -> float:
    return 2.0 * CAL_REF_NS / (before_ns + after_ns)


# -- set-up ----------------------------------------------------------------

def import_package():
    """Import ecoopinion afresh from the checkout's src/."""
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    for name in [m for m in sys.modules if m == "ecoopinion" or m.startswith("ecoopinion.")]:
        del sys.modules[name]
    pkg = importlib.import_module("ecoopinion")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise HarnessError(f"imported ecoopinion from {pkg.__file__}, not from {SRC}")
    return pkg, importlib.import_module("ecoopinion.cli")


def setup(workload, seed, workdir, tracer=None):
    """Import the package and build the workload's inputs; returns the
    context and the seconds it took."""
    t0 = time.perf_counter()
    pkg, cli = import_package()
    raw = {"make_rhs": pkg.make_rhs, "simulate": pkg.simulate}
    ctx = Context(pkg, cli, raw, workdir)
    rng = random.Random(seed)
    if tracer is None:
        ctx.inputs = workload.build(ctx, rng)
    else:
        with tracer:
            ctx.inputs = tracer.root("setup", workload.build, ctx, rng)
    return ctx, time.perf_counter() - t0


# -- passes ----------------------------------------------------------------

def run_op(workload, ctx, i, result, tracer=None):
    """Run op i (input i modulo the cycle), check it, and add it to result."""
    inp = ctx.inputs[i % len(ctx.inputs)]
    before = tracer.snapshot() if tracer is not None else None
    t0 = time.perf_counter_ns()
    try:
        if tracer is not None:
            out = tracer.root("op", workload.run, ctx, inp)
        else:
            out = workload.run(ctx, inp)
        error = None
    except Exception as err:  # a failed op is counted, not fatal
        error = f"{type(err).__name__}: {err}"
    result.latencies_ns.append(time.perf_counter_ns() - t0)
    if tracer is not None:
        result.counters.append(tracer.snapshot() - before)
    if error is None:
        try:
            checked = workload.check(ctx, inp, out)
        except Exception as err:  # an unreadable output fails its op
            error = f"check raised {type(err).__name__}: {err}"
    if error is not None:
        result.digests.append(None)
        result.output_bytes.append(0)
        result.problems.append((i, error))
        result.failed += 1
    else:
        result.digests.append(checked.digest)
        result.output_bytes.append(checked.output_bytes)
        if checked.problems:
            result.failed += 1
            result.problems.extend((i, p) for p in checked.problems)


def run_pass(workload, ctx, seconds=None, count=None, tracer=None, calibrate=False):
    """Run ops in input order for `seconds` (at least one op) or, when count
    is given, exactly `count` ops; with calibrate, time the kernel between
    ops and keep each op's scale."""
    result = Pass()
    start = time.perf_counter()
    before = kernel_ns() if calibrate else None
    i = 0
    while (i < count) if count is not None else (i == 0 or time.perf_counter() - start < seconds):
        run_op(workload, ctx, i, result, tracer)
        if calibrate:
            after = kernel_ns()
            result.scales.append(scale(before, after))
            before = after
        i += 1
    result.wall_s = time.perf_counter() - start
    return result


def run_paired(workload, ctx, seconds, tracer):
    """Run each op untraced and traced, alternating which goes first, until
    `seconds` have passed and the reference set is covered; pairing keeps
    drift on a shared machine out of the tracing overhead."""
    plain, traced = Pass(), Pass()
    start = time.perf_counter()
    before = kernel_ns()
    i = 0
    while i < workload.ref_ops or time.perf_counter() - start < seconds:
        for use_tracer in ((False, True) if i % 2 == 0 else (True, False)):
            if use_tracer:
                with tracer:
                    run_op(workload, ctx, i, traced, tracer)
            else:
                run_op(workload, ctx, i, plain)
        after = kernel_ns()
        plain.scales.append(scale(before, after))
        before = after
        i += 1
    return plain, traced


def repeat_problems(workload, passes):
    """Every op on the same input, in any pass, must give the same digest."""
    first = {}
    problems = []
    for label, p in passes:
        for i, digest in enumerate(p.digests):
            key = i % workload.cycle
            if digest is None:
                continue
            if first.setdefault(key, (label, digest))[1] != digest:
                problems.append(f"input {key}: {label} op {i} digest differs from "
                                f"{first[key][0]}")
    return problems


def reference_counters(workload, p: Pass) -> dict:
    total = Counter()
    for counts in p.counters[:workload.ref_ops]:
        total.update(counts)
    total["output_bytes"] = sum(p.output_bytes[:workload.ref_ops])
    return {k: total[k] for k in sorted(total)}


def reference_digest(workload, p: Pass) -> str:
    h = hashlib.sha256()
    for digest in p.digests[:workload.ref_ops]:
        h.update(str(digest).encode())
    return h.hexdigest()


# -- statistics --------------------------------------------------------------

def tail(values):
    """Highest percentile with at least TAIL_BEYOND values beyond it: the
    value, its percentile and the sample count."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    k = n - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / n, n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- layer probes ------------------------------------------------------------

def record_us(ctx, scenario) -> tuple[float, int]:
    """Per-sample recording cost: the same run at record_every=1 minus the run
    at a stride that keeps only the endpoints, per extra sample."""
    simulate = ctx.raw["simulate"]
    st = scenario.settings
    stride = int(st.t_max / st.dt) + 2
    dense = replace(scenario, settings=replace(st, record_every=1))
    sparse = replace(scenario, settings=replace(st, record_every=stride))
    times = {"dense": [], "sparse": []}
    samples = {}
    for _ in range(RECORD_REPEATS):
        for key, sc in (("dense", dense), ("sparse", sparse)):
            t0 = time.perf_counter_ns()
            trajectory = simulate(sc)
            times[key].append(time.perf_counter_ns() - t0)
            samples[key] = len(trajectory.times)
    extra = samples["dense"] - samples["sparse"]
    cost = statistics.median(times["dense"]) - statistics.median(times["sparse"])
    return cost / extra / 1e3, extra


def rhs_ns(states) -> float:
    """Evaluator call time on sampled (evaluator, x, n, y) states, net of the
    loop's own cost, median of five timings."""
    if not states:
        return 0.0

    def noop(x, n, y):
        return None

    plain = [(noop, x, n, y) for _, x, n, y in states]
    rounds = max(1, 100_000 // len(states))

    def timed(items):
        t0 = time.perf_counter_ns()
        for _ in range(rounds):
            for f, x, n, y in items:
                f(x, n, y)
        return time.perf_counter_ns() - t0

    net = [timed(states) - timed(plain) for _ in range(5)]
    return statistics.median(net) / (rounds * len(states))


# -- environment and records -----------------------------------------------

def _tree_hash(*dirs) -> str:
    h = hashlib.sha256()
    for base in dirs:
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if name.endswith((".py", ".cfg", ".json")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def _git_commit():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _numpy_version():
    """numpy's version when it imports in a fresh interpreter, else None; the
    probe runs in a child so that it changes neither memory nor timings."""
    try:
        done = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                              capture_output=True, text=True, timeout=60, cwd=ROOT)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment() -> dict:
    lines = 0
    for dirpath, _, filenames in os.walk(os.path.join(SRC, "ecoopinion")):
        for name in filenames:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    lines += fh.read().count(b"\n")
    numpy = _numpy_version()
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "numpy_imports": numpy is not None,
        "numpy_version": numpy,
        "git_commit": _git_commit(),
        "src_lines": lines,
        "src_hash": _tree_hash(os.path.join(SRC, "ecoopinion")),
    }


def check_record(workload, seed, quick, counters, digest) -> list[str]:
    """Compare with the record of an earlier run of the same code, benchmark
    and seed, or leave one for later runs."""
    key = _tree_hash(os.path.join(SRC, "ecoopinion"), BENCH_DIR)[:16]
    size = "quick" if quick else "full"
    path = os.path.join(OUT, "records", f"{workload.name}-{seed}-{size}-{key}.json")
    mine = {"counters": counters, "digest": digest}
    if os.path.isfile(path):
        with open(path, encoding="utf-8") as fh:
            earlier = json.load(fh)
        problems = []
        if earlier["digest"] != digest:
            problems.append(f"reference digest differs from the earlier run in {path}")
        if earlier["counters"] != counters:
            problems.append(f"work counters differ from the earlier run in {path}")
        return problems
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(mine, fh, sort_keys=True)
    os.replace(tmp, path)
    return []


# -- runs ----------------------------------------------------------------------

def metric(value, unit):
    return {"value": value, "unit": unit}


def untraced_run(workload, seed, seconds, quick, workdir):
    setups, setup_scales = [], []
    before = kernel_ns()
    for _ in range(1 if quick else SETUP_REPEATS):
        ctx, took = setup(workload, seed, workdir)
        after = kernel_ns()
        setups.append(took)
        setup_scales.append(scale(before, after))
        before = after
    timed = run_pass(workload, ctx, seconds=seconds, calibrate=True)
    counting = Tracer(record_spans=False)
    with counting:
        ref = run_pass(workload, ctx, count=workload.ref_ops, tracer=counting)
    ok = timed.attempted - timed.failed

    def e2e(setup_s, lat_ns):
        lat_ms = [ns / 1e6 for ns in lat_ns]
        return {
            "setup_s": statistics.median(setup_s),
            "op_p50_ms": statistics.median(lat_ms),
            "op_tail_ms": tail(lat_ms)[0],
            "ops_per_s": ok / (sum(lat_ms) / 1e3),
        }

    scaled = e2e([t * k for t, k in zip(setups, setup_scales)],
                 [t * k for t, k in zip(timed.latencies_ns, timed.scales)])
    units = {"setup_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms", "ops_per_s": "1/s"}
    metrics = {name: metric(value, units[name]) for name, value in scaled.items()}
    metrics["ok_ratio"] = metric(ok / timed.attempted, "ratio")
    metrics["peak_rss_mb"] = metric(peak_rss_mb(), "MB")
    _, tail_pct, n = tail(timed.latencies_ns)
    detail = {
        "wall": e2e(setups, timed.latencies_ns),
        "kernel_scale": {"median": statistics.median(timed.scales),
                         "min": min(timed.scales), "max": max(timed.scales)},
        "op_tail": {"percentile": tail_pct, "n": n},
        "fail_ratio": timed.failed / timed.attempted,
        "wall_s": timed.wall_s,
    }
    passes = [("timed", timed), ("counting", ref)]
    return timed, ref, passes, metrics, detail


def traced_run(workload, seed, seconds, quick, workdir):
    setup_tracer = Tracer(record_spans=True)
    ctx, _ = setup(workload, seed, workdir, tracer=setup_tracer)
    tracer = Tracer(record_spans=True)
    plain, traced = run_paired(workload, ctx, seconds * TRACE_PAIRED_SHARE, tracer)
    ops = plain.attempted

    counts = tracer.snapshot()
    inclusive, self_ns, root_ns = summarize(tracer.spans)
    config_calls, config_ns = map(sum, zip(config_loads(setup_tracer.spans),
                                           config_loads(tracer.spans)))
    steps = counts["steps"]
    attempts = counts["label_attempts"]
    rec_us, rec_samples = record_us(ctx, workload.probe(ctx))
    plain_ns = sum(plain.latencies_ns)
    overhead_ns = sum(traced.latencies_ns) - plain_ns

    # Layer times are scaled like end-to-end times, by the run's median.
    k = statistics.median(plain.scales)

    def per_op(value):
        return value / ops

    def op_ms(ns):
        return ns * k / ops / 1e6

    metrics = {
        "dynamics.rhs_evals": metric(per_op(counts["rhs_evals"]), "count"),
        "dynamics.rhs_ns": metric(rhs_ns(tracer.rhs_states) * k, "ns"),
        "integrate.simulate_calls": metric(per_op(counts["simulate_calls"]), "count"),
        "integrate.steps": metric(per_op(steps), "count"),
        "integrate.samples": metric(per_op(counts["samples"]), "count"),
        "integrate.simulate_ms": metric(op_ms(inclusive["integrate.simulate"]), "ms"),
        "integrate.step_us": metric(self_ns["integrate.simulate"] * k / steps / 1e3 if steps else 0.0,
                                    "us"),
        "integrate.record_us": metric(rec_us * k, "us"),
        "analysis.find_fixed_points_ms":
            metric(op_ms(inclusive["analysis.find_fixed_points"]), "ms"),
        "analysis.fixed_points": metric(per_op(counts["fixed_points"]), "count"),
        "analysis.basin_scan_self_ms": metric(op_ms(self_ns["analysis.basin_scan"]), "ms"),
        "analysis.threshold_bisect_ms":
            metric(op_ms(inclusive["analysis.threshold_bisect"]), "ms"),
        "analysis.bisect_sims": metric(per_op(counts["bisect_sims"]), "count"),
        "analysis.resolved_ratio":
            metric(counts["labels_resolved"] / attempts if attempts else 1.0, "ratio"),
        "config.load_ms": metric(config_ns * k / config_calls / 1e6 if config_calls else 0.0, "ms"),
        "svgchart.render_ms": metric(op_ms(inclusive["svgchart.render"]), "ms"),
        "cli.self_ms": metric(op_ms(self_ns["cli.main"]), "ms"),
        "cli.output_bytes": metric(per_op(sum(traced.output_bytes)), "bytes"),
        "trace.overhead_ms": metric(op_ms(overhead_ns), "ms"),
        "trace.overhead_pct": metric(100.0 * overhead_ns / plain_ns, "%"),
    }
    span_problems = check_nesting(setup_tracer.spans) + check_nesting(tracer.spans)
    self_total = sum(self_ns.values())
    if self_total != root_ns:
        span_problems.append(f"span self times sum to {self_total} ns, root spans to {root_ns} ns")
    detail = {
        "ops": ops,
        "kernel_scale": k,
        "untraced_ms": plain_ns / 1e6,
        "traced_ms": sum(traced.latencies_ns) / 1e6,
        "self_ms": {k: v / 1e6 for k, v in sorted(self_ns.items())},
        "root_ms": root_ns / 1e6,
        "self_sum_ms": self_total / 1e6,
        "label_attempts": attempts,
        "config_calls": config_calls,
        "record_samples": rec_samples,
        "rhs_states": len(tracer.rhs_states),
        "span_problems": span_problems,
    }
    os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
    spans_path = os.path.join(OUT, "spans", f"{workload.name}-seed{seed}.json")
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start_ns", "end_ns", "parent"],
                   "setup": setup_tracer.spans, "ops": tracer.spans}, fh)
    detail["spans_file"] = os.path.relpath(spans_path, ROOT)
    passes = [("untraced", plain), ("traced", traced)]
    return traced, traced, passes, metrics, detail


def sized(name, quick):
    """The named workload; quick shrinks its reference set for the self-test."""
    workload = WORKLOADS[name]
    if quick:
        workload = type(workload)()
        workload.ref_ops = max(1, workload.ref_ops // 16)
    return workload


def result_line(main_pass, passes, metrics, problems) -> dict:
    """The result object: correct only when no op of any pass failed and no
    determinism or span problem was found."""
    return {
        "correct": not problems and all(p.failed == 0 for _, p in passes),
        "attempted": main_pass.attempted,
        "failed": main_pass.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ecoopinion benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="smallest reference set and one set-up (self-test size)")
    args = parser.parse_args(argv)
    workload = sized(args.workload, args.quick)
    if not math.isfinite(args.seconds) or args.seconds <= 0:
        parser.error("--seconds must be positive")

    workdir = os.path.join(OUT, "work", f"{workload.name}-{os.getpid()}")
    try:
        if not os.path.isdir(os.path.join(SRC, "ecoopinion")):
            raise HarnessError(f"no package source at {os.path.join(SRC, 'ecoopinion')}")
        os.makedirs(workdir, exist_ok=True)
        run = traced_run if args.trace else untraced_run
        main_pass, ref, passes, metrics, detail = run(
            workload, args.seed, args.seconds, args.quick, workdir)
    except HarnessError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    counters = reference_counters(workload, ref)
    digest = reference_digest(workload, ref)
    determinism = repeat_problems(workload, passes)
    determinism += check_record(workload, args.seed, args.quick, counters, digest)
    determinism += detail.get("span_problems", [])
    detail.update({
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "reference_ops": workload.ref_ops,
        "counters": counters,
        "digest": digest,
        "problems": [f"op {i}: {msg}" for i, msg in main_pass.problems[:20]],
        "determinism_problems": determinism,
        "environment": environment(),
    })
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    result = result_line(main_pass, passes, metrics, determinism)
    path = os.path.join(OUT, "results",
                        f"{workload.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"result": result, "detail": detail}, fh, indent=1, sort_keys=True)
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
