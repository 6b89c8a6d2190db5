"""The benchmark harness still installs on the package.

bench/tracing.py wraps the package's functions by module attribute, so a
refactor that moves an import (of make_rhs, say) can leave a bench run
counting nothing, or failing in set-up, while every other test passes. So
each workload's traced path runs here: set-up, one op and the recording probe.
"""

import dataclasses
import importlib.util
import math
import pathlib
import random
import sys
import types

import pytest

import ecoopinion
import ecoopinion.cli
from ecoopinion import find_fixed_points, preset_scenario, simulate
from ecoopinion.integrate import IntegratorSettings

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
TRACING = BENCH / "tracing.py"


def load_tracing():
    """bench/tracing.py as a fresh module, read without writing bytecode
    next to it."""
    module = types.ModuleType("bench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), vars(module))
    return module


def test_counting_tracer_installs_and_restores():
    tracer = load_tracing().Tracer(record_spans=False)
    tracer.install()
    patched = list(tracer._patched)
    try:
        scenario = preset_scenario("hawk-dove")
        assert find_fixed_points(scenario)
        simulate(dataclasses.replace(scenario, settings=IntegratorSettings(t_max=0.5)))
        counts = tracer.snapshot()
    finally:
        tracer.remove()
    assert counts["make_rhs_calls"] > 0 and counts["rhs_evals"] > 0
    assert patched and tracer._patched == []
    for module, key, original in patched:
        assert getattr(module, key) is original, (module.__name__, key)


def test_cli_names_the_selftest_patches():
    # bench/selftest.py corrupts outputs through these two attributes.
    assert callable(ecoopinion.cli.threshold_bisect)
    assert callable(ecoopinion.cli.trajectory_svg)


@pytest.fixture(scope="module")
def bench_run():
    """bench/run.py loaded by path, with bench/ on sys.path for its own
    imports and no bytecode written next to it. Its setup, which imports the
    package afresh, is not called: the workloads run on the package this
    process has already imported."""
    saved = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(BENCH))
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
        module = sys.modules["bench_run"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)  # its dataclasses look the module up
    finally:
        sys.path[:], sys.dont_write_bytecode = saved
    yield module
    for name in ("bench_run", "tracing", "workloads"):
        sys.modules.pop(name, None)


@pytest.mark.parametrize("name", ["sweep", "basin-map", "trajectory", "fixed-points"])
def test_traced_set_up_op_and_probe(bench_run, tmp_path, name):
    # The path of a traced bench run: set-up and one op under span-recording
    # tracers, then the recording probe on untraced functions.
    workload = bench_run.WORKLOADS[name]
    raw = {"make_rhs": ecoopinion.make_rhs, "simulate": ecoopinion.simulate}
    ctx = bench_run.Context(ecoopinion, ecoopinion.cli, raw, str(tmp_path))
    setup_tracer = bench_run.Tracer(record_spans=True)
    with setup_tracer:
        ctx.inputs = setup_tracer.root("setup", workload.build, ctx, random.Random(0))
    tracer = bench_run.Tracer(record_spans=True)
    result = bench_run.Pass()
    with tracer:
        bench_run.run_op(workload, ctx, 0, result, tracer)
    assert (result.attempted, result.failed, result.problems) == (1, 0, [])
    assert {span[0] for span in tracer.spans} > {"op"}  # a package layer was wrapped
    problems = bench_run.check_nesting(setup_tracer.spans) + bench_run.check_nesting(tracer.spans)
    assert problems == []
    cost_us, samples = bench_run.record_us(ctx, workload.probe(ctx))
    assert samples > 0 and math.isfinite(cost_us)
