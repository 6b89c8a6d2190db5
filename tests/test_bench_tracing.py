"""The benchmark harness still installs on the package.

bench/tracing.py wraps the package's functions by module attribute, so a
refactor that moves an import (of make_rhs, say) can leave a bench run
counting nothing, or failing in set-up, while every other test passes.
"""

import dataclasses
import pathlib
import types

import ecoopinion.cli
from ecoopinion import find_fixed_points, preset_scenario, simulate
from ecoopinion.integrate import IntegratorSettings

TRACING = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


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
