import dataclasses
import hashlib
import math
import multiprocessing
import os
import random
import signal
import subprocess
import sys
import threading
import time
import warnings

import pytest

from ecoopinion import (
    BlowupError,
    EnvParams,
    FixedPointRecord,
    GamePair,
    NoBoundaryError,
    Payoff2x2,
    SystemState,
    TrustMatrix,
    UnresolvedCellError,
    basin_scan,
    find_fixed_points,
    hawk_dove_matrix,
    label_for,
    make_rhs,
    nearest_fixed_point,
    preset_scenario,
    preset_text,
    simulate,
    threshold_bisect,
)
from ecoopinion import analysis
from ecoopinion.dynamics import PROTOCOL_MODES, _bind
from ecoopinion.scenario import Scenario
from ecoopinion.traps import _differentiate, find_traps

HD_PAIR = GamePair(hawk_dove_matrix(4, 12), hawk_dove_matrix(7, 10))
PD_PAIR = GamePair(Payoff2x2(3.5, 1, 2, 0.75), Payoff2x2(4, 1, 4.5, 1.25))
ENV = EnvParams(2.0, -1.0)
TRUST = TrustMatrix(0.5, 0.0, 0.0, 0.5)


def has_point(records, x, n, y, tol=1e-9):
    return any(
        abs(r.state.x - x) <= tol and abs(r.state.n - n) <= tol and abs(r.state.y - y) <= tol
        for r in records
    )


class TestFindFixedPoints:
    def test_hawk_dove_family_line(self, hawk_dove):
        records = find_fixed_points(hawk_dove)
        family = [r for r in records if r.family == "n"]
        # the environment drift vanishes at x = 1/3, which is also the
        # depleted game's mixed equilibrium, so the whole n-line at y = 0 is
        # stationary and sampled at five representative points
        assert len(family) == 5
        for r in family:
            assert r.state.x == pytest.approx(1 / 3, abs=1e-12)
            assert r.state.y == 0.0
        assert len({label_for(r) for r in family}) == 1
        assert "n=*" in label_for(family[0])

    def test_hawk_dove_replenished_attractor(self, hawk_dove):
        records = find_fixed_points(hawk_dove)
        assert has_point(records, 0.7, 1.0, 1.0)

    def test_hawk_dove_corner_filtering(self, hawk_dove):
        records = find_fixed_points(hawk_dove)
        for corner in [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 1, 0)]:
            assert has_point(records, *corner)
        # hawks earn a negative payoff against hawks, so at x=1, y=1 the
        # protocol still fires and the corner is not stationary
        assert not has_point(records, 1.0, 0.0, 1.0)
        assert not has_point(records, 1.0, 1.0, 1.0)

    def test_pd_all_corners_and_replenished_state(self, prisoners):
        records = find_fixed_points(prisoners)
        for x in (0.0, 1.0):
            for n in (0.0, 1.0):
                for y in (0.0, 1.0):
                    assert has_point(records, x, n, y)
        assert any(r.state.n == 1.0 for r in records)

    def test_residuals_verified(self, hawk_dove, prisoners):
        for scenario in (hawk_dove, prisoners):
            records = find_fixed_points(scenario)
            assert records
            f = make_rhs(scenario.pair, scenario.env, scenario.trust,
                         scenario.protocol_matrix_mode)
            for r in records:
                assert r.residual < 1e-10
                d = f(r.state.x, r.state.n, r.state.y)
                assert max(abs(d[0]), abs(d[1]), abs(d[2])) == r.residual

    def test_overflowing_derivative_verifies_no_record(self):
        # Payoffs near the float limit overflow the derivative at every
        # candidate; a NaN residual is no verified stationary point.
        big = Payoff2x2(1e308, 1e308, -1e308, -1e308)
        sc = Scenario(GamePair(big, big), ENV, TrustMatrix(1, 1, 1, 1), SystemState(0.5, 0.3, 0.5))
        assert all(r.residual < analysis.RESIDUAL_TOL for r in find_fixed_points(sc))

    def test_zero_trust_freezes_opinions(self):
        # with no trust anywhere the opinion share never moves, so each
        # per-opinion replicator null appears at both y = 0 and y = 1
        sc = Scenario(HD_PAIR, ENV, TrustMatrix(0, 0, 0, 0), SystemState(0.5, 0.3, 0.5))
        records = find_fixed_points(sc)
        assert has_point(records, 1 / 3, 0.0, 0.0, tol=1e-6)
        assert has_point(records, 0.7, 0.0, 1.0, tol=1e-6)
        assert has_point(records, 0.7, 1.0, 1.0, tol=1e-6)

    def test_environment_null_line_without_bracket_root(self):
        # The environment drift vanishes at x = 1/4, where both games favour
        # hawks (v/c is 1/3 and 0.7): the replicator bracket has no root in y,
        # so the line adds no record.
        sc = Scenario(HD_PAIR, EnvParams(3.0, -1.0), TRUST, SystemState(0.5, 0.3, 0.5))
        records = find_fixed_points(sc)
        assert has_point(records, 0.7, 1.0, 1.0)
        assert not any(r.family == "n" or abs(r.state.x - 0.25) < 1e-9 for r in records)

    def test_bracket_free_of_x_has_no_replicator_null(self, hawk_dove):
        # Both games have a11 - a12 - a21 + a22 == 0, so the replicator bracket
        # u1 - u2 does not depend on x: no y has an interior x root, and every
        # record sits on a face x = 0 or x = 1.
        pair = GamePair(Payoff2x2(1, 0, 0, -1), Payoff2x2(2, 1, 1, 0))
        sc = Scenario(pair, hawk_dove.env, hawk_dove.trust, SystemState(0.5, 0.5, 0.5))
        records = find_fixed_points(sc)
        assert len(records) == 8
        assert {r.state.x for r in records} <= {0.0, 1.0}
        assert not any(r.kind == "replicator-interior" for r in records)

    def test_kinds_are_structural(self, hawk_dove):
        records = find_fixed_points(hawk_dove)
        kinds = {r.kind for r in records}
        assert "corner" in kinds
        assert "replicator-interior" in kinds
        assert "environment-interior" in kinds
        for r in records:
            interior = [0.0 < v < 1.0 for v in (r.state.x, r.state.n, r.state.y)]
            if r.kind == "corner":
                assert not any(interior)
            elif r.kind == "replicator-interior":
                assert interior == [True, False, False]
            elif r.kind == "environment-interior":
                assert interior[1] and not interior[2]


def fixed_point_corpus(seed=8080, count=150):
    """Seeded scenarios for find_fixed_points: both presets, then random games
    with shared, zero and signed-zero entries and random hawk-dove pairs, some
    with a mixed equilibrium on the environment-null line, under zero and unit
    trust, psi of either zero or negative, and both protocol modes."""
    rng = random.Random(seed)

    def entry():
        r = rng.random()
        if r < 0.1:
            return 0.0
        if r < 0.15:
            return -0.0
        if r < 0.3:
            return float(rng.randint(-5, 5))
        return rng.uniform(-10.0, 10.0)

    yield preset_scenario("hawk-dove")
    yield preset_scenario("prisoners-dilemma")
    for k in range(count - 2):
        theta = rng.uniform(0.01, 3.0)
        psi = rng.choice((0.0, -0.0, -rng.uniform(0.0, 3.0)))
        if k % 4 < 2:
            a0 = [entry() for _ in range(4)]
            a1 = [a if rng.random() < 0.3 else entry() for a in a0]
            pair = GamePair(Payoff2x2(*a0), Payoff2x2(*a1))
        else:
            v0, v1 = rng.uniform(0.5, 5.0), rng.uniform(0.5, 5.0)
            c0, c1 = v0 + rng.uniform(0.1, 10.0), v1 + rng.uniform(0.1, 10.0)
            if k % 4 == 3:
                # Put the depleted game's mixed equilibrium v0/c0 on the
                # environment-null line; half the time the replenished game's
                # too, so the replicator bracket vanishes along the whole line.
                psi = -theta * v0 / (c0 - v0)
                if rng.random() < 0.5:
                    v1, c1 = 2.0 * v0, 2.0 * c0
            pair = GamePair(hawk_dove_matrix(v0, c0), hawk_dove_matrix(v1, c1))
        trust = TrustMatrix(*[rng.choice((0.0, 1.0, rng.random())) for _ in range(4)])
        yield Scenario(pair, EnvParams(theta, psi), trust, SystemState(0.5, 0.5, 0.5),
                       protocol_matrix_mode=rng.choice(PROTOCOL_MODES))


def bench_like_scenarios(seed=8091, count=256):
    """Seeded random games drawn like the benchmark's fixed-points inputs:
    payoff entries uniform in [-5, 5], theta in [0.2, 3], psi = 0 on every
    eighth pair and otherwise in [-3, -0.05], uniform trust, and the two
    protocol modes alternating."""
    rng = random.Random(seed)
    for k in range(count):
        a0 = [rng.uniform(-5.0, 5.0) for _ in range(4)]
        a1 = [rng.uniform(-5.0, 5.0) for _ in range(4)]
        psi = 0.0 if (k // 2) % 8 == 0 else -rng.uniform(0.05, 3.0)
        trust = TrustMatrix(*[rng.random() for _ in range(4)])
        theta = rng.uniform(0.2, 3.0)
        yield Scenario(GamePair(Payoff2x2(*a0), Payoff2x2(*a1)), EnvParams(theta, psi), trust,
                       SystemState(0.5, 0.5, 0.5), protocol_matrix_mode=PROTOCOL_MODES[k % 2])


class TestFixedPointBits:
    # sha256 of every record's float.hex() fields, kind and family: over
    # fixed_point_corpus() (DIGEST) and over bench_like_scenarios()
    # (BENCH_DIGEST); the golden files pin only the two presets.
    DIGEST = "f272d3a9191d62b8732bb253ba92ae1c525dfbcaaca894c2a02ee3071c3501a6"
    BENCH_DIGEST = "b40c2c696a4f53b41222208676738e39f0f10bdd9e153848f05613ae425d52ce"

    @staticmethod
    def _digest(scenarios):
        digest = hashlib.sha256()
        count = 0
        for scenario in scenarios:
            for r in find_fixed_points(scenario):
                fields = (r.state.x, r.state.n, r.state.y, r.residual)
                digest.update((" ".join(v.hex() for v in fields)
                               + f" {r.kind} {r.family}\n").encode())
            digest.update(b"--\n")
            count += 1
        return count, digest.hexdigest()

    def test_records_bit_identical(self):
        assert self._digest(fixed_point_corpus()) == (150, self.DIGEST)

    def test_bench_like_records_bit_identical(self):
        assert self._digest(bench_like_scenarios()) == (256, self.BENCH_DIGEST)


class TestNearestFixedPoint:
    def test_ties_keep_the_first_record(self, hawk_dove):
        # Along the family line every sample lies at distance 0; the first wins.
        records = find_fixed_points(hawk_dove)
        line = [r for r in records if r.family == "n"]
        assert [r.state.n for r in line] == [0.0, 0.25, 0.5, 0.75, 1.0]
        record, dist = nearest_fixed_point(SystemState(1 / 3, 0.6, 0.0), records)
        assert record is line[0] and dist == 0.0

    def test_no_records(self):
        assert nearest_fixed_point(SystemState(0.5, 0.5, 0.5), []) == (None, math.inf)


class TestBasinScan:
    def test_two_seed_labels(self, hawk_dove):
        basin = basin_scan(hawk_dove, "y0", [0.45, 0.7])
        low, high = basin.cells
        assert low.label is not None and "x=0.3333" in low.label
        assert high.label is not None and "x=0.7000" in high.label

    def test_single_point_at_fixed_point(self, prisoners):
        sc = dataclasses.replace(prisoners, initial=SystemState(1.0, 1.0, 0.0))
        basin = basin_scan(sc, "y0", [0.0])
        (cell,) = basin.cells
        assert cell.converged and not cell.unresolved
        assert cell.label == "x=1.0000 n=1.0000 y=0.0000"

    def test_eleven_point_monotone_structure(self, hawk_dove):
        basin = basin_scan(hawk_dove, "y0", [k / 10 for k in range(11)])
        labels = [c.label for c in basin.cells]
        assert all(label is not None for label in labels)
        switches = sum(1 for a, b in zip(labels, labels[1:]) if a != b)
        assert switches == 1

    def test_deterministic(self, hawk_dove):
        grid = [0.2, 0.45, 0.7]
        assert basin_scan(hawk_dove, "y0", grid) == basin_scan(hawk_dove, "y0", grid)

    def test_unresolved_mid_transient(self, hawk_dove):
        settings = dataclasses.replace(hawk_dove.settings, t_max=0.5, hold_time=0.1)
        sc = dataclasses.replace(hawk_dove, settings=settings)
        basin = basin_scan(sc, "y0", [0.45])
        (cell,) = basin.cells
        assert cell.unresolved and cell.label is None and not cell.converged

    def test_rejects_bad_axis_and_grid(self, hawk_dove, monkeypatch):
        def no_cell_runs(scenario):
            raise AssertionError("a cell ran before the grid was checked")

        monkeypatch.setattr(analysis, "simulate", no_cell_runs)
        with pytest.raises(ValueError):
            basin_scan(hawk_dove, "z0", [0.5])
        with pytest.raises(ValueError):
            basin_scan(hawk_dove, "y0", [1.5])
        with pytest.raises(ValueError) as exc:
            basin_scan(hawk_dove, "y0", [0.5, float("nan")])
        assert exc.value.key == "y0"

    def test_terminals_within_label_radius(self, hawk_dove):
        records = find_fixed_points(hawk_dove)
        basin = basin_scan(hawk_dove, "y0", [0.0, 0.3, 0.6, 1.0], fixed_points=records)
        for cell in basin.cells:
            assert not cell.unresolved
            record = next(r for r in records if label_for(r) == cell.label)
            _, dist = nearest_fixed_point(cell.terminal, [record])
            assert dist <= 1e-3


def _cell_bits(cell):
    terminal = None if cell.terminal is None else (
        cell.terminal.x.hex(), cell.terminal.n.hex(), cell.terminal.y.hex())
    return (cell.initial.hex(), terminal, cell.label, cell.converged, cell.unresolved,
            cell.error, cell.steps, cell.reason)


def _map_bits(basin):
    return basin.axis, tuple(g.hex() for g in basin.grid), [_cell_bits(c) for c in basin.cells]


def _bisect_root(g, lo, hi, vlo):
    """Bisect g on [lo, hi], where g(lo) = vlo, down to 1e-15 or 80 halvings;
    an undefined (None) or zero value ends it there."""
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        vm = g(mid)
        if vm is None or vm == 0.0:
            return mid
        if (vm > 0.0) == (vlo > 0.0):
            lo, vlo = mid, vm
        else:
            hi = mid
        if hi - lo < 1e-15:
            break
    return 0.5 * (lo + hi)


# The dense scan that find_fixed_points used before it took the locator's
# roots: dy at this many evenly spaced y, and its near-zero threshold.
_SCAN_SAMPLES = 1001
_SCAN_ZERO_TOL = 1e-12


def _dense_scan_roots(h):
    """Roots of h on [0, 1] as the dense scan reports them: h at every grid
    point (None where undefined), each run of near-zero samples collapsed to
    its midpoint and each sign change between neighbouring samples bisected."""
    samples, zero_tol = _SCAN_SAMPLES, _SCAN_ZERO_TOL
    step = (1.0 - 0.0) / (samples - 1)
    pts = [0.0 + step * i for i in range(samples)]
    vals = [h(p) for p in pts]
    roots = set()
    i = 0
    while i < samples:
        v = vals[i]
        if v is not None and abs(v) <= zero_tol:
            j = i
            while j + 1 < samples and vals[j + 1] is not None and abs(vals[j + 1]) <= zero_tol:
                j += 1
            roots.add(0.5 * (pts[i] + pts[j]))
            i = j + 1
        else:
            i += 1
    for i in range(samples - 1):
        va, vb = vals[i], vals[i + 1]
        if va is None or vb is None or abs(va) <= zero_tol or abs(vb) <= zero_tol:
            continue
        if (va > 0.0) != (vb > 0.0):
            roots.add(_bisect_root(h, pts[i], pts[i + 1], va))
    return roots


def _curves(scenario):
    """(x(y), n) of each curve find_fixed_points searches in y, in its order:
    the faces x = 0 and x = 1 (n sampled where the environment factor
    vanishes), then the replicator null u1 = u2 on n = 0 and n = 1, where
    x(y) is None outside (0, 1)."""
    f = scenario.rhs()
    theta, psi = scenario.env.theta, scenario.env.psi

    def x_null(y):
        _, _, _, m11, m21, _, _ = f(1.0, 0.0, y)
        _, _, _, m12, m22, _, _ = f(0.0, 0.0, y)
        den = m11 - m12 - m21 + m22
        if abs(den) < 1e-12:
            return None
        root = (m22 - m12) / den
        return root if 0.0 < root < 1.0 else None

    faces = [(lambda y, x=x: x, n) for x in (0.0, 1.0)
             for n in (analysis.FAMILY_SAMPLES
                       if abs(theta * x + psi * (1.0 - x)) <= analysis._ZERO_TOL else (0.0, 1.0))]
    return faces + [(x_null, 0.0), (x_null, 1.0)]


def _dense_scan_records(scenario):
    """The (x, n, y) that the dense scan of dy along each curve, plus y in
    {0, 1}, gives and that pass find_fixed_points' snap and residual check."""
    f = scenario.rhs()
    points = []
    for x_of_y, n in _curves(scenario):
        def h(y):
            x = x_of_y(y)
            return None if x is None else f(x, n, y)[2]

        for y in sorted({0.0, 1.0} | _dense_scan_roots(h)):
            x = x_of_y(y)
            if x is None:
                continue
            point = tuple(analysis._snap01(v) for v in (x, n, y))
            if max(abs(d) for d in f(*point)[:3]) < analysis.RESIDUAL_TOL:
                points.append(point)
    return points


def _sign(v):
    return (v > 0.0) - (v < 0.0)


class TestLocator:
    def test_records_contain_dense_scan(self):
        # Both protocol modes, zero and unit trust, psi = +-0.0, shared and
        # signed-zero game entries; a corpus the digest above does not pin.
        corpus = list(fixed_point_corpus(seed=8081, count=200))
        lost = []
        for k, sc in enumerate(corpus):
            records = find_fixed_points(sc)
            lost += [(k, p) for p in _dense_scan_records(sc) if not has_point(records, *p, 1e-12)]
        # A grid sample on the replicator null at n = 1, along which the
        # locator vanishes identically: the record is its piece's midpoint.
        assert lost == [(198, (0.4200945742924907, 1.0, 0.7070000000000001))]
        assert has_point(find_fixed_points(corpus[198]), 0.4198037639692485, 1.0,
                         0.7071747935747477, 0.0)

    @pytest.mark.parametrize("index, x, y, tangential", [
        # x(y) stays inside (0, 1) on a window narrower than the grid spacing.
        (18, 0.2315887610922576, 0.37321457899850974, False),
        # The locator has a double root: dy keeps its sign on both sides.
        (87, 5.373405160046772e-07, 0.8292891791847614, True),
    ], ids=["between grid samples", "tangential"])
    def test_root_the_dense_scan_misses(self, index, x, y, tangential):
        scenario = list(fixed_point_corpus(8080))[index]
        f = scenario.rhs()
        records = find_fixed_points(scenario)
        dense = _dense_scan_records(scenario)
        for n in (0.0, 1.0):
            assert has_point(records, x, n, y, 1e-12)
            assert all(max(abs(p[0] - x), abs(p[1] - n), abs(p[2] - y)) > 1e-6 for p in dense)
            sides = _sign(f(x, n, y - 1e-6)[2]), _sign(f(x, n, y + 1e-6)[2])
            assert (sides[0] == sides[1] != 0) == tangential, sides

    @pytest.mark.parametrize("preset", ["hawk-dove", "prisoners-dilemma"])
    def test_kernel_calls_per_preset(self, monkeypatch, preset):
        calls = [0]

        def counting_make_rhs(*args):
            f = make_rhs(*args)

            def rhs(x, n, y):
                calls[0] += 1
                return f(x, n, y)
            return rhs

        monkeypatch.setattr("ecoopinion.scenario.make_rhs", counting_make_rhs)
        records = find_fixed_points(preset_scenario(preset))
        assert records
        assert 0 < calls[0] <= 30  # 28 and 29; the dense scan made 10,158 and 8,775

    def test_one_build_and_search_per_curve_entry(self, monkeypatch):
        # One find_fixed_points call builds one locator per curve entry: per
        # curve in opinion mode (the protocol matrix is A_y at every n), per
        # curve and n in env mode. It searches each entry's locator in entry
        # order, or, where that vanishes identically on the replicator null,
        # the null's edges num, den and den - num; a face has no edges. Equal
        # polynomials of two entries are searched twice.
        real_roots, real_locator = analysis._poly_roots, analysis._locator
        depth, searched, locators = [0], [], []

        def spying(p):
            if not depth[0]:  # not _poly_roots' own recursion
                searched.append(tuple(p))
            depth[0] += 1
            try:
                return real_roots(p)
            finally:
                depth[0] -= 1

        def recording(p, q, protocol, trust):
            locators.append((tuple(p), tuple(real_locator(p, q, protocol, trust))))
            return list(locators[-1][1])

        monkeypatch.setattr(analysis, "_poly_roots", spying)
        monkeypatch.setattr(analysis, "_locator", recording)

        def searches(sc):
            searched.clear()
            locators.clear()
            find_fixed_points(sc)
            return list(searched)

        null_zero_calls = 0
        for sc in fixed_point_corpus():
            found = searches(sc)
            opinion = sc.protocol_matrix_mode == "opinion"
            assert len(locators) == (3 if opinion else len(_curves(sc)))
            a_y = [[a, b - a] for a, b in zip(sc.pair.a0.entries(), sc.pair.a1.entries())]
            num = [c22 - c12 for c12, c22 in zip(a_y[1], a_y[3])]
            den = [c11 - c12 - c21 + c22 for c11, c12, c21, c22 in zip(*a_y)]
            edges = [tuple(num), tuple(den), tuple(d - u for d, u in zip(den, num))]
            expected = []
            for curve, p in locators:
                if any(p):
                    expected.append(p)
                elif len(curve) == 2:  # the faces' p is [x]; the null's is num, of degree 1
                    expected += edges
                    null_zero_calls += 1
            assert found == expected
        assert null_zero_calls > 0
        counts = {(preset, mode): (len(searches(dataclasses.replace(
                      preset_scenario(preset), protocol_matrix_mode=mode))), len(locators))
                  for preset in ("hawk-dove", "prisoners-dilemma") for mode in PROTOCOL_MODES}
        assert counts == {("hawk-dove", "env"): (6, 6), ("hawk-dove", "opinion"): (3, 3),
                          ("prisoners-dilemma", "env"): (6, 6),
                          ("prisoners-dilemma", "opinion"): (3, 3)}

    @pytest.mark.parametrize("mode", PROTOCOL_MODES)
    def test_locator_sign_is_the_sign_of_dy(self, monkeypatch, mode):
        # The locator writes q21 a second time; it must agree with make_rhs
        # wherever dy is clearly away from 0. Its curve x = p/(p + q) must
        # be the one find_fixed_points pairs it with.
        rng = random.Random(8083)
        checked = 0
        built = []
        real = analysis._locator

        def recording(p, q, protocol, trust):
            built.append((p, q, real(p, q, protocol, trust)))
            return built[-1][2]

        monkeypatch.setattr(analysis, "_locator", recording)
        for sc in fixed_point_corpus(seed=8084, count=100):
            sc = dataclasses.replace(sc, protocol_matrix_mode=mode)
            built.clear()
            find_fixed_points(sc)
            curves = _curves(sc)
            # One build per curve and protocol matrix, in curve order; in
            # opinion mode the matrix does not depend on n.
            keys = [(x_of_y(0.5) if k < len(curves) - 2 else "null",
                     n if mode == "env" else None) for k, (x_of_y, n) in enumerate(curves)]
            order = list(dict.fromkeys(keys))
            assert len(built) == len(order)
            f = sc.rhs()
            for (x_of_y, n), key in zip(curves, keys):
                p, q, locator = built[order.index(key)]
                for _ in range(40):
                    y = rng.uniform(1e-6, 1.0 - 1e-6)
                    x = x_of_y(y)
                    if x is None:
                        continue
                    pv, qv = analysis._poly_at(p, y), analysis._poly_at(q, y)
                    assert math.isclose(pv / (pv + qv), x, rel_tol=1e-9, abs_tol=1e-12)
                    dy = f(x, n, y)[2]
                    if abs(dy) > 1e-9:
                        assert _sign(analysis._poly_at(locator, y)) == _sign(dy), (locator, y, dy)
                        checked += 1
        assert checked > 10_000


def _reference_poly_roots(p):
    """analysis._poly_roots as it was before it bisected with Horner inline:
    _bisect_root on _poly_at."""
    if not any(p[1:]):
        return []
    cuts = [0.0, *_reference_poly_roots(analysis._poly_deriv(p)), 1.0]
    roots = {t for t in cuts if analysis._poly_at(p, t) == 0.0}
    for lo, hi in zip(cuts, cuts[1:]):
        vlo, vhi = analysis._poly_at(p, lo), analysis._poly_at(p, hi)
        if (vlo < 0.0 < vhi) or (vhi < 0.0 < vlo):
            roots.add(_bisect_root(lambda t: analysis._poly_at(p, t), lo, hi, vlo))
    return sorted(roots)


def _random_polys(seed, count):
    """Seeded polynomials of degree 0-5 with zero, -0.0 and repeated
    coefficients, some with roots at 0, at 1 and double roots inside."""
    rng = random.Random(seed)

    def coeff(prev):
        r = rng.random()
        if r < 0.1:
            return 0.0
        if r < 0.2:
            return -0.0
        if r < 0.3 and prev is not None:
            return prev
        if r < 0.4:
            return float(rng.randint(-3, 3))
        return rng.uniform(-10.0, 10.0)

    for _ in range(count):
        p = []
        for _ in range(rng.randint(1, 6)):
            p.append(coeff(p[-1] if p else None))
        for _ in range(rng.randint(0, 2)):
            r = rng.choice((0.0, 1.0, rng.random()))
            factor = [-r, 1.0] if rng.random() < 0.5 else [r * r, -2.0 * r, 1.0]
            if len(p) + len(factor) <= 7:  # degree at most 5
                p = analysis._poly_mul(p, factor)
        yield p


def _edge_polys():
    """Polynomials whose leading coefficient is 0.0 or -0.0, and polynomials
    with dyadic roots (0.5, 0.25, 0.375), which a bisection midpoint can hit
    exactly, in both signs (so brackets rise and fall) and with a
    signed-zero leading coefficient. (t - r)*(t + 2)**(d - 1) rises on [0, 1]
    for d <= 4, so its one bracket is [0, 1] and a midpoint lands on r at
    each degree from 1 to 4; degrees 5 and 6 take the generic evaluation."""
    dyadic = [[-0.5, 1.0], [-0.25, 1.0], [-0.375, 1.0], [0.0, 1.0]]
    products = [analysis._poly_mul(p, q) for i, p in enumerate(dyadic) for q in dyadic[i:]]
    products += [analysis._poly_mul(p, q) for p in products for q in dyadic[:3]]
    for p in dyadic[:3]:
        for _ in range(5):
            p = analysis._poly_mul(p, [2.0, 1.0])
            products.append(p)
    interior = [[-r, 1.0] for r in (0.1, 0.3, 0.55, 0.7, 0.9, 0.2)]
    for k in (5, 6):
        p = [1.0]
        for q in interior[:k]:
            p = analysis._poly_mul(p, q)
        products += [p, analysis._poly_mul(p, [0.5, -1.0])]
    for p in [*dyadic, *products, *_random_polys(8087, 200)]:
        for scale in (1.0, -3.0):
            q = [scale * c for c in p]
            yield q
            yield [*q, 0.0]
            yield [*q, -0.0]
            yield [*q, -0.0, 0.0]


def _hex(values):
    return [v.hex() for v in values]


class TestPolyRoots:
    def _check(self, polys):
        for p in polys:
            assert _hex(analysis._poly_roots(p)) == _hex(_reference_poly_roots(p)), p

    def test_corpus_polynomials_bit_identical(self, monkeypatch):
        # Every locator, num/den/rest polynomial and derivative of them that
        # find_fixed_points hands to _poly_roots on the corpus.
        seen = {}
        real = analysis._poly_roots

        def recording(p):
            seen.setdefault(tuple(v.hex() for v in p), list(p))
            return real(p)

        monkeypatch.setattr(analysis, "_poly_roots", recording)
        for sc in fixed_point_corpus(8080):
            find_fixed_points(sc)
        monkeypatch.undo()
        assert len(seen) > 1000
        self._check(seen.values())

    def test_random_polynomials_bit_identical(self):
        polys = list(_random_polys(8086, 4000))
        assert sum(1 for p in polys if analysis._poly_roots(p)) > 1000
        edge = list(_edge_polys())
        assert {0.25, 0.375, 0.5} <= {t for p in edge for t in analysis._poly_roots(p)}
        self._check(polys + edge)


class _CellFailure(RuntimeError):
    """Raised by a patched cell run; not a BlowupError, so it must propagate."""


def _scan_in_pool_worker(scenario):
    return _map_bits(basin_scan(scenario, "y0", [0.45, 0.7]))


def _no_pool(*args, **kwargs):
    raise AssertionError("a serial scan asked multiprocessing for a pool")


@pytest.mark.skipif(sys.platform != "linux", reason="parallel scans fork, on Linux only")
class TestParallelScan:
    GRID = [k / 10 for k in range(11)]

    @pytest.fixture()
    def two_cpus(self, monkeypatch):
        # The serial rules must hold on a machine that has the CPUs to fork.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

    @pytest.fixture()
    def no_pool(self, monkeypatch, two_cpus):
        monkeypatch.setattr(multiprocessing, "get_context", _no_pool)

    def _both(self, monkeypatch, scenario, grid):
        monkeypatch.setattr(analysis, "_scan_workers", lambda cells: 2)
        parallel = basin_scan(scenario, "y0", grid)
        monkeypatch.setattr(analysis, "_scan_workers", lambda cells: 1)
        serial = basin_scan(scenario, "y0", grid)
        return parallel, serial

    @pytest.mark.parametrize("preset", ["hawk-dove", "prisoners-dilemma"])
    def test_parallel_cells_equal_serial_bits(self, monkeypatch, preset):
        parallel, serial = self._both(monkeypatch, preset_scenario(preset), self.GRID)
        assert _map_bits(parallel) == _map_bits(serial)
        assert len({c.label for c in parallel.cells}) > 1
        start = preset_scenario(preset).with_initial("y0", self.GRID[3])
        trajectory = simulate(start)
        assert (parallel.cells[3].steps, parallel.cells[3].reason) == (
            trajectory.steps, trajectory.reason)

    def test_blowup_cells_equal_serial_bits(self, monkeypatch, hawk_dove):
        sc = dataclasses.replace(hawk_dove, settings=dataclasses.replace(hawk_dove.settings, dt=3.0))
        parallel, serial = self._both(monkeypatch, sc, [0.0, 0.45, 1.0])
        assert _map_bits(parallel) == _map_bits(serial)
        for cell in parallel.cells:
            assert cell.terminal is None and cell.reason == "blowup" and cell.steps >= 0
            assert cell.error.startswith("component ") and cell.error.endswith("reduce dt")

    def test_no_worker_outlives_the_scan(self, monkeypatch, hawk_dove):
        monkeypatch.setattr(analysis, "_scan_workers", lambda cells: 2)
        basin_scan(hawk_dove, "y0", [0.45, 0.7])
        assert multiprocessing.active_children() == []

        real = analysis._run_and_label

        def failing(start, records, traps=()):
            if start.initial.y == 0.5:
                raise _CellFailure("cell at y0=0.5 failed")
            return real(start, records, traps)

        monkeypatch.setattr(analysis, "_run_and_label", failing)
        with pytest.raises(_CellFailure, match="y0=0.5"):
            basin_scan(hawk_dove, "y0", [0.45, 0.5, 0.7])
        assert multiprocessing.active_children() == []
        # The pool's helper threads are gone too, so the next scan may fork.
        assert threading.active_count() == 1
        # A joined thread can stay listed by the OS for a moment, and
        # _scan_workers counts OS threads; wait until it has left.
        if sys.platform == "linux":
            deadline = time.monotonic() + 10
            while len(os.listdir("/proc/self/task")) > 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert len(os.listdir("/proc/self/task")) == 1

    def test_each_sees_every_prefix_in_grid_order(self, monkeypatch, hawk_dove):
        bits = []
        for workers in (2, 1):
            monkeypatch.setattr(analysis, "_scan_workers", lambda cells, w=workers: w)
            prefixes = []
            basin = basin_scan(hawk_dove, "y0", self.GRID,
                               each=lambda cells: prefixes.append(tuple(cells)))
            assert prefixes == [basin.cells[:k] for k in range(1, len(self.GRID) + 1)]
            bits.append(_map_bits(basin))
        assert bits == [_map_bits(basin_scan(hawk_dove, "y0", self.GRID))] * 2

    def test_an_error_from_each_ends_the_scan(self, monkeypatch, hawk_dove):
        monkeypatch.setattr(analysis, "_scan_workers", lambda cells: 2)

        def each(cells):
            raise _CellFailure(f"stopped after {len(cells)} cells")

        with pytest.raises(_CellFailure, match="after 1 cells"):
            basin_scan(hawk_dove, "y0", self.GRID, each=each)
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(sys.platform != "linux", reason="scans fork on Linux only")
    def test_back_to_back_scans_both_fork(self, hawk_dove, two_cpus):
        # The OS lists a joined pool thread for a moment after the pool is
        # gone; the scan waits for it, so the next scan may fork again.
        for _ in range(2):
            basin_scan(hawk_dove, "y0", [0.45, 0.7])
            assert analysis._scan_workers(21) == 2

    def test_workers_follow_usable_cpus(self, two_cpus):
        assert analysis._scan_workers(21) == 2
        assert analysis._scan_workers(1) == 1

    def test_serial_without_proc(self, monkeypatch, two_cpus):
        # Where /proc/self/task cannot be read the thread count is unknown,
        # so the scan does not fork.
        def no_proc():
            raise OSError("no /proc")

        monkeypatch.setattr(analysis, "_thread_count", no_proc)
        assert analysis._scan_workers(21) == 1

    def test_serial_inside_a_pool_worker(self, hawk_dove, two_cpus):
        with multiprocessing.get_context("fork").Pool(1) as pool:
            in_worker = pool.apply(_scan_in_pool_worker, (hawk_dove,))
            pool.close()
            pool.join()
        assert multiprocessing.active_children() == []
        assert in_worker == _map_bits(basin_scan(hawk_dove, "y0", [0.45, 0.7]))

    def test_serial_while_a_second_thread_runs(self, hawk_dove, no_pool):
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(30,))
        other.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                basin = basin_scan(hawk_dove, "y0", [0.45, 0.7])
        finally:
            release.set()
            other.join(timeout=30)
        assert not other.is_alive()
        assert [c.label is not None for c in basin.cells] == [True, True]
        assert multiprocessing.active_children() == []

    def test_serial_for_one_cell_or_none(self, hawk_dove, no_pool):
        (cell,) = basin_scan(hawk_dove, "y0", [0.45]).cells
        assert cell.label is not None and cell.reason == "converged"
        assert basin_scan(hawk_dove, "y0", []).cells == ()
        assert multiprocessing.active_children() == []

    @staticmethod
    def _wait_for_a_worker(proc, pgid):
        """Return as soon as /proc lists a second live process in the process
        group, the sweep's first pool worker; fail if the sweep exits or no
        worker appears within 10 s."""
        deadline = time.monotonic() + 10
        while proc.poll() is None and time.monotonic() < deadline:
            live = 0
            for pid in filter(str.isdigit, os.listdir("/proc")):
                try:
                    with open(f"/proc/{pid}/stat") as fh:
                        state, _, pgrp = fh.read().rpartition(")")[2].split()[:3]
                except OSError:  # the process has gone
                    continue
                if int(pgrp) == pgid and state != "Z":
                    live += 1
            if live > 1:
                return
        pytest.fail("no pool worker appeared in the sweep's process group")

    @staticmethod
    def _wait_for_file(proc, path):
        """Return as soon as path exists; fail if the sweep exits or the file
        does not appear within 10 s."""
        deadline = time.monotonic() + 10
        while proc.poll() is None and time.monotonic() < deadline:
            if path.exists():
                return
            time.sleep(1e-3)
        pytest.fail(f"{path.name} did not appear")

    # The sweep command, with find_traps (the bisection's first step)
    # touching the file named by the first argument.
    MARK_BISECTION = (
        "import pathlib, sys\n"
        "import ecoopinion.cli, ecoopinion.traps as traps\n"
        "real = traps.find_traps\n"
        "def find_traps(*args):\n"
        "    pathlib.Path(sys.argv[1]).touch()\n"
        "    return real(*args)\n"
        "traps.find_traps = find_traps\n"
        "sys.exit(ecoopinion.cli.main(sys.argv[2:]))\n"
    )

    def _interrupt_sweep(self, tmp_path, when, interrupt):
        """Start a sweep in its own session, interrupt it while its pool
        starts (when="pool-start"), 0.1 s later, during the map (when="map"),
        or once its boundary bisection has begun (when="bisection"), and
        return its exit status and stderr once no process of the session is
        left. A serial scan forks no worker, so there the first two cases
        signal after a fixed 1 s; with two CPUs, the bisection case checks
        that the pool is still alive when it signals."""
        cfg = tmp_path / "hd.cfg"
        cfg.write_text(preset_text("hawk-dove"))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [os.path.dirname(os.path.dirname(analysis.__file__)), os.environ.get("PYTHONPATH", "")]))
        sweep = ["sweep", "--config", str(cfg), "--axis", "y0",
                 "--out-csv", str(tmp_path / "sweep.csv")]
        marker = tmp_path / "bisecting"
        if when == "bisection":
            # The preset's boundary, 0.48999, lies between cells 7 and 8, so
            # the bisection starts with almost all of the scan still to run.
            argv = ["-c", self.MARK_BISECTION, str(marker), *sweep, "--grid", "0.48:1:401"]
        else:
            argv = ["-m", "ecoopinion.cli", *sweep, "--grid", "0:1:401"]
        # Exec keeps an ignored SIGINT ignored (as in a background job of a
        # non-interactive shell) but resets a caught one, so the sweep starts
        # with the default Ctrl-C behaviour whatever this process inherited.
        handler = signal.signal(signal.SIGINT, signal.default_int_handler)
        try:
            proc = subprocess.Popen(
                [sys.executable, *argv], env=env, start_new_session=True,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        finally:
            signal.signal(signal.SIGINT, handler)
        pgid = os.getpgid(proc.pid)
        parallel = len(os.sched_getaffinity(0)) >= 2
        try:
            if when == "bisection":
                self._wait_for_file(proc, marker)
                if parallel:
                    self._wait_for_a_worker(proc, pgid)
            elif not parallel:
                time.sleep(1.0)  # start-up and fixed points take about 0.2 s
            else:
                self._wait_for_a_worker(proc, pgid)
                if when == "map":
                    time.sleep(0.1)
            interrupt(proc, pgid)
            _, stderr = proc.communicate(timeout=10)
            with pytest.raises(ProcessLookupError):
                os.killpg(pgid, 0)
        finally:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.communicate(timeout=10)
        # A sweep that finished before the signal landed shows nothing.
        assert not (tmp_path / "sweep.csv").exists()
        return proc.returncode, stderr

    @pytest.mark.parametrize("when", ["pool-start", "map", "bisection"])
    def test_interrupted_sweep_leaves_no_process(self, tmp_path, when):
        status, _ = self._interrupt_sweep(
            tmp_path, when, lambda proc, pgid: proc.send_signal(signal.SIGINT))
        assert status != 0

    @pytest.mark.parametrize("when", ["pool-start", "map", "bisection"])
    def test_ctrl_c_prints_one_traceback(self, tmp_path, when):
        # A terminal sends Ctrl-C to the whole process group, pool workers
        # included; only the parent may report it.
        status, stderr = self._interrupt_sweep(
            tmp_path, when, lambda proc, pgid: os.killpg(pgid, signal.SIGINT))
        assert status != 0
        lines = stderr.splitlines()
        assert sum(line.startswith("KeyboardInterrupt") for line in lines) == 1, stderr
        assert sum(line.startswith("Traceback") for line in lines) == 1, stderr
        assert "ForkPoolWorker" not in stderr
        if when == "bisection":
            assert ", in threshold_bisect\n" in stderr, stderr


class TestThresholdBisect:
    def test_hawk_dove_boundary(self, hawk_dove):
        records = find_fixed_points(hawk_dove)
        boundary = threshold_bisect(hawk_dove, "y0", 0.45, 0.7, fixed_points=records)
        assert 0.45 < boundary < 0.7

        def label_at(value):
            terminal = simulate(hawk_dove.with_initial("y0", value)).terminal
            record, dist = nearest_fixed_point(terminal, records)
            assert dist <= 1e-3
            return label_for(record)

        assert label_at(boundary - 1e-4) != label_at(boundary + 1e-4)

    def test_rebisect_inside_refined_bracket(self, hawk_dove):
        records = find_fixed_points(hawk_dove)
        sharp = threshold_bisect(hawk_dove, "y0", 0.45, 0.7, fixed_points=records,
                                 target_width=1e-7)
        again = threshold_bisect(hawk_dove, "y0", sharp - 1e-5, sharp + 1e-5,
                                 fixed_points=records)
        assert sharp - 1e-5 <= again <= sharp + 1e-5

    def test_stops_when_the_bracket_cannot_be_halved(self, hawk_dove, monkeypatch):
        # A target width below the float spacing ends the bisection once the
        # bracket's ends are adjacent floats: 0.25 halves 52 times to 2**-54.
        edge = 0.4899633707
        runs = []

        def run_and_label(scenario, records, traps=()):
            runs.append(scenario.initial.y)
            return None, "above" if scenario.initial.y >= edge else "below", 0.0

        monkeypatch.setattr(analysis, "_run_and_label", run_and_label)
        boundary = threshold_bisect(hawk_dove, "y0", 0.45, 0.7, target_width=5e-324,
                                    endpoint_labels=("below", "above"))
        assert len(runs) == 52
        assert boundary == 0.48996337069999996
        assert math.nextafter(boundary, 0.0) < edge <= math.nextafter(boundary, 1.0)

    def test_same_labels_is_an_error(self, hawk_dove):
        with pytest.raises(NoBoundaryError):
            threshold_bisect(hawk_dove, "y0", 0.55, 0.7)

    def test_given_endpoint_labels_skip_endpoint_runs(self, hawk_dove, monkeypatch):
        records = find_fixed_points(hawk_dove)
        cells = basin_scan(hawk_dove, "y0", [0.45, 0.7], fixed_points=records).cells
        runs = []
        real = analysis.simulate
        monkeypatch.setattr(analysis, "simulate", lambda sc, **kw: runs.append(sc) or real(sc, **kw))
        full = threshold_bisect(hawk_dove, "y0", 0.45, 0.7, fixed_points=records)
        full_runs = len(runs)
        runs.clear()
        reused = threshold_bisect(hawk_dove, "y0", 0.45, 0.7, fixed_points=records,
                                  endpoint_labels=(cells[0].label, cells[1].label))
        assert reused == full
        assert len(runs) == full_runs - 2
        with pytest.raises(NoBoundaryError):
            threshold_bisect(hawk_dove, "y0", 0.45, 0.7, fixed_points=records,
                             endpoint_labels=(cells[0].label, cells[0].label))
        assert len(runs) == full_runs - 2

    def test_unresolved_endpoint_propagates(self, hawk_dove):
        settings = dataclasses.replace(hawk_dove.settings, t_max=0.5, hold_time=0.1)
        sc = dataclasses.replace(hawk_dove, settings=settings)
        with pytest.raises(UnresolvedCellError):
            threshold_bisect(sc, "y0", 0.45, 0.7)

    def test_rejects_an_empty_bracket_before_any_run(self, hawk_dove, monkeypatch):
        def no_runs(scenario, **kw):
            raise AssertionError("a run started before the arguments were checked")

        monkeypatch.setattr(analysis, "simulate", no_runs)
        with pytest.raises(ValueError, match="need lo < hi"):
            threshold_bisect(hawk_dove, "y0", 0.7, 0.45)
        # Non-finite ends are refused even when the endpoint labels are given.
        for lo, hi in ((-math.inf, 0.5), (0.5, math.inf), (math.nan, 0.5)):
            with pytest.raises(ValueError, match="need lo < hi, both finite"):
                threshold_bisect(hawk_dove, "y0", lo, hi, endpoint_labels=("a", "b"))

    def test_swapped_games_mirror_the_boundary(self):
        # Relabeling the games and the opinions together mirrors the system in
        # y when the protocol runs on the opinion-interpolated matrix, so the
        # measured boundary must complement.
        base = Scenario(HD_PAIR, ENV, TRUST, SystemState(0.5, 0.3, 0.5),
                        protocol_matrix_mode="opinion")
        swapped = Scenario(GamePair(HD_PAIR.a1, HD_PAIR.a0), ENV,
                           TrustMatrix(TRUST.b21, TRUST.b22, TRUST.b11, TRUST.b12),
                           SystemState(0.5, 0.3, 0.5), protocol_matrix_mode="opinion")
        b_base = _scan_and_bisect(base)
        b_swapped = _scan_and_bisect(swapped)
        assert abs(b_swapped - (1.0 - b_base)) < 5e-4

    @pytest.mark.parametrize("kwargs, name", [
        (dict(target_width=float("nan")), "target_width"),
        (dict(target_width=float("inf")), "target_width"),
        (dict(target_width=0.0), "target_width"),
        (dict(target_width=-1e-4), "target_width"),
    ])
    def test_rejects_bad_stopping_rule_before_any_run(self, hawk_dove, monkeypatch, kwargs,
                                                      name):
        def no_runs(scenario, **kw):
            raise AssertionError("a run started before the arguments were checked")

        monkeypatch.setattr(analysis, "simulate", no_runs)
        with pytest.raises(ValueError, match=name):
            threshold_bisect(hawk_dove, "y0", 0.45, 0.7, **kwargs)


def _scan_and_bisect(scenario):
    # offset grid: with x0 = 0.5 the point y0 = 0.5 sits exactly on the
    # separatrix in opinion mode and would add its own knife-edge label
    records = find_fixed_points(scenario)
    grid = [0.05 + k / 10 for k in range(10)]
    basin = basin_scan(scenario, "y0", grid, fixed_points=records)
    labels = [c.label for c in basin.cells]
    assert all(label is not None for label in labels)
    switches = [(basin.grid[i], basin.grid[i + 1])
                for i in range(len(labels) - 1) if labels[i] != labels[i + 1]]
    assert len(switches) == 1
    lo, hi = switches[0]
    return threshold_bisect(scenario, "y0", lo, hi, fixed_points=records)


def eigenvalues(rows):
    """Roots of the 3x3 characteristic polynomial (Durand-Kerner iteration)."""
    (a, b, c), (d, e, f), (g, h, i) = rows
    c2 = -(a + e + i)
    c1 = a * e - b * d + a * i - c * g + e * i - f * h
    c0 = -(a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g))

    def poly(z):
        return ((z + c2) * z + c1) * z + c0

    roots = [complex(0.4, 0.9) ** k for k in range(3)]
    for _ in range(500):
        roots = [r - poly(r) / ((r - roots[k - 1]) * (r - roots[k - 2]))
                 for k, r in enumerate(roots)]
    return sorted(roots, key=lambda z: (z.real, z.imag))


def jacobian(scenario):
    """The Jacobian evaluator generated from scenario's make_rhs."""
    return _bind(scenario.pair, scenario.env, scenario.trust, scenario.protocol_matrix_mode,
                 _differentiate)


def jacobian_at(scenario, state):
    """Jacobian rows of make_rhs at state. At the clamp's kink, where
    p12 == p21 == 0, each column is the one-sided derivative along its axis
    into the cube, taken at a point nudged inward; where the balance stays
    on the kink along an axis, either side gives that column."""
    f, jac = scenario.rhs(), jacobian(scenario)
    z = (state.x, state.n, state.y)
    if f(*z)[5:] != (0.0, 0.0):
        return jac(*z)
    columns = []
    for j in range(3):
        inside = list(z)
        inside[j] += 1e-9 * (0.5 - z[j])
        columns.append([row[j] for row in jac(*inside)])
    return [list(row) for row in zip(*columns)]


class TestStability:
    def test_hawk_dove_classes(self, hawk_dove):
        records = find_fixed_points(hawk_dove)
        by_point = {(round(r.state.x, 4), r.state.n, round(r.state.y, 4)): r for r in records}
        sink = eigenvalues(jacobian_at(hawk_dove, by_point[(0.7, 1.0, 1.0)].state))
        assert [z.real for z in sink] == pytest.approx([-1.1, -1.05, -0.3675])
        assert all(z.imag == pytest.approx(0.0, abs=1e-9) for z in sink)
        saddle = eigenvalues(jacobian_at(hawk_dove, by_point[(0.4684, 1.0, 0.4116)].state))
        assert saddle[0].real < 0.0 < saddle[-1].real
        corners = [r for r in records if r.kind == "corner"]
        assert len(corners) == 6
        for r in corners:
            assert eigenvalues(jacobian_at(hawk_dove, r.state))[-1].real > 0.0, r

    def test_hawk_dove_line_attracts_in_x_and_y(self, hawk_dove):
        line = [r for r in find_fixed_points(hawk_dove) if r.family == "n"]
        assert len(line) == 5
        for r in line:
            rows = jacobian_at(hawk_dove, r.state)
            assert (r.state.x, r.state.y) == (pytest.approx(1 / 3), 0.0)
            # n is free along the line: its column vanishes on it ...
            assert [row[1] for row in rows] == pytest.approx([0.0, 0.0, 0.0], abs=1e-12)
            # ... and the (x, y) block is Hurwitz (trace < 0 < det).
            (a, _, b), _, (c, _, d) = rows
            assert a + d < 0.0 < a * d - b * c

    def test_prisoners_dilemma_has_no_sink_and_no_trap(self, prisoners):
        records = find_fixed_points(prisoners)
        assert len(records) == 10
        for r in records:
            values = eigenvalues(jacobian_at(prisoners, r.state))
            assert values[-1].real > 0.0, r
            if r.kind == "mixed":
                # A saddle-focus: a complex pair with a positive real part.
                assert values[-1].imag != pytest.approx(0.0, abs=1e-3)
        assert sum(r.kind == "mixed" for r in records) == 2
        assert find_traps(prisoners, records) == []

    def test_corner_jacobian_is_lower_triangular_in_closed_form(self):
        # At a corner the x and n rows are diagonal, so the eigenvalues are
        # (1 - 2x)(u1 - u2), (1 - 2n)(theta x + psi (1 - x)) and d(dy)/dy,
        # exactly as the AD Jacobian gives them.
        presets = [preset_scenario(p) for p in ("hawk-dove", "prisoners-dilemma")]
        checked = 0
        for sc in [*presets, *fixed_point_corpus(8080)]:
            f, jac = sc.rhs(), jacobian(sc)
            theta, psi = sc.env.theta, sc.env.psi
            for x in (0.0, 1.0):
                for n in (0.0, 1.0):
                    for y in (0.0, 1.0):
                        (jxx, jxn, jxy), (jnx, jnn, jny), _ = jac(x, n, y)
                        _, _, _, u1, u2, _, _ = f(x, n, y)
                        assert (jxn, jxy, jnx, jny) == (0.0, 0.0, 0.0, 0.0), (sc, x, n, y)
                        assert jxx == (1.0 - 2.0 * x) * (u1 - u2), (sc, x, n, y)
                        assert jnn == (1.0 - 2.0 * n) * (theta * x + psi * (1.0 - x))
                        checked += 1
        assert checked == 1216


class TestTrapBits:
    # sha256 of every field of every trap find_traps certifies on
    # fixed_point_corpus(), floats as float.hex(); TestTraps checks labels.
    DIGEST = "86cc2d12af8d56a1ff0672003a38cd6f832183475a687646f946caeb586e022e"

    def test_traps_bit_identical(self):
        digest = hashlib.sha256()
        count = 0
        for scenario in fixed_point_corpus():
            for t in find_traps(scenario, find_fixed_points(scenario)):
                floats = (*t.center, *(v for row in t.p for v in row), t.level, t.rate,
                          t.reach, t.bound2)
                digest.update((f"{t.label} {t.axes} " + " ".join(v.hex() for v in floats)
                               + "\n").encode())
                count += 1
            digest.update(b"--\n")
        assert (count, digest.hexdigest()) == (190, self.DIGEST)


def _start_in_trap(rng, scenario, trap, v_max):
    """Seeded copy of scenario started in the cube at a state with
    V <= v_max in trap's coordinates; n is drawn in [0, 1] on a line."""
    m = len(trap.axes)
    while True:
        d = [rng.gauss(0.0, 1.0) for _ in range(m)]
        v = sum(d[i] * trap.p[i][k] * d[k] for i in range(m) for k in range(m))
        scale = math.sqrt(rng.random() * v_max / v)
        z = [0.0, rng.random(), 0.0]
        for i, c, di in zip(trap.axes, trap.center, d):
            z[i] = c + scale * di
        if all(0.0 <= c <= 1.0 for c in z):
            return dataclasses.replace(scenario, initial=SystemState(*z))


class TestTraps:
    def test_corpus_runs_started_in_a_trap_keep_full_run_labels(self):
        # Every trap on two seeded corpora (random games, both protocol
        # modes), with t_max cut to 2 to keep the runs short. Per trap, one
        # run starts anywhere in its level set, and one where the trap holds
        # it whatever the time left, so that run stops at its first record.
        rng = random.Random(20261018)
        count = stopped = 0
        for seed in (8080, 8085):
            for sc in fixed_point_corpus(seed=seed):
                sc = dataclasses.replace(sc, settings=dataclasses.replace(sc.settings, t_max=2.0))
                records = find_fixed_points(sc)
                traps = find_traps(sc, records)
                for trap in traps:
                    for v_max in (trap.level, min(trap.level, trap.bound2 / trap.reach)):
                        start = _start_in_trap(rng, sc, trap, v_max)
                        trajectory, label, _ = analysis._run_and_label(start, records, traps)
                        stopped += trajectory.reason == "stopped"
                        assert label == analysis._run_and_label(start, records)[1], (
                            seed, trap.label, start.initial)
                count += len(traps)
        assert count >= 370
        assert stopped >= count

    def test_hawk_dove_traps(self, hawk_dove):
        traps = find_traps(hawk_dove, find_fixed_points(hawk_dove))
        assert sorted(t.label for t in traps) == ["x=0.3333 n=* y=0.0000",
                                                  "x=0.7000 n=1.0000 y=1.0000"]

    def test_stopped_runs_keep_full_run_labels(self, hawk_dove, monkeypatch):
        records = find_fixed_points(hawk_dove)
        traps = find_traps(hawk_dove, records)
        # The golden sweep's bisection midpoints ...
        grid = [k / 20 for k in range(21)]
        labels = [c.label for c in basin_scan(hawk_dove, "y0", grid, fixed_points=records).cells]
        (i,) = [i for i in range(20) if labels[i] != labels[i + 1]]
        starts = []
        real = analysis.simulate
        monkeypatch.setattr(analysis, "simulate",
                            lambda sc, **kw: starts.append(sc) or real(sc, **kw))
        threshold_bisect(hawk_dove, "y0", grid[i], grid[i + 1], fixed_points=records,
                         endpoint_labels=(labels[i], labels[i + 1]))
        monkeypatch.undo()
        assert len(starts) == 9
        # ... and a finer y0 grid.
        starts += [hawk_dove.with_initial("y0", k / 40) for k in range(41)]
        stopped = 0
        for start in starts:
            trajectory, label, _ = analysis._run_and_label(start, records, traps)
            stopped += trajectory.reason == "stopped"
            assert label == analysis._run_and_label(start, records)[1]
        assert stopped == len(starts)

    def test_no_trap_next_to_another_label(self, hawk_dove):
        # A record with another label within 2*LABEL_RADIUS of the sink could
        # be nearer to a terminal state in the sink's label ball.
        records = find_fixed_points(hawk_dove)
        near = FixedPointRecord(SystemState(0.7015, 1.0, 1.0), 0.0, "replicator-interior")
        traps = find_traps(hawk_dove, records + [near])
        assert [t.label for t in traps] == ["x=0.3333 n=* y=0.0000"]

    def test_no_trap_for_a_label_with_two_records(self, hawk_dove):
        # A second record in the sink's label leaves no single center.
        records = find_fixed_points(hawk_dove)
        twin = FixedPointRecord(SystemState(0.70001, 1.0, 1.0), 0.0, "replicator-interior")
        assert label_for(twin) == "x=0.7000 n=1.0000 y=1.0000"
        traps = find_traps(hawk_dove, records + [twin])
        assert [t.label for t in traps] == ["x=0.3333 n=* y=0.0000"]

    @pytest.mark.parametrize("eps, count", [(1e-4, 0), (1e-5, 2)])
    def test_no_trap_when_stationarity_is_loose(self, hawk_dove, eps, count):
        # A run that converges in the trap must end within LABEL_RADIUS; with
        # a loose eps_stationary it may count as converged further out.
        settings = dataclasses.replace(hawk_dove.settings, eps_stationary=eps)
        sc = dataclasses.replace(hawk_dove, settings=settings)
        assert len(find_traps(sc, find_fixed_points(sc))) == count

    def test_no_trap_at_a_kink_of_the_clamp(self):
        # With b21 = b22 = 0, S2 vanishes, so on the face y = 0 the balance
        # q21 = y*S1 is 0 and both rates are 0. Near the face dy = y^2*S1
        # with S1 < 0: the record (0.639, 1, 0) attracts in y only
        # quadratically, yet AD at the kink reads dy/dy = S1 and a Hurwitz
        # (triangular) J. Every box around it straddles the kink, so no trap.
        sc = list(fixed_point_corpus(seed=8080, count=8))[7]
        records = find_fixed_points(sc)
        f = make_rhs(sc.pair, sc.env, sc.trust, sc.protocol_matrix_mode)
        (r,) = [r for r in records if r.kind == "replicator-interior" and r.state.n == 1.0]
        z = (r.state.x, r.state.n, r.state.y)
        assert (sc.trust.b21, sc.trust.b22, r.state.y) == (0.0, 0.0, 0.0)
        assert f(*z)[5:] == (0.0, 0.0)
        rows = jacobian(sc)(*z)
        assert (rows[1][0], rows[2][0], rows[2][1]) == (0.0, 0.0, 0.0)
        assert all(rows[i][i] < -0.4 for i in range(3))
        # From inside the cube the y column vanishes.
        assert jacobian_at(sc, r.state)[2][2] == pytest.approx(0.0, abs=1e-8)
        assert label_for(r) not in [t.label for t in find_traps(sc, records)]

    def test_no_trap_for_a_long_step(self, hawk_dove):
        # At dt = 2 the RK4 run no longer follows the flow near the sink: from
        # a state the flow would carry into it, its first step leaves the cube.
        settings = dataclasses.replace(hawk_dove.settings, dt=2.0)
        sc = dataclasses.replace(hawk_dove, settings=settings)
        assert find_traps(sc, find_fixed_points(sc)) == []
        with pytest.raises(BlowupError):
            simulate(dataclasses.replace(sc, initial=SystemState(0.71, 0.99, 0.99)))

    def test_horizon_clause_keeps_unresolved_runs(self, hawk_dove):
        # At t_max = 25 a run near the boundary is still far from its
        # attractor when it enters a trap, so the trap must not stop it.
        settings = dataclasses.replace(hawk_dove.settings, t_max=25.0)
        sc = dataclasses.replace(hawk_dove, settings=settings)
        records = find_fixed_points(sc)
        traps = find_traps(sc, records)
        assert len(traps) == 2
        start = sc.with_initial("y0", 0.49)
        trajectory, label, _ = analysis._run_and_label(start, records, traps)
        assert trajectory.reason == "horizon" and label is None
        # Later records lie in a trap's level set (it would capture them with
        # unlimited time left), yet with the time the run had left the
        # horizon clause refused to stop there.
        held = [(t, time, z) for t in traps
                for time, *z in zip(trajectory.times, trajectory.x, trajectory.n, trajectory.y)
                if time > 0.0 and t.captures(z, math.inf)]
        assert held and not any(t.captures(z, 25.0 - time) for t, time, z in held)
        with pytest.raises(UnresolvedCellError):
            threshold_bisect(sc, "y0", 0.45, 0.5, fixed_points=records)

