import dataclasses
import hashlib
import random

import pytest

from ecoopinion import (
    EnvParams,
    GamePair,
    NoBoundaryError,
    Payoff2x2,
    SystemState,
    TrustMatrix,
    UnresolvedCellError,
    basin_scan,
    find_fixed_points,
    hawk_dove_pair,
    label_for,
    make_rhs,
    nearest_fixed_point,
    preset_scenario,
    simulate,
    threshold_bisect,
)
from ecoopinion import analysis
from ecoopinion.dynamics import PROTOCOL_MODES
from ecoopinion.scenario import Scenario

HD_PAIR = hawk_dove_pair(4, 12, 7, 10)
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

    def test_zero_trust_freezes_opinions(self):
        # with no trust anywhere the opinion share never moves, so each
        # per-opinion replicator null appears at both y = 0 and y = 1
        sc = Scenario(HD_PAIR, ENV, TrustMatrix(0, 0, 0, 0), SystemState(0.5, 0.3, 0.5))
        records = find_fixed_points(sc)
        assert has_point(records, 1 / 3, 0.0, 0.0, tol=1e-6)
        assert has_point(records, 0.7, 0.0, 1.0, tol=1e-6)
        assert has_point(records, 0.7, 1.0, 1.0, tol=1e-6)

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
            pair = hawk_dove_pair(v0, c0, v1, c1)
        trust = TrustMatrix(*[rng.choice((0.0, 1.0, rng.random())) for _ in range(4)])
        yield Scenario(pair, EnvParams(theta, psi), trust, SystemState(0.5, 0.5, 0.5),
                       protocol_matrix_mode=rng.choice(PROTOCOL_MODES))


class TestFixedPointBits:
    # sha256 over fixed_point_corpus() of every record's float.hex() fields,
    # kind and family; the golden files pin only the two presets.
    DIGEST = "c9b27c7dee36b3c6215710c45c45bd46adbf6024d0e9f7b31e4f2c5d006cdf33"

    def test_records_bit_identical(self):
        digest = hashlib.sha256()
        count = 0
        for scenario in fixed_point_corpus():
            for r in find_fixed_points(scenario):
                fields = (r.state.x, r.state.n, r.state.y, r.residual)
                digest.update((" ".join(v.hex() for v in fields)
                               + f" {r.kind} {r.family}\n").encode())
            digest.update(b"--\n")
            count += 1
        assert count == 150
        assert digest.hexdigest() == self.DIGEST


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
                                 target_width=1e-7, max_iters=80)
        again = threshold_bisect(hawk_dove, "y0", sharp - 1e-5, sharp + 1e-5,
                                 fixed_points=records)
        assert sharp - 1e-5 <= again <= sharp + 1e-5

    def test_same_labels_is_an_error(self, hawk_dove):
        with pytest.raises(NoBoundaryError):
            threshold_bisect(hawk_dove, "y0", 0.55, 0.7)

    def test_given_endpoint_labels_skip_endpoint_runs(self, hawk_dove, monkeypatch):
        records = find_fixed_points(hawk_dove)
        cells = basin_scan(hawk_dove, "y0", [0.45, 0.7], fixed_points=records).cells
        runs = []
        real = analysis.simulate
        monkeypatch.setattr(analysis, "simulate", lambda sc: runs.append(sc) or real(sc))
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
