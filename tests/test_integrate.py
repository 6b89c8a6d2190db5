import dataclasses
import hashlib
import itertools
import math
import random
import struct
import types

import pytest

from ecoopinion import (
    BlowupError,
    EnvParams,
    GamePair,
    IntegratorSettings,
    PROTOCOL_MODES,
    Payoff2x2,
    SystemState,
    TrustMatrix,
    hawk_dove_matrix,
    make_rhs,
    preset_scenario,
    simulate,
)
from ecoopinion import integrate
from ecoopinion.scenario import Scenario

HD_PAIR = GamePair(hawk_dove_matrix(4, 12), hawk_dove_matrix(7, 10))
PD_PAIR = GamePair(Payoff2x2(3.5, 1, 2, 0.75), Payoff2x2(4, 1, 4.5, 1.25))
ENV = EnvParams(2.0, -1.0)
TRUST = TrustMatrix(0.5, 0.0, 0.0, 0.5)
START = SystemState(0.5, 0.3, 0.45)


def hd_scenario(**kwargs):
    defaults = dict(pair=HD_PAIR, env=ENV, trust=TRUST, initial=START)
    defaults.update(kwargs)
    return Scenario(**defaults)


def state_bits(state):
    return struct.pack("<3d", state.x, state.n, state.y)


def end_state_at(scenario, t_end, dt, method="rk4"):
    settings = IntegratorSettings(dt=dt, t_max=t_end, record_every=10 ** 9,
                                  eps_stationary=1e-300)
    return simulate(dataclasses.replace(scenario, settings=settings), method).terminal


def one_step(state, pair, dt, method="rk4"):
    """The state after a single integrator step from state."""
    settings = IntegratorSettings(dt=dt, t_max=dt, record_every=1, eps_stationary=1e-300)
    trajectory = simulate(Scenario(pair, ENV, TRUST, state, settings), method)
    assert len(trajectory.times) == 2
    return trajectory.terminal


def gap(a, b):
    return max(abs(a.x - b.x), abs(a.n - b.n), abs(a.y - b.y))


def hd_preset(**settings):
    sc = preset_scenario("hawk-dove")
    return dataclasses.replace(sc, settings=dataclasses.replace(sc.settings, **settings))


def spy_stop(calls, stop_at=0):
    """A stop hook that appends each call's arguments to calls and is true
    on call number stop_at, never when stop_at is 0."""
    def stop(x, n, y, t_left):
        calls.append((x, n, y, t_left))
        return len(calls) == stop_at
    return stop


class TestSettings:
    def test_rejects_dt_above_horizon(self):
        with pytest.raises(ValueError):
            IntegratorSettings(dt=1.0, t_max=0.5)

    @pytest.mark.parametrize("kwargs", [
        dict(dt=0.0), dict(record_every=0), dict(record_every=2.5),
        dict(eps_stationary=0.0), dict(hold_time=-1.0),
        dict(dt=math.inf), dict(t_max=math.nan), dict(dt=1e-320), dict(hold_time=1e308),
        dict(dt=1e-300), dict(hold_time=2e6),
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError) as exc:
            IntegratorSettings(**kwargs)
        assert exc.value.key == next(iter(kwargs))


    def test_step_count_cap(self):
        # Neither settings object is run: the larger would take 10**8 steps.
        IntegratorSettings(dt=1e-6, t_max=99.0, hold_time=99.0)
        with pytest.raises(ValueError) as exc:
            IntegratorSettings(dt=1e-6, t_max=101.0)
        assert exc.value.keys == ("dt", "t_max")
        with pytest.raises(ValueError) as exc:
            IntegratorSettings(dt=1e-6, t_max=99.0, hold_time=101.0)
        assert exc.value.keys == ("hold_time", "dt")


class TestScenario:
    @pytest.mark.parametrize("initial, key", [
        (SystemState(1.5, 0.3, 0.45), "x0"), (SystemState(0.5, -0.1, 0.45), "n0"),
        (SystemState(0.5, 0.3, 1.0 + 1e-12), "y0"),
    ])
    def test_initial_state_must_lie_in_cube(self, initial, key):
        with pytest.raises(ValueError) as exc:
            hd_scenario(initial=initial)
        assert exc.value.key == key
        with pytest.raises(ValueError) as exc:
            hd_scenario().with_initial(key, getattr(initial, key[0]))
        assert exc.value.key == key


class TestSteps:
    def test_rk4_fixed_point_identity(self):
        corner = SystemState(0.0, 0.0, 0.0)
        assert one_step(corner, PD_PAIR, 0.01) == corner

    def test_euler_fixed_point_identity(self):
        corner = SystemState(0.0, 0.0, 0.0)
        assert one_step(corner, PD_PAIR, 0.01, "euler") == corner

    def test_rk4_against_refined_euler(self):
        one = one_step(START, HD_PAIR, 0.01)
        state = START
        for _ in range(10):
            state = one_step(state, HD_PAIR, 0.001, "euler")
        assert gap(one, state) < 1e-5

    def test_euler_is_one_explicit_increment(self):
        dx, dn, dy = make_rhs(HD_PAIR, ENV, TRUST)(START.x, START.n, START.y)[:3]
        stepped = one_step(START, HD_PAIR, 0.01, "euler")
        assert stepped.x == START.x + 0.01 * dx
        assert stepped.n == START.n + 0.01 * dn
        assert stepped.y == START.y + 0.01 * dy

    def test_halving_dt_raises_accuracy_by_scheme_order(self):
        sc = hd_scenario()
        reference = end_state_at(sc, 1.0, 1e-5)
        err_coarse = gap(end_state_at(sc, 1.0, 0.02), reference)
        err_fine = gap(end_state_at(sc, 1.0, 0.01), reference)
        assert err_coarse / err_fine >= 8.0

    @pytest.mark.parametrize("method", ["rk4", "euler"])
    def test_matches_simulate_stepping(self, method):
        # Five single-step runs chained by hand land bit for bit on the
        # samples of one five-step run: a step depends on the state alone.
        sc = hd_scenario(settings=IntegratorSettings(dt=0.01, t_max=0.05, record_every=1,
                                                     eps_stationary=1e-300))
        trajectory = simulate(sc, method)
        assert len(trajectory.times) == 6
        state = START
        for recorded in trajectory.states[1:]:
            state = one_step(state, HD_PAIR, 0.01, method)
            assert state_bits(state) == state_bits(recorded)


class TestSimulate:
    def test_hawk_dove_low_opinion_share(self):
        trajectory = simulate(hd_scenario())
        assert trajectory.converged
        assert 0.32 <= trajectory.terminal.x <= 0.34

    def test_hawk_dove_high_opinion_share(self):
        trajectory = simulate(hd_scenario(initial=SystemState(0.5, 0.3, 0.7)))
        assert trajectory.converged
        assert 0.69 <= trajectory.terminal.x <= 0.71

    def test_start_at_fixed_point(self):
        corner = SystemState(1.0, 1.0, 0.0)
        sc = Scenario(PD_PAIR, ENV, TRUST, corner)
        trajectory = simulate(sc)
        assert trajectory.converged
        assert trajectory.t_converged == pytest.approx(sc.settings.hold_time, abs=1e-9)
        assert trajectory.terminal == corner
        assert all(state == corner for state in trajectory.states)

    def test_deterministic_bitwise(self):
        runs = [simulate(hd_scenario()) for _ in range(2)]
        a, b = runs
        assert a.times == b.times
        assert a.converged == b.converged and a.t_converged == b.t_converged
        for sa, sb in zip(a.states, b.states):
            assert state_bits(sa) == state_bits(sb)
        for da, db in zip(a.derived, b.derived):
            assert struct.pack("<5d", da.u1, da.u2, da.u_avg, da.p12, da.p21) == \
                struct.pack("<5d", db.u1, db.u2, db.u_avg, db.p12, db.p21)

    def test_cube_containment_exact(self):
        for scenario in (hd_scenario(), hd_scenario(initial=SystemState(0.5, 0.3, 0.7))):
            trajectory = simulate(scenario)
            for state in trajectory.states:
                assert 0.0 <= state.x <= 1.0
                assert 0.0 <= state.n <= 1.0
                assert 0.0 <= state.y <= 1.0

    def test_converged_flag_is_sound(self):
        sc = hd_scenario()
        trajectory = simulate(sc)
        assert trajectory.converged
        terminal = trajectory.terminal
        f = make_rhs(sc.pair, sc.env, sc.trust, sc.protocol_matrix_mode)
        d = f(terminal.x, terminal.n, terminal.y)
        assert max(abs(d[0]), abs(d[1]), abs(d[2])) < sc.settings.eps_stationary

    def test_terminal_is_last_state(self):
        trajectory = simulate(hd_scenario())
        assert trajectory.terminal == trajectory.states[-1]

    def test_times_strictly_increasing(self):
        trajectory = simulate(hd_scenario())
        assert all(t0 < t1 for t0, t1 in zip(trajectory.times, trajectory.times[1:]))

    def test_sample_stride(self):
        sc = hd_scenario(settings=IntegratorSettings(dt=0.01, t_max=0.25, record_every=5,
                                                     eps_stationary=1e-300))
        trajectory = simulate(sc)
        # 25 steps, sampled every 5, plus t=0: six rows ending at t_max
        assert len(trajectory.times) == 6
        assert trajectory.times[-1] == pytest.approx(0.25)

    def test_euler_tracks_rk4(self):
        sc_rk4 = hd_scenario(settings=IntegratorSettings(dt=0.01, t_max=10.0, record_every=10,
                                                         eps_stationary=1e-300))
        sc_euler = hd_scenario(settings=IntegratorSettings(dt=1e-4, t_max=10.0, record_every=1000,
                                                           eps_stationary=1e-300))
        rk4 = simulate(sc_rk4)
        euler = simulate(sc_euler, method="euler")
        assert len(rk4.states) == len(euler.states)
        worst = max(gap(a, b) for a, b in zip(rk4.states, euler.states))
        assert worst < 1e-3

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            simulate(hd_scenario(), method="rk2")


class TestBlowup:
    def test_overshoot_advises_smaller_dt(self):
        sc = hd_scenario(settings=IntegratorSettings(dt=100.0, t_max=1000.0))
        with pytest.raises(BlowupError) as exc:
            simulate(sc)
        assert "reduce dt" in str(exc.value)
        assert exc.value.partial is not None
        assert len(exc.value.partial.states) >= 1

    def test_non_finite_names_component(self):
        big = Payoff2x2(1.7e308, 1.7e308, -1.7e308, -1.7e308)
        pair = GamePair(big, big)
        sc = Scenario(pair, ENV, TRUST, SystemState(0.5, 0.5, 0.5))
        for method in ("rk4", "euler"):
            with pytest.raises(BlowupError) as exc:
                simulate(sc, method)
            assert str(exc.value) == "non-finite derivative in component x at t=0"
            assert exc.value.component == "x"
            assert exc.value.t == 0.0

    @pytest.mark.parametrize("component", "xny")
    def test_nan_derivative_is_never_stationary(self, component):
        # max() drops a NaN that is not its first argument; were the test
        # written with it, a NaN dn or dy would converge here at t = 0.
        d = [0.0, 0.0, 0.0]
        d["xny".index(component)] = math.nan
        stub = types.SimpleNamespace(settings=IntegratorSettings(hold_time=0.0),
                                     initial=SystemState(0.5, 0.5, 0.5),
                                     rhs=lambda: lambda x, n, y: (*d, 0.0, 0.0, 0.0, 0.0))
        for method in integrate.METHODS:
            with pytest.raises(BlowupError) as exc:
                simulate(stub, method)
            assert exc.value.component == component and exc.value.t == 0.0
            assert exc.value.partial.steps == 0

    @staticmethod
    def coarse_pd_euler():
        sc = preset_scenario("prisoners-dilemma")
        settings = dataclasses.replace(sc.settings, dt=1.0, record_every=1)
        return dataclasses.replace(sc, settings=settings)

    def test_rounding_scale_overshoot_is_clipped(self, monkeypatch):
        # At this dt one Euler step from t ~ 68.6687 overshoots x by 1.0e-10,
        # inside the projection tolerance, and lands on x == 1 after the clip.
        sc = preset_scenario("prisoners-dilemma")
        settings = dataclasses.replace(sc.settings, dt=0.6666863149551486, record_every=1)
        left = []
        real = integrate._leave_cube

        def spy(*args):
            left.append(args[1])
            return real(*args)

        monkeypatch.setattr(integrate, "_leave_cube", spy)
        trajectory = simulate(dataclasses.replace(sc, settings=settings), "euler")
        assert trajectory.converged
        assert len(left) == 1 and left[0][0] - 1.0 == pytest.approx(1.0e-10, rel=1e-6)
        k = trajectory.x.index(1.0)
        assert trajectory.times[k] == pytest.approx(69.3354, abs=1e-4)
        assert trajectory.x[k - 1] < 1.0

    def test_overshoot_beyond_tolerance_keeps_partial(self):
        with pytest.raises(BlowupError) as exc:
            simulate(self.coarse_pd_euler(), "euler")
        err = exc.value
        assert str(err) == "component x overshot the cube by 6.702e-03 at t=78; reduce dt"
        assert err.component == "x"
        assert err.t == 78.0
        assert err.partial.times == tuple(float(k) for k in range(79))


class TestRunReport:
    def test_converged(self):
        trajectory = simulate(hd_scenario())
        assert trajectory.converged and trajectory.reason == "converged"
        assert trajectory.steps == round(trajectory.t_converged / 0.01)
        assert trajectory.times[-1] == trajectory.steps * 0.01

    def test_horizon(self):
        trajectory = simulate(hd_scenario(settings=IntegratorSettings(t_max=2.0)))
        assert not trajectory.converged and trajectory.reason == "horizon"
        assert trajectory.steps == 200

    def test_converged_on_the_first_sample(self):
        # With no hold, a start whose derivative is zero ends before any step.
        sc = Scenario(PD_PAIR, ENV, TRUST, SystemState(1.0, 1.0, 0.0),
                      IntegratorSettings(hold_time=0.0))
        trajectory = simulate(sc)
        assert trajectory.times == (0.0,)
        assert trajectory.steps == 0 and trajectory.reason == "converged"
        assert trajectory.t_converged == 0.0

    def test_horizon_off_a_record_step_records_the_last_step(self):
        settings = IntegratorSettings(dt=0.01, t_max=0.23, record_every=5, eps_stationary=1e-300)
        trajectory = simulate(hd_scenario(settings=settings))
        assert trajectory.times == (0.0, 0.05, 0.1, 0.15, 0.2, 0.23)
        assert trajectory.steps == 23 and trajectory.reason == "horizon"

    def test_stopped_at_a_record_time(self):
        calls = []
        full = simulate(hd_scenario())
        trajectory = simulate(hd_scenario(), stop=spy_stop(calls, 3))
        assert trajectory.reason == "stopped" and not trajectory.converged
        assert trajectory.t_converged is None
        # Called every record_every = 10 steps from the first step on, with
        # the recorded state and the time left to the horizon's last step
        # (t_max/dt = 50000 steps); the run ends on the third call's sample.
        assert [c[3] for c in calls] == [50000 * 0.01 - k * 0.01 for k in (10, 20, 30)]
        assert trajectory.steps == 30
        assert trajectory.times == full.times[:4]
        assert trajectory.x == full.x[:4] and trajectory.y == full.y[:4]
        assert calls[-1][:3] == (full.x[3], full.n[3], full.y[3])

    def test_stop_never_true_keeps_every_bit(self):
        full = simulate(hd_scenario())
        assert simulate(hd_scenario(), stop=lambda x, n, y, t: False) == full

    def test_stop_sees_the_horizon_step(self):
        # The horizon's last step is a record step: stop sees it with no time left.
        calls = []
        trajectory = simulate(hd_preset(t_max=0.2), stop=spy_stop(calls, 2))
        assert [c[3] for c in calls] == [0.1, 0.0]
        assert trajectory.reason == "stopped" and trajectory.steps == 20
        assert trajectory.times == (0.0, 0.1, 0.2)

    @pytest.mark.parametrize("method, steps, every, samples", [
        ("rk4", 3055, 10, 307), ("rk4", 3055, 5, 612), ("rk4", 3055, 13, 236),
        ("rk4", 3055, 611, 6), ("euler", 3047, 10, 306), ("euler", 3047, 11, 278),
        ("euler", 3047, 277, 12)])
    def test_last_step_sampled_once(self, method, steps, every, samples):
        # Every record_every but 10 divides the converging step. Stop, never
        # true, sees every sample but the first (t = 0) and the last (the
        # converging step), with the time left to the horizon at t = 500.
        calls = []
        trajectory = simulate(hd_preset(record_every=every), method, stop=spy_stop(calls))
        assert trajectory.reason == "converged" and trajectory.steps == steps
        assert len(trajectory.times) == samples
        assert trajectory.times[-1] == steps * 0.01 and trajectory.times[-2] < steps * 0.01
        assert all(t0 < t1 for t0, t1 in zip(trajectory.times, trajectory.times[1:]))
        assert len(calls) == samples - 2
        assert calls == [(x, n, y, 500.0 - t) for t, x, n, y in zip(
            trajectory.times[1:-1], trajectory.x[1:-1], trajectory.n[1:-1], trajectory.y[1:-1])]

    def test_blowup_partial(self):
        with pytest.raises(BlowupError) as exc:
            simulate(TestBlowup.coarse_pd_euler(), "euler")
        assert exc.value.partial.reason == "blowup"
        assert exc.value.partial.steps == 78

    def test_hand_built_trajectory_has_no_report(self):
        trajectory = simulate(hd_scenario(settings=IntegratorSettings(t_max=0.05)))
        columns = [getattr(trajectory, f) for f in ("times", "x", "n", "y", "u1", "u2",
                                                    "u_avg", "p12", "p21")]
        built = type(trajectory)(*columns, False)
        assert built.reason is None and built.steps is None and built.t_converged is None
        # reason and steps are keyword-only, so a positional report fails loudly.
        with pytest.raises(TypeError):
            type(trajectory)(*columns, False, None)


class TestRhsEvaluations:
    # One evaluation of each step's starting state, plus three more stages per
    # RK4 step, plus one of the state the run ends on: no counter is needed.
    # A blowup ends inside step `steps`, after all of that step's stages.
    @staticmethod
    def _count(monkeypatch):
        evaluations = [0]
        real = Scenario.rhs

        def counting_rhs(scenario):
            f = real(scenario)

            def counted(x, n, y):
                evaluations[0] += 1
                return f(x, n, y)
            return counted

        monkeypatch.setattr(Scenario, "rhs", counting_rhs)
        return evaluations

    @pytest.mark.parametrize("method, per_step", [("rk4", 4), ("euler", 1)])
    @pytest.mark.parametrize("settings, stop_at, reason", [
        ({}, None, "converged"), ({"t_max": 2.0}, None, "horizon"), ({}, 3, "stopped")])
    def test_count_follows_steps(self, monkeypatch, method, per_step, settings, stop_at, reason):
        evaluations = self._count(monkeypatch)
        stop = None if stop_at is None else spy_stop([], stop_at)
        trajectory = simulate(hd_preset(**settings), method, stop=stop)
        assert trajectory.reason == reason
        assert evaluations == [1 + per_step * trajectory.steps]

    @pytest.mark.parametrize("method, per_step", [("rk4", 4), ("euler", 1)])
    def test_blowup_count_follows_steps(self, monkeypatch, method, per_step):
        evaluations = self._count(monkeypatch)
        with pytest.raises(BlowupError) as exc:
            simulate(hd_preset(dt=2.5), method)
        assert exc.value.partial.steps == 3
        assert evaluations == [per_step * (exc.value.partial.steps + 1)]


def trajectory_corpus(seed=2929, games=16):
    """Seeded runs for simulate's bit pin, as (scenario, stop_at) pairs.

    Both presets and random games, in alternating protocol modes, are crossed
    with record_every 1 and 7, t_max 4.9 and 5 (on and off a 7-step record),
    hold_time 0 and 1 and eps_stationary 1e-8 and 1e-2. Each run draws a stop
    hook: none (stop_at None), never true (0) or true on a seeded call. Then
    each scenario runs at a coarse dt of 1 and 2.5, where most runs blow up.
    """
    rng = random.Random(seed)
    scenarios = [preset_scenario("hawk-dove"), preset_scenario("prisoners-dilemma")]
    for _ in range(games):
        a0 = [rng.uniform(-5.0, 5.0) for _ in range(4)]
        a1 = [rng.uniform(-5.0, 5.0) for _ in range(4)]
        scenarios.append(Scenario(GamePair(Payoff2x2(*a0), Payoff2x2(*a1)),
                                  EnvParams(rng.uniform(0.2, 3.0), -rng.uniform(0.0, 3.0)),
                                  TrustMatrix(*[rng.random() for _ in range(4)]),
                                  SystemState(rng.random(), rng.random(), rng.random())))
    for j, sc in enumerate(scenarios):
        mode = PROTOCOL_MODES[j % 2]
        for every, t_max, hold, eps in itertools.product((1, 7), (4.9, 5.0), (0.0, 1.0),
                                                         (1e-8, 1e-2)):
            settings = IntegratorSettings(t_max=t_max, record_every=every, hold_time=hold,
                                          eps_stationary=eps)
            stop_at = rng.choice((None, 0, rng.randint(1, 80)))
            yield dataclasses.replace(sc, settings=settings, protocol_matrix_mode=mode), stop_at
    for j, sc in enumerate(scenarios):
        for dt in (1.0, 2.5):
            settings = IntegratorSettings(dt=dt, t_max=200.0, record_every=1 + j % 3)
            yield (dataclasses.replace(sc, settings=settings,
                                       protocol_matrix_mode=PROTOCOL_MODES[j % 2]),
                   None if j % 2 else 0)


class TestTrajectoryBits:
    # sha256 over trajectory_corpus() run by both methods: every column's
    # float.hex(), converged, reason and steps, each stop call's arguments,
    # and for a blowup its message, component and time with the partial.
    # The golden files pin only the two presets at their default settings.
    DIGEST = "3c21e23463953a0468f04087d3fa9ecd7d36f226deec72eab56f0a6a3032df11"

    def test_runs_bit_identical(self):
        digest = hashlib.sha256()
        runs = 0
        for scenario, stop_at in trajectory_corpus():
            for method in integrate.METHODS:
                calls = []
                stop = None if stop_at is None else spy_stop(calls, stop_at)
                try:
                    trajectory = simulate(scenario, method, stop=stop)
                except BlowupError as err:
                    trajectory = err.partial
                    digest.update(f"{err} {err.component} {err.t.hex()}\n".encode())
                for column in (trajectory.times, trajectory.x, trajectory.n, trajectory.y,
                               trajectory.u1, trajectory.u2, trajectory.u_avg,
                               trajectory.p12, trajectory.p21):
                    digest.update(" ".join(v.hex() for v in column).encode() + b"\n")
                digest.update(f"{trajectory.converged} {trajectory.reason} "
                              f"{trajectory.steps}\n".encode())
                for call in calls:
                    digest.update(" ".join(v.hex() for v in call).encode() + b"\n")
                digest.update(b"--\n")
                runs += 1
        assert (runs, digest.hexdigest()) == (648, self.DIGEST)
