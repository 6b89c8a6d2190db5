"""Deterministic fixed-step integration of the coupled system.

Classical RK4 is the production scheme; forward Euler is kept alongside as an
independent low-order cross-check. After every step each coordinate is
projected back onto [0, 1]: the exact dynamics leave the cube invariant, so
only rounding-scale overshoot is legitimate and anything larger aborts the
run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dynamics import BlowupError, SystemState, make_rhs
from .game import FieldError, finite_fields

METHODS = ("rk4", "euler")


@dataclass(frozen=True)
class IntegratorSettings:
    """Fixed-step integration controls.

    Convergence is declared once the sup norm of the derivative stays below
    eps_stationary for hold_time consecutive time units. States are recorded
    every record_every steps plus the final state.
    """

    dt: float = 0.01
    t_max: float = 500.0
    record_every: int = 10
    eps_stationary: float = 1e-8
    hold_time: float = 1.0
    projection_tolerance: float = 1e-9

    def __post_init__(self):
        finite_fields(self, ("dt", "t_max", "eps_stationary", "hold_time", "projection_tolerance"))
        if self.dt <= 0.0:
            raise FieldError("dt", f"dt must be positive, got {self.dt!r}")
        if self.t_max < self.dt:
            raise FieldError("t_max", f"t_max={self.t_max!r} must be at least dt={self.dt!r}")
        if not isinstance(self.record_every, int) or self.record_every < 1:
            raise FieldError("record_every",
                             f"record_every must be a positive integer, got {self.record_every!r}")
        if self.eps_stationary <= 0.0:
            raise FieldError("eps_stationary",
                             f"eps_stationary must be positive, got {self.eps_stationary!r}")
        if self.hold_time < 0.0:
            raise FieldError("hold_time", f"hold_time must be nonnegative, got {self.hold_time!r}")
        if self.projection_tolerance <= 0.0:
            raise FieldError("projection_tolerance", "projection_tolerance must be positive, "
                             f"got {self.projection_tolerance!r}")


@dataclass(frozen=True)
class DerivedSample:
    """Per-sample payoffs and protocol rates.

    u1 and u2 are the pure-strategy payoffs under the replicator's
    opinion-interpolated matrix, u_avg their population average; p12 and p21
    are the clamped imitation rates under the scenario's protocol matrix.
    """

    u1: float
    u2: float
    u_avg: float
    p12: float
    p21: float


@dataclass(frozen=True)
class Trajectory:
    """Time-ordered samples of a single deterministic run, stored as columns.

    times[k] is the time of sample k; x, n and y hold the state and u1, u2,
    u_avg, p12 and p21 the derived quantities of DerivedSample.
    """

    times: tuple[float, ...]
    x: tuple[float, ...]
    n: tuple[float, ...]
    y: tuple[float, ...]
    u1: tuple[float, ...]
    u2: tuple[float, ...]
    u_avg: tuple[float, ...]
    p12: tuple[float, ...]
    p21: tuple[float, ...]
    converged: bool
    t_converged: float | None

    @property
    def terminal(self) -> SystemState:
        return SystemState(self.x[-1], self.n[-1], self.y[-1])

    @property
    def states(self) -> tuple[SystemState, ...]:
        return tuple(map(SystemState, self.x, self.n, self.y))

    @property
    def derived(self) -> tuple[DerivedSample, ...]:
        return tuple(map(DerivedSample, self.u1, self.u2, self.u_avg, self.p12, self.p21))


def _project(value: float, tol: float, component: str, t: float):
    if value < 0.0:
        if value < -tol:
            raise BlowupError(
                f"component {component} overshot the cube by {-value:.3e} at t={t:g}; reduce dt",
                component=component,
                t=t,
            )
        return 0.0
    if value > 1.0:
        if value > 1.0 + tol:
            raise BlowupError(
                f"component {component} overshot the cube by {value - 1.0:.3e} at t={t:g}; "
                "reduce dt",
                component=component,
                t=t,
            )
        return 1.0
    return value


def _check_stage(kx: float, kn: float, ky: float, t: float) -> None:
    for component, value in (("x", kx), ("n", kn), ("y", ky)):
        if not math.isfinite(value):
            raise BlowupError(
                f"non-finite derivative in component {component} at t={t:g}",
                component=component,
                t=t,
            )


def _step(f, x, n, y, dt, k1, tol, rk4, t):
    """One RK4 (rk4 true) or forward-Euler update from (x, n, y), projected
    onto the cube; k1 is the already-evaluated derivative at (x, n, y) and t
    the time stamped on a blowup."""
    k1x, k1n, k1y = k1[0], k1[1], k1[2]
    _check_stage(k1x, k1n, k1y, t)
    if rk4:
        h2 = 0.5 * dt
        k2 = f(x + h2 * k1x, n + h2 * k1n, y + h2 * k1y)
        k2x, k2n, k2y = k2[0], k2[1], k2[2]
        _check_stage(k2x, k2n, k2y, t)
        k3 = f(x + h2 * k2x, n + h2 * k2n, y + h2 * k2y)
        k3x, k3n, k3y = k3[0], k3[1], k3[2]
        _check_stage(k3x, k3n, k3y, t)
        k4 = f(x + dt * k3x, n + dt * k3n, y + dt * k3y)
        k4x, k4n, k4y = k4[0], k4[1], k4[2]
        _check_stage(k4x, k4n, k4y, t)
        s = dt / 6.0
        nx = x + s * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        nn = n + s * (k1n + 2.0 * k2n + 2.0 * k3n + k4n)
        ny = y + s * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
    else:
        nx, nn, ny = x + dt * k1x, n + dt * k1n, y + dt * k1y
    return (
        nx if 0.0 <= nx <= 1.0 else _project(nx, tol, "x", t),
        nn if 0.0 <= nn <= 1.0 else _project(nn, tol, "n", t),
        ny if 0.0 <= ny <= 1.0 else _project(ny, tol, "y", t),
    )


def simulate(scenario, method: str = "rk4") -> Trajectory:
    """Integrate a scenario until t_max or stationarity.

    Stationarity: the sup norm of the derivative stays below
    settings.eps_stationary for settings.hold_time consecutive time units;
    the time at which the hold completes is reported as t_converged. The run
    is fully deterministic: identical inputs produce bit-identical
    trajectories.

    Raises BlowupError, with the partial trajectory attached, if the state
    overshoots the cube by more than settings.projection_tolerance or any
    derivative turns non-finite.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    st = scenario.settings
    dt = st.dt
    tol = st.projection_tolerance
    f = make_rhs(scenario.pair, scenario.env, scenario.trust, scenario.protocol_matrix_mode)

    x, n, y = scenario.initial.x, scenario.initial.n, scenario.initial.y
    n_steps = int(math.floor(st.t_max / dt + 1e-9))
    hold_steps = int(math.ceil(st.hold_time / dt - 1e-9)) if st.hold_time > 0.0 else 0
    use_rk4 = method == "rk4"
    eps = st.eps_stationary
    record_every = st.record_every

    rows: list[tuple[float, ...]] = []

    def record(t, x, n, y, ev):
        rows.append((t, x, n, y, ev[3], ev[4], x * ev[3] + (1.0 - x) * ev[4], ev[5], ev[6]))

    cur = f(x, n, y)
    record(0.0, x, n, y, cur)
    streak = 1 if max(abs(cur[0]), abs(cur[1]), abs(cur[2])) < eps else 0
    converged = streak > hold_steps
    t_converged = 0.0 if converged else None
    k = 0
    last_recorded = 0

    while k < n_steps and not converged:
        t_prev = k * dt
        try:
            x, n, y = _step(f, x, n, y, dt, cur, tol, use_rk4, t_prev)
        except BlowupError as err:
            err.partial = Trajectory(*zip(*rows), False, None)
            raise
        k += 1
        t = k * dt
        cur = f(x, n, y)
        if max(abs(cur[0]), abs(cur[1]), abs(cur[2])) < eps:
            streak += 1
        else:
            streak = 0
        if k % record_every == 0:
            record(t, x, n, y, cur)
            last_recorded = k
        if streak > hold_steps:
            converged = True
            t_converged = t
    if last_recorded != k:
        record(k * dt, x, n, y, cur)

    return Trajectory(*zip(*rows), converged, t_converged)
