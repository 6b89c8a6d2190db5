"""Deterministic fixed-step integration of the coupled system.

Classical RK4 is the production scheme; forward Euler is kept alongside as an
independent low-order cross-check. The exact dynamics leave the unit cube
invariant, so each step's only check is that the new state lies in it. A step
that leaves it is diagnosed off the hot path: a non-finite derivative or an
overshoot beyond PROJECTION_TOLERANCE aborts the run, and rounding-scale
overshoot is clipped back onto [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import KW_ONLY, dataclass

from .dynamics import BlowupError, SystemState
from .game import FieldError, finite_fields

METHODS = ("rk4", "euler")
MAX_STEPS = 10 ** 8  # cap on t_max/dt and hold_time/dt: 2000 default runs
# Largest cube overshoot a step may clip; a larger one means dt is too coarse.
PROJECTION_TOLERANCE = 1e-9


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

    def __post_init__(self):
        finite_fields(self, ("dt", "t_max", "eps_stationary", "hold_time"))
        if self.dt <= 0.0:
            raise FieldError("dt", f"dt must be positive, got {self.dt!r}")
        if self.t_max < self.dt:
            raise FieldError(("t_max", "dt"),
                             f"t_max={self.t_max!r} must be at least dt={self.dt!r}")
        if not self.t_max / self.dt <= MAX_STEPS:
            raise FieldError(("dt", "t_max"), f"step count t_max/dt exceeds {MAX_STEPS} for "
                             f"t_max={self.t_max!r}, dt={self.dt!r}")
        if not isinstance(self.record_every, int) or self.record_every < 1:
            raise FieldError("record_every",
                             f"record_every must be a positive integer, got {self.record_every!r}")
        if self.eps_stationary <= 0.0:
            raise FieldError("eps_stationary",
                             f"eps_stationary must be positive, got {self.eps_stationary!r}")
        if self.hold_time < 0.0:
            raise FieldError("hold_time", f"hold_time must be nonnegative, got {self.hold_time!r}")
        if not self.hold_time / self.dt <= MAX_STEPS:
            raise FieldError(("hold_time", "dt"), f"step count hold_time/dt exceeds {MAX_STEPS} "
                             f"for hold_time={self.hold_time!r}, dt={self.dt!r}")


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
    u_avg, p12 and p21 the derived quantities of DerivedSample. reason says
    why the run ended ("converged", "horizon" at t_max, "stopped" by the
    caller's stop test, or "blowup" on the partial trajectory of a
    BlowupError) and steps how many integration steps it took; both are
    keyword-only, and None when the trajectory is built by hand.
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
    _: KW_ONLY
    reason: str | None = None
    steps: int | None = None

    @property
    def t_converged(self) -> float | None:
        """Time the stationarity hold completed, the last sample's; None if unconverged."""
        return self.times[-1] if self.converged else None

    @property
    def terminal(self) -> SystemState:
        return SystemState(self.x[-1], self.n[-1], self.y[-1])

    @property
    def states(self) -> tuple[SystemState, ...]:
        return tuple(map(SystemState, self.x, self.n, self.y))

    @property
    def derived(self) -> tuple[DerivedSample, ...]:
        return tuple(map(DerivedSample, self.u1, self.u2, self.u_avg, self.p12, self.p21))


def _leave_cube(stages, state, t):
    """Diagnose a step from time t whose result (x, n, y) = state left the
    cube: raise BlowupError at the first non-finite stage derivative (stage
    by stage, x, n, y within each), else at the first component beyond the
    cube by more than PROJECTION_TOLERANCE; otherwise return state clipped
    onto the cube."""
    for k in stages:
        for component, value in zip("xny", k[:3]):
            if not math.isfinite(value):
                raise BlowupError(f"non-finite derivative in component {component} at t={t:g}",
                                  component=component, t=t)
    clipped = []
    for component, value in zip("xny", state):
        if value < -PROJECTION_TOLERANCE or value > 1.0 + PROJECTION_TOLERANCE:
            over = -value if value < 0.0 else value - 1.0
            raise BlowupError(
                f"component {component} overshot the cube by {over:.3e} at t={t:g}; reduce dt",
                component=component, t=t)
        clipped.append(0.0 if value < 0.0 else 1.0 if value > 1.0 else value)
    return clipped


def simulate(scenario, method: str = "rk4", *, stop=None) -> Trajectory:
    """Integrate a scenario until t_max or stationarity.

    Stationarity: the sup norm of the derivative stays below
    settings.eps_stationary for settings.hold_time consecutive time units;
    the run ends on the step that completes the hold, t_converged. The run
    is fully deterministic: identical inputs produce bit-identical
    trajectories.

    stop, if given, is called as stop(x, n, y, t_left) at each record time
    after the first step (every record_every steps) of a run that has not
    converged, where t_left is the time from there to the run's last step at
    the horizon; when it returns true the run ends there with reason
    "stopped". Without it no per-step work is added.

    Raises BlowupError, with the partial trajectory attached, if the state
    overshoots the cube by more than PROJECTION_TOLERANCE (1e-9) or any
    derivative turns non-finite; a smaller overshoot is clipped onto the cube.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    st = scenario.settings
    dt = st.dt
    f = scenario.rhs()

    x, n, y = scenario.initial.x, scenario.initial.n, scenario.initial.y
    n_steps = int(math.floor(st.t_max / dt + 1e-9))
    t_end = n_steps * dt
    hold_steps = int(math.ceil(st.hold_time / dt - 1e-9))
    use_rk4 = method == "rk4"
    h2 = 0.5 * dt
    s = dt / 6.0
    eps = st.eps_stationary
    record_every = st.record_every

    rows: list[tuple[float, ...]] = []

    def record(t, x, n, y, ev):
        rows.append((t, x, n, y, ev[3], ev[4], x * ev[3] + (1.0 - x) * ev[4], ev[5], ev[6]))

    cur = f(x, n, y)
    record(0.0, x, n, y, cur)
    streak = 1 if max(abs(cur[0]), abs(cur[1]), abs(cur[2])) < eps else 0
    converged = streak > hold_steps
    k = 0
    reason = "horizon"

    while k < n_steps and not converged:
        k1x, k1n, k1y = cur[0], cur[1], cur[2]
        if use_rk4:
            k2 = f(x + h2 * k1x, n + h2 * k1n, y + h2 * k1y)
            k2x, k2n, k2y = k2[0], k2[1], k2[2]
            k3 = f(x + h2 * k2x, n + h2 * k2n, y + h2 * k2y)
            k3x, k3n, k3y = k3[0], k3[1], k3[2]
            k4 = f(x + dt * k3x, n + dt * k3n, y + dt * k3y)
            nx = x + s * (k1x + 2.0 * k2x + 2.0 * k3x + k4[0])
            nn = n + s * (k1n + 2.0 * k2n + 2.0 * k3n + k4[1])
            ny = y + s * (k1y + 2.0 * k2y + 2.0 * k3y + k4[2])
        else:
            nx, nn, ny = x + dt * k1x, n + dt * k1n, y + dt * k1y
        # NaN fails this test too, and a non-finite stage derivative always
        # leaves its component of the new state non-finite.
        if not (0.0 <= nx <= 1.0 and 0.0 <= nn <= 1.0 and 0.0 <= ny <= 1.0):
            try:
                nx, nn, ny = _leave_cube((cur, k2, k3, k4) if use_rk4 else (cur,),
                                         (nx, nn, ny), k * dt)
            except BlowupError as err:
                err.partial = Trajectory(*zip(*rows), False, reason="blowup", steps=k)
                raise
        x, n, y = nx, nn, ny
        k += 1
        cur = f(x, n, y)
        if max(abs(cur[0]), abs(cur[1]), abs(cur[2])) < eps:
            streak += 1
        else:
            streak = 0
        converged = streak > hold_steps
        if k % record_every == 0:
            t = k * dt
            record(t, x, n, y, cur)
            if stop is not None and not converged and stop(x, n, y, t_end - t):
                reason = "stopped"
                break
    if k % record_every:
        record(k * dt, x, n, y, cur)
    if converged:
        reason = "converged"
    return Trajectory(*zip(*rows), converged, reason=reason, steps=k)
