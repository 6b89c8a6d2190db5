"""Fixed-point enumeration, basin-of-attraction scans along one
initial-condition axis, and basin-boundary bisection."""

from __future__ import annotations

import math
import os
import sys
import time
from dataclasses import dataclass

from .dynamics import BlowupError, SystemState
from .integrate import simulate

RESIDUAL_TOL = 1e-10
LABEL_RADIUS = 1e-3
FAMILY_SAMPLES = (0.0, 0.25, 0.5, 0.75, 1.0)

_ZERO_TOL = 1e-12
_SNAP_TOL = 1e-9


class NoBoundaryError(ValueError):
    """Both bisection endpoints resolve to the same basin."""


class UnresolvedCellError(RuntimeError):
    """A terminal state matched no known fixed point within LABEL_RADIUS."""


@dataclass(frozen=True)
class FixedPointRecord:
    """A verified stationary state.

    kind is a structural label: "corner" (all coordinates on the cube
    boundary), "replicator-interior" (only x interior),
    "environment-interior" (n interior, which requires the environment drift
    factor to vanish at this x), or "mixed" (anything else, in particular
    interior y). family="n" marks records on a line where the environment
    factor vanishes, so dn == 0 at every n: the line's records are the n
    samples in FAMILY_SAMPLES that verify, and a line may be stationary on
    only part of [0, 1].
    """

    state: SystemState
    residual: float
    kind: str
    family: str | None = None


@dataclass(frozen=True)
class BasinCell:
    """Outcome of one grid cell of a basin scan.

    steps and reason are the cell run's Trajectory.steps and
    Trajectory.reason (for an error cell, those of the partial trajectory),
    so a scan reports the work each cell did without keeping its trajectory.
    """

    initial: float
    terminal: SystemState | None
    label: str | None
    converged: bool
    unresolved: bool
    error: str | None = None
    steps: int | None = None
    reason: str | None = None


@dataclass(frozen=True)
class BasinMap:
    """Per-cell terminal labels along one initial-condition axis."""

    axis: str
    cells: tuple[BasinCell, ...]

    @property
    def grid(self) -> tuple[float, ...]:
        """The scanned axis values, one per cell."""
        return tuple(cell.initial for cell in self.cells)


def label_for(record: FixedPointRecord) -> str:
    """Human-readable basin label; the free axis of a family prints as *."""
    n_part = "*" if record.family == "n" else f"{record.state.n:.4f}"
    return f"x={record.state.x:.4f} n={n_part} y={record.state.y:.4f}"


def distance_to(record: FixedPointRecord, state: SystemState) -> float:
    """Sup-norm distance from state to the record, measured along the family
    line when the record has a free axis."""
    dx = abs(state.x - record.state.x)
    dy = abs(state.y - record.state.y)
    dn = 0.0 if record.family == "n" else abs(state.n - record.state.n)
    return max(dx, dn, dy)


def nearest_fixed_point(state: SystemState, records):
    """Nearest record and its distance, the first of equal ones; (None, inf)
    when records is empty."""
    best = min(records, key=lambda r: distance_to(r, state), default=None)
    return best, math.inf if best is None else distance_to(best, state)


# Polynomials in y are coefficient lists, lowest degree first.
def _poly_at(p, t):
    value = 0.0
    for c in reversed(p):
        value = value * t + c
    return value


def _poly_mul(p, q):
    out = [0.0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _poly_deriv(p):
    return [i * c for i, c in enumerate(p)][1:]


def _poly_roots(p):
    """Sorted real roots in [0, 1] of the polynomial p, each sign change
    between consecutive roots of its derivative bisected. A constant has
    none, the zero polynomial included.

    A bracket is bisected on p where p rises, on -p where it falls, with
    Horner's rule written out up to degree 4 (the locators' maximum) and
    _poly_at above it. Negation negates each Horner step exactly, and
    _poly_at's leading 0.0 * t adds zero: both change only a zero's sign,
    which no comparison reads, so each root is that of bisecting p itself."""
    if not any(p[1:]):
        return []
    cuts = [0.0, *_poly_roots(_poly_deriv(p)), 1.0]
    values = [_poly_at(p, t) for t in cuts]
    roots = {t for t, v in zip(cuts, values) if v == 0.0}
    for lo, hi, vlo, vhi in zip(cuts, cuts[1:], values, values[1:]):
        if (vlo < 0.0 < vhi) or (vhi < 0.0 < vlo):
            q = p if vlo < 0.0 else [-c for c in p]
            c0, c1, c2, c3, c4 = [*q, 0.0, 0.0, 0.0, 0.0][:5]
            size = len(q)
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if size == 2:
                    vm = c1 * mid + c0
                elif size == 3:
                    vm = (c2 * mid + c1) * mid + c0
                elif size == 4:
                    vm = ((c3 * mid + c2) * mid + c1) * mid + c0
                elif size == 5:
                    vm = (((c4 * mid + c3) * mid + c2) * mid + c1) * mid + c0
                else:
                    vm = _poly_at(q, mid)
                if vm < 0.0:
                    lo = mid
                elif vm > 0.0:
                    hi = mid
                else:
                    lo = hi = mid
                if hi - lo < 1e-15:
                    break
            roots.add(0.5 * (lo + hi))
    return sorted(roots)


def _locator(p, q, protocol, trust):
    """The imitation balance q21 = y*S1 - (1-y)*S2 of make_rhs on the curve
    x = p/(p + q), times (p + q)**2, as a polynomial in y.

    p, q and the protocol matrix's entries (11, 12, 21, 22) are polynomials
    in y. For 0 < y < 1, the clamp keeps the sign of q21 in dy, so on the
    curve dy = 0 exactly where the locator vanishes."""
    b11, b12, b21, b22 = trust.entries()
    d11, d12, d21, d22 = protocol
    # x*v1 and (1-x)*v2, each times (p + q)**2.
    w1 = _poly_mul(p, [r + s for r, s in zip(_poly_mul(d11, p), _poly_mul(d12, q))])
    w2 = _poly_mul(q, [r + s for r, s in zip(_poly_mul(d21, p), _poly_mul(d22, q))])
    s1 = [b11 * r + b12 * s for r, s in zip(w1, w2)]
    s2 = [b21 * r + b22 * s for r, s in zip(w1, w2)]
    return [r + s - t for r, s, t in zip([0.0, *s1], [0.0, *s2], [*s2, 0.0])]


def _snap01(value: float) -> float:
    if abs(value) <= _SNAP_TOL:
        return 0.0
    if abs(value - 1.0) <= _SNAP_TOL:
        return 1.0
    return value


def find_fixed_points(scenario) -> list[FixedPointRecord]:
    """Enumerate and verify stationary points of the coupled system.

    Candidates come from the structural nulls of each line: x on a boundary
    or at the replicator-indifference root given y; n on a boundary, or
    anywhere once the environment drift factor theta*x + psi*(1-x) vanishes
    (then representative n samples are emitted and flagged family="n"); y on
    a boundary, at a root of the curve's imitation-balance locator (one
    sample per piece of a curve along which the locator vanishes
    identically), or at the opinion weight that nulls the replicator
    bracket. Every candidate is kept only if the sup norm of the full
    derivative is below RESIDUAL_TOL. A curve's locator is built and searched
    once per protocol matrix (in opinion mode A_y, at every n), and the
    replicator null's edges only where it vanishes identically (dy == 0).
    """
    f = scenario.rhs()
    theta, psi = scenario.env.theta, scenario.env.psi

    def env_factor(x):
        return theta * x + psi * (1.0 - x)

    def x_root_given_y(y):
        # Interior solution of u1 == u2 under the opinion-interpolated game
        # A_y, whose entries are the payoffs u1, u2 at x = 1 and x = 0.
        _, _, _, m11, m21, _, _ = f(1.0, 0.0, y)
        _, _, _, m12, m22, _, _ = f(0.0, 0.0, y)
        den = m11 - m12 - m21 + m22
        if abs(den) < 1e-12:
            return None
        root = (m22 - m12) / den
        return root if 0.0 < root < 1.0 else None

    # Each curve gives x as a function of y at fixed n: the faces x = 0 and
    # x = 1 (n sampled when the environment factor vanishes there, psi == 0 at
    # x = 0), then the replicator null on the faces n = 0 and n = 1. Each
    # curve's y candidates are 0, 1 and its locator's roots. A_y's entries
    # are polynomials in y; the replicator null is x = num/den, and it leaves
    # (0, 1) where num, den or den - num vanishes.
    a_y = [[a, b - a] for a, b in zip(scenario.pair.a0.entries(), scenario.pair.a1.entries())]
    opinion = scenario.protocol_matrix_mode == "opinion"

    def entries(x_of_y, p, q, ns, edges=()):
        # (x(y), n values, locator, edges) of the curve x = p/(p + q), one
        # entry per protocol matrix: in opinion mode that is A_y at every n.
        if opinion:
            return [(x_of_y, ns, _locator(p, q, a_y, scenario.trust), edges)]
        return [(x_of_y, (n,), _locator(p, q, [[a + n * g] for a, g in a_y], scenario.trust),
                 edges) for n in ns]

    curves = []
    for x in (0.0, 1.0):
        curves += entries(lambda y, x=x: x, [x], [1.0 - x],
                          FAMILY_SAMPLES if abs(env_factor(x)) <= _ZERO_TOL else (0.0, 1.0))
    num = [c22 - c12 for c12, c22 in zip(a_y[1], a_y[3])]
    den = [c11 - c12 - c21 + c22 for c11, c12, c21, c22 in zip(*a_y)]
    rest = [d - u for d, u in zip(den, num)]
    curves += entries(x_root_given_y, num, rest, (0.0, 1.0), (num, den, rest))
    candidates: list[tuple[float, float, float]] = []
    for x_of_y, ns, locator, edges in curves:
        if any(locator):
            ys = _poly_roots(locator)
        else:
            # dy vanishes all along the curve: one sample per piece of it.
            cuts = sorted({0.0, 1.0, *(t for e in edges for t in _poly_roots(e))})
            ys = [0.5 * (a + b) for a, b in zip(cuts, cuts[1:])]
        points = [(x_of_y(y), y) for y in sorted({0.0, 1.0, *ys})]
        candidates += [(x, n, y) for n in ns for x, y in points if x is not None]

    # Environment-null line: interior x where the drift factor vanishes makes
    # n a free parameter. The bracket u1 - u2 there is affine in y and pins y:
    # its root in [0, 1], or FAMILY_SAMPLES when it vanishes identically.
    # EnvParams keeps theta > 0 >= psi, so theta - psi > 0.
    x_env = -psi / (theta - psi)
    if 0.0 < x_env < 1.0:
        _, _, _, u1, u2, _, _ = f(x_env, 0.0, 0.0)
        g0 = u1 - u2
        _, _, _, u1, u2, _, _ = f(x_env, 0.0, 1.0)
        g1 = u1 - u2
        den = g0 - g1
        if abs(den) < 1e-14:
            y_values = FAMILY_SAMPLES if abs(g0) <= 1e-12 else ()
        else:
            root = g0 / den
            y_values = (min(1.0, max(0.0, root)),) if -1e-12 <= root <= 1.0 + 1e-12 else ()
        candidates += [(x_env, n, y) for n in FAMILY_SAMPLES for y in y_values]

    records = []
    kept: list[tuple[float, float, float]] = []
    for cx, cn, cy in candidates:
        cx, cn, cy = _snap01(cx), _snap01(cn), _snap01(cy)
        for px, pn, py in kept:
            if abs(cx - px) < _SNAP_TOL and abs(cn - pn) < _SNAP_TOL and abs(cy - py) < _SNAP_TOL:
                break  # a kept point lies within _SNAP_TOL
        else:
            d = f(cx, cn, cy)
            residual = max(abs(d[0]), abs(d[1]), abs(d[2]))
            if not residual < RESIDUAL_TOL:  # a NaN residual is rejected too
                continue
            kept.append((cx, cn, cy))
            family = "n" if abs(env_factor(cx)) <= _ZERO_TOL else None
            interior_x = 0.0 < cx < 1.0
            interior_n = 0.0 < cn < 1.0
            interior_y = 0.0 < cy < 1.0
            if not (interior_x or interior_n or interior_y):
                kind = "corner"
            elif interior_x and not interior_n and not interior_y:
                kind = "replicator-interior"
            elif interior_n and not interior_y:
                kind = "environment-interior"
            else:
                kind = "mixed"
            records.append(FixedPointRecord(SystemState(cx, cn, cy), residual, kind, family))

    records.sort(key=lambda r: (r.state.x, r.state.n, r.state.y))
    return records


def _run_and_label(scenario, records, traps=()):
    """Simulate scenario and name the basin of its terminal state: returns
    (trajectory, label, distance), with label None when no record lies
    within LABEL_RADIUS.

    With traps, the run stops at the first record time at which a trap
    captures it; it is then labelled by that trap and its distance is None.
    """
    caught = []
    stop = None
    if traps:
        def stop(x, n, y, t_left):
            for trap in traps:
                if trap.captures((x, n, y), t_left):
                    caught.append(trap.label)
                    return True
            return False

    trajectory = simulate(scenario, stop=stop)
    if caught:
        return trajectory, caught[0], None
    record, dist = nearest_fixed_point(trajectory.terminal, records)
    label = label_for(record) if record is not None and dist <= LABEL_RADIUS else None
    return trajectory, label, dist


def _basin_cell(job) -> BasinCell:
    """Run and label one basin-scan cell; job is (grid value, start scenario,
    records). In a parallel scan this runs in a pool worker, so only the
    cell, never the trajectory, goes back to the caller."""
    g, start, records = job
    try:
        trajectory, label, _ = _run_and_label(start, records)
    except BlowupError as err:  # simulate attaches the partial trajectory
        return BasinCell(g, None, None, False, True, str(err),
                         steps=err.partial.steps, reason=err.partial.reason)
    return BasinCell(g, trajectory.terminal, label, trajectory.converged, label is None,
                     steps=trajectory.steps, reason=trajectory.reason)


def _thread_count() -> int:
    """Threads of this process as the OS lists them, native ones included;
    OSError where there is no /proc."""
    return len(os.listdir("/proc/self/task"))


def _scan_workers(cells: int) -> int:
    """Worker processes for a scan of this many cells: one per usable CPU
    (at most one per cell), or 1 for a serial scan.

    A scan runs serially off Linux, for fewer than 2 cells or usable CPUs,
    inside a daemonic process (a pool worker may not fork children of its
    own), and while the process has a second thread, native threads
    included (a fork copies locks that thread may hold; Python 3.12+ warns).
    """
    if sys.platform != "linux" or cells < 2:
        return 1
    mp = sys.modules.get("multiprocessing")  # a daemonic process has imported it
    if mp is not None and mp.current_process().daemon:
        return 1
    try:
        threads = _thread_count()
    except OSError:
        return 1
    return 1 if threads > 1 else min(len(os.sched_getaffinity(0)), cells)


def basin_scan(scenario, axis: str, grid, fixed_points=None, *, each=None) -> BasinMap:
    """Run one simulation per grid value of the chosen initial-condition axis
    and label each terminal state by its nearest fixed point.

    Cells whose terminal lies further than LABEL_RADIUS from every known
    fixed point are flagged unresolved; per-cell simulation failures are
    recorded in the cell without aborting the scan. Any other error in a cell
    propagates with its type.

    Cells are independent, so they run in forked worker processes, one per
    usable CPU; the pool lives only for this call. A scan runs serially off
    Linux, for a single cell or usable CPU (so `taskset -c 0` gives the
    serial path), inside a daemonic process and while the caller runs a
    second thread. Cells are assembled in grid order, and every output bit
    is the same either way.
    With each, each(cells) is called in the calling process as every cell
    arrives, in grid order, with the list of cells so far (read-only: the
    scan appends to it). In a parallel scan the pool keeps running the
    remaining cells meanwhile; an error from each ends the scan.
    A bad axis or grid value raises ValueError before any cell runs.
    """
    grid = tuple(float(g) for g in grid)
    starts = [scenario.with_initial(axis, g) for g in grid]
    records = find_fixed_points(scenario) if fixed_points is None else list(fixed_points)
    jobs = [(g, start, records) for g, start in zip(grid, starts)]
    cells: list[BasinCell] = []

    def arrived(cell):
        cells.append(cell)
        if each is not None:
            each(cells)

    workers = _scan_workers(len(jobs))
    if workers == 1:
        for job in jobs:
            arrived(_basin_cell(job))
    else:
        import multiprocessing  # only a parallel scan pays for the import
        import signal

        # Ctrl-C reaches the parent only, inside the with block, whose exit
        # terminates and joins the pool: SIGINT stays blocked while the pool
        # forks, and the workers inherit that mask.
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            with multiprocessing.get_context("fork").Pool(workers) as pool:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                # Not imap: its next() waits inside an except block, so a
                # Ctrl-C there would print a second, chained traceback.
                for result in [pool.apply_async(_basin_cell, (job,)) for job in jobs]:
                    arrived(result.get())
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        # Joined helpers stay listed a moment; wait for the one thread so a next scan may fork.
        deadline = time.monotonic() + 0.05
        while _thread_count() > 1 and time.monotonic() < deadline:
            time.sleep(1e-4)
    return BasinMap(axis, tuple(cells))


def threshold_bisect(scenario, axis: str, lo: float, hi: float, *, fixed_points=None,
                     target_width: float = 1e-4, endpoint_labels=None) -> float:
    """Bisect one initial-condition axis for the boundary between two basins.

    The endpoints must resolve to different basin labels; a caller that has
    them (a basin scan) passes them as endpoint_labels, and only midpoints are
    simulated. Bisection runs until the bracket is narrower than target_width
    (finite, > 0) or cannot be halved (its ends are adjacent floats), and
    returns the midpoint of the final bracket. An endpoint or midpoint that
    resolves to no fixed point raises UnresolvedCellError; simulation
    failures propagate.

    Only labels are needed, so each run stops at the first record time at
    which a certified trap around an attractor (ecoopinion.traps) holds it,
    and takes the trap's label. A run stops only where the certificate shows
    that the full run would end within LABEL_RADIUS of that attractor, so
    labels and the returned boundary are those of full runs. The
    certificate is for the flow; the RK4 run is covered by a step-size guard
    and by parity tests against full runs.
    """
    # Infinite ends would stop the halving at once, with no run to reject them.
    if not -math.inf < lo < hi < math.inf:
        raise ValueError(f"need lo < hi, both finite, got lo={lo!r}, hi={hi!r}")
    if not (math.isfinite(target_width) and target_width > 0.0):
        raise ValueError(f"target_width must be a finite positive number, got {target_width!r}")
    records = find_fixed_points(scenario) if fixed_points is None else list(fixed_points)
    # Imported on first use: only the bisection needs it, so package import
    # (and with it every CLI command) does not compile it.
    from .traps import find_traps
    traps = find_traps(scenario, records)

    def label_at(value):
        _, label, dist = _run_and_label(scenario.with_initial(axis, value), records, traps)
        if label is None:
            raise UnresolvedCellError(
                f"terminal state at {axis}={value:g} matches no known fixed point "
                f"(nearest distance {dist:.3g})"
            )
        return label

    lo_label, hi_label = endpoint_labels or (label_at(lo), label_at(hi))
    if lo_label == hi_label:
        raise NoBoundaryError(
            f"both endpoints of [{lo:g}, {hi:g}] resolve to {lo_label!r}; no boundary to bisect"
        )
    while hi - lo >= target_width:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if label_at(mid) == lo_label:
            lo = mid
        else:
            # Covers both the hi label and any third basin appearing in the
            # middle; either way a boundary stays inside [lo, mid].
            hi = mid
    return 0.5 * (lo + hi)
