"""Certified traps around the attractors of a scenario.

A trap is a sublevel set V(e) = e^T P e <= level around an attractor, where e
is the offset from it in the coordinates its basin label reads: (x, n, y)
for a point, (x, y) for a family="n" line, whose label ignores n. An interval
bound on the Jacobian over a box around the attractor proves dV/dt <=
-rate*V for the flow on the box: Lyapunov's linearisation at a sink
(Hofbauer & Sigmund, Evolutionary Games and Population Dynamics, 1998), made
uniform over the box as in contraction analysis (Lohmiller & Slotine,
Automatica 34, 1998). A state in the trap stays there and its offset decays,
so threshold_bisect can stop a run inside one and keep its label. The
Jacobian is make_rhs's own, by forward-mode differentiation (Griewank &
Walther, 2008), on intervals over pieces of the box (Moore et al., 2009).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .analysis import LABEL_RADIUS, distance_to, label_for

_TRAP_RADII = tuple(0.1 / 2 ** k for k in range(7))  # box half-widths: 0.1 halved while >= 1e-3


def _outward(lo, hi):
    return _Interval(math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf))


def _bounds(value):
    return (value.lo, value.hi) if isinstance(value, _Interval) else (value, value)


class _Straddle(Exception):
    """An interval comparison that holds on part of the interval only."""


class _Signed:
    """a - b as a + (-b), which rounds as the subtraction does; a > b as -a < -b."""

    __slots__ = ()

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __gt__(self, other):
        return -self < -other


class _Interval(_Signed):
    """Closed interval [lo, hi] with outward-rounded +, - and *; < and >
    raise _Straddle unless they hold, or fail, over the whole interval."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        self.lo, self.hi = lo, hi

    def __add__(self, other):
        lo, hi = _bounds(other)
        return _outward(self.lo + lo, self.hi + hi)

    def __neg__(self):
        return _Interval(-self.hi, -self.lo)

    def __mul__(self, other):
        if other == 0.0:  # exact, and keeps a zero gradient entry a float
            return 0.0
        lo, hi = _bounds(other)
        ends = (self.lo * lo, self.lo * hi, self.hi * lo, self.hi * hi)
        return _outward(min(ends), max(ends))

    __radd__, __rmul__ = __add__, __mul__

    def __lt__(self, other):
        lo, hi = _bounds(other)
        if self.hi < lo or self.lo >= hi:
            return self.hi < lo
        raise _Straddle


class _Dual(_Signed):
    """A value (a float or an _Interval) and its gradient in (x, n, y); < and
    > compare the value, so make_rhs's pins and clamps branch on it."""

    __slots__ = ("value", "grad")

    def __init__(self, value, grad):
        self.value, self.grad = value, grad

    def __add__(self, other):
        if not isinstance(other, _Dual):
            return _Dual(self.value + other, self.grad)
        g, h = self.grad, other.grad
        return _Dual(self.value + other.value, (g[0] + h[0], g[1] + h[1], g[2] + h[2]))

    def __neg__(self):
        g = self.grad
        return _Dual(-self.value, (-g[0], -g[1], -g[2]))

    def __mul__(self, other):
        g = self.grad
        if not isinstance(other, _Dual):
            return _Dual(self.value * other, (g[0] * other, g[1] * other, g[2] * other))
        a, b, h = self.value, other.value, other.grad
        return _Dual(a * b, (a * h[0] + g[0] * b, a * h[1] + g[1] * b, a * h[2] + g[2] * b))

    __radd__, __rmul__ = __add__, __mul__

    def __lt__(self, other):
        return self.value < other


def _jacobian(f, z):
    """Rows of the derivative of (dx, dn, dy) from the make_rhs evaluator f at
    the point z, from inside the cube on a face; or bounds on them over a box z
    of _Intervals, where a pin or clamp that changes branch raises _Straddle."""
    seeds = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    return [d.grad for d in f(*map(_Dual, z, seeds))[:3]]


def _hull(*values):
    lows, highs = zip(*map(_bounds, values))
    return _Interval(min(lows), max(highs))


def _gershgorin_max(m):
    """Upper bound on the largest eigenvalue of every symmetric matrix whose
    entries lie in those (floats or intervals) of m."""
    bound = -math.inf
    for i, row in enumerate(m):
        total = _Interval(*_bounds(row[i]))
        for j, value in enumerate(row):
            if j != i:
                lo, hi = _bounds(value)
                total = total + max(-lo, hi)
        bound = max(bound, total.hi)
    return bound


def _solve(a, b):
    """Solution of the small dense system a v = b by Gaussian elimination with
    partial pivoting; None when a is singular."""
    size = len(b)
    rows = [list(row) + [value] for row, value in zip(a, b)]
    for col in range(size):
        pivot = max(range(col, size), key=lambda r: abs(rows[r][col]))
        if rows[pivot][col] == 0.0:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(col + 1, size):
            factor = rows[r][col] / rows[col][col]
            for c in range(col, size + 1):
                rows[r][c] -= factor * rows[col][c]
    v = [0.0] * size
    for r in reversed(range(size)):
        v[r] = (rows[r][size] - sum(rows[r][c] * v[c] for c in range(r + 1, size))) / rows[r][r]
    return v


def _lyapunov(j):
    """Symmetric P with J^T P + P J = -I, or None when that system is singular."""
    m = len(j)
    pairs = [(i, k) for i in range(m) for k in range(i, m)]
    index = {pair: u for u, pair in enumerate(pairs)}

    def at(i, k):
        return index[(i, k) if i <= k else (k, i)]

    rows = []
    for i, k in pairs:
        row = [0.0] * len(pairs)
        for l in range(m):
            row[at(l, k)] += j[l][i]  # (J^T P)_ik
            row[at(i, l)] += j[l][k]  # (P J)_ik
        rows.append(row)
    v = _solve(rows, [-1.0 if i == k else 0.0 for i, k in pairs])
    return None if v is None else [[v[at(i, k)] for k in range(m)] for i in range(m)]


def _det(a):
    if len(a) == 1:
        return a[0][0]
    return sum((-1) ** c * a[0][c] * _det([row[:c] + row[c + 1:] for row in a[1:]])
               for c in range(len(a)))


@dataclass(frozen=True)
class Trap:
    """Certified trap around the attractor named label (see the module docstring)."""

    label: str
    axes: tuple[int, ...]        # coordinates of e among (x, n, y)
    center: tuple[float, ...]    # the attractor's record, on those axes
    p: tuple[tuple[float, ...], ...]
    level: float                 # V <= level lies in the certified box
    rate: float                  # dV/dt <= -rate*V there
    reach: float                 # |e_i|^2 <= reach*V for every coordinate i
    bound2: float                # the run ends labelled when reach*V at t_max is below this

    def captures(self, state, remaining):
        """Whether state lies in the trap, and a run from it that goes on for
        the remaining time ends within LABEL_RADIUS even at the horizon."""
        e = [state[i] - c for i, c in zip(self.axes, self.center)]
        v = 0.0
        for row, ei in zip(self.p, e):
            v += ei * sum(pij * ej for pij, ej in zip(row, e))
        return v <= self.level and v * math.exp(-self.rate * remaining) * self.reach <= self.bound2


def _certify(f, label, center, axes, residual, settings):
    """A trap around the attractor at center (n is free off the axes), or None.

    P solves J^T P + P J = -I for f's Jacobian J at center on the axes and
    must be positive definite. The box, center +- r on the axes and [0, 1]
    along a free n, is cut into ceil(width / 2r) pieces per side; with J(z)
    in the hull of the pieces' bounds, P J(z) + J(z)^T P must stay below
    -beta*I with beta > 0, and a pin or clamp of f that changes branch on a
    piece fails the radius. A run that converges inside the trap then ends
    within LABEL_RADIUS: wherever the sup norm of the derivative is below
    eps_stationary, the offset from the exact attractor is at most
    spread*eps_stationary, and the record lies within spread*residual of it.
    """
    rows = _jacobian(f, center)
    p = _lyapunov([[rows[i][k] for k in axes] for i in axes])
    m = len(axes)
    # Sylvester's criterion: V is positive definite (so J is Hurwitz).
    if p is None or not all(_det([row[:k] for row in p[:k]]) > 0.0 for k in range(1, m + 1)):
        return None
    inverse = [_solve(p, [float(i == k) for k in range(m)]) for i in range(m)]
    if None in inverse or not min(column[i] for i, column in enumerate(inverse)) > 0.0:
        return None
    reach = max(column[i] for i, column in enumerate(inverse))
    p_max = _gershgorin_max(p)
    for r in _TRAP_RADII:
        count = math.ceil(1.0 / (2.0 * r))
        sides = [[_Interval(max(0.0, c - r), min(1.0, c + r))] if i in axes else
                 [_Interval(k / count, (k + 1) / count) for k in range(count)]
                 for i, c in enumerate(center)]
        pieces = [(x, n, y) for x in sides[0] for n in sides[1] for y in sides[2]]
        try:
            jacobians = [_jacobian(f, piece) for piece in pieces]
        except _Straddle:
            continue
        rows_box = [list(map(_hull, *rows)) for rows in zip(*jacobians)]
        # Not part of the proof: the RK4 run tracks the flow only with a step
        # short against the fastest rate on the box (dt times the bound on
        # |J|'s row sums); at dt = 2 a hawk-dove run next to the sink leaves the cube.
        if not settings.dt * max(sum(max(-b[0], b[1]) for b in map(_bounds, row))
                                 for row in rows_box) <= 0.5:
            continue
        pj = [[sum(p[i][l] * rows_box[axes[l]][k] for l in range(m)) for k in axes]
              for i in range(m)]
        beta = -_gershgorin_max([[pj[i][k] + pj[k][i] for k in range(m)] for i in range(m)])
        if not beta > 0.0:
            continue
        spread = 2.0 * p_max * math.sqrt(m) / beta
        # Offsets are measured from the record: this covers its distance to
        # the exact attractor, in the sup norm and through V.
        slack = spread * residual * (1.0 + math.sqrt(p_max * reach))
        if not (spread * (settings.eps_stationary + residual) <= LABEL_RADIUS and slack < r):
            return None
        return Trap(label, axes, tuple(center[i] for i in axes), tuple(map(tuple, p)),
                    (r - slack) ** 2 / reach, beta / p_max, reach, (LABEL_RADIUS - slack) ** 2)
    return None


def find_traps(scenario, records):
    """Certified traps, at most one per basin label among records: hyperbolic
    sinks, and family="n" lines that attract in (x, y) at every n.

    A record qualifies only when every record with another label lies more
    than 2*LABEL_RADIUS away from it (in x and y when either is a line), so a
    state within LABEL_RADIUS of it gets its label."""
    f = scenario.rhs()
    groups = {}
    for record in records:
        groups.setdefault(label_for(record), []).append(record)
    traps = []
    for label, group in groups.items():
        s = group[0].state
        if group[0].family == "n":
            center, axes = (s.x, 0.5, s.y), (0, 2)
        elif len(group) == 1:
            center, axes = (s.x, s.n, s.y), (0, 1, 2)
        else:
            continue
        others = [q for other, members in groups.items() if other != label for q in members]
        if any(min(distance_to(q, s), distance_to(group[0], q.state)) <= 2.0 * LABEL_RADIUS
               for q in others):
            continue
        trap = _certify(f, label, center, axes, max(r.residual for r in group), scenario.settings)
        if trap is not None:
            traps.append(trap)
    return traps


