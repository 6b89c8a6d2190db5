"""Symmetric 2x2 games: payoff matrices, expected payoffs, and Nash-structure
classification. The blend of a GamePair's two games is written only in
dynamics.make_rhs.

Everything is written from the row player's point of view; the opponent in a
symmetric game plays the transposed matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

NASH_TOL = 1e-12
WEIGHT_TOL = 1e-12


class FieldError(ValueError):
    """A value broke a domain rule over the fields named by keys (a name or a
    tuple of names); key is the first. A message may open with that name."""

    def __init__(self, keys, message: str):
        super().__init__(message)
        self.keys = (keys,) if isinstance(keys, str) else tuple(keys)
        self.key = self.keys[0]


def finite(key: str, value) -> float:
    """value as a float; FieldError under key unless it is finite."""
    value = float(value)
    if not math.isfinite(value):
        raise FieldError(key, f"{key} must be finite, got {value!r}")
    return value


def finite_fields(obj, names) -> None:
    """Store each named field of the frozen dataclass obj as a finite float."""
    for name in names:
        object.__setattr__(obj, name, finite(name, getattr(obj, name)))


@dataclass(frozen=True)
class Payoff2x2:
    """Row player's payoff matrix; aij is the payoff of pure strategy i
    against an opponent playing pure strategy j."""

    a11: float
    a12: float
    a21: float
    a22: float

    def __post_init__(self):
        finite_fields(self, ("a11", "a12", "a21", "a22"))

    def entries(self) -> tuple[float, float, float, float]:
        """Row-major (a11, a12, a21, a22)."""
        return (self.a11, self.a12, self.a21, self.a22)


@dataclass(frozen=True)
class GamePair:
    """Environment-conditioned game: a0 applies when the environment is
    depleted, a1 when it is replenished."""

    a0: Payoff2x2
    a1: Payoff2x2


def expected_payoff(a: Payoff2x2, i: int, x: float) -> float:
    """Payoff of pure strategy i against a random opponent drawn from a
    population playing strategy 1 with probability x."""
    if not math.isfinite(x) or x < -WEIGHT_TOL or x > 1.0 + WEIGHT_TOL:
        raise ValueError(f"population share {x!r} outside [0, 1]")
    if i == 1:
        return a.a11 * x + a.a12 * (1.0 - x)
    if i == 2:
        return a.a21 * x + a.a22 * (1.0 - x)
    raise ValueError(f"strategy index must be 1 or 2, got {i!r}")


def average_payoff(a: Payoff2x2, x: float) -> float:
    """Population-average payoff at strategy-1 share x."""
    return x * expected_payoff(a, 1, x) + (1.0 - x) * expected_payoff(a, 2, x)


def hawk_dove_matrix(v: float, c: float) -> Payoff2x2:
    """Contest game over a resource worth v with fight cost c.

    Requires finite 0 < v < c, which places the interior mixed equilibrium at
    hawk share v/c.
    """
    v, c = finite("v", v), finite("c", c)
    if not 0.0 < v < c:
        raise FieldError(("v", "c"), f"hawk-dove game needs 0 < v < c, got v={v!r}, c={c!r}")
    return Payoff2x2((v - c) / 2.0, v, 0.0, v / 2.0)


@dataclass(frozen=True)
class EquilibriumReport:
    """Nash profiles of the symmetric two-player game (A, A^T).

    pure_symmetric lists strategies i for which (i, i) is an equilibrium;
    pure_asymmetric lists ordered profiles (i, j) with i != j; mixed_interior
    is the strategy-1 share of the interior symmetric equilibrium when one
    exists. degenerate marks the fully tied matrix (both rows identical
    columnwise), where every profile is trivially indifferent and no
    classification is reported.
    """

    pure_symmetric: tuple[int, ...]
    pure_asymmetric: tuple[tuple[int, int], ...]
    mixed_interior: float | None
    degenerate: bool = False


def classify_2x2(a: Payoff2x2) -> EquilibriumReport:
    """Classify the Nash equilibria of the symmetric game (A, A^T).

    Best-response checks are non-strict with slack NASH_TOL. The interior mixed
    equilibrium is computed from the indifference condition and reported only
    when the denominator is safely nonzero, the share lies strictly inside
    (0, 1), and payoff equalization actually holds at it.
    """
    if abs(a.a11 - a.a21) <= NASH_TOL and abs(a.a12 - a.a22) <= NASH_TOL:
        return EquilibriumReport((), (), None, degenerate=True)

    sym = []
    if a.a11 >= a.a21 - NASH_TOL:
        sym.append(1)
    if a.a22 >= a.a12 - NASH_TOL:
        sym.append(2)

    asym = []
    if a.a12 >= a.a22 - NASH_TOL and a.a21 >= a.a11 - NASH_TOL:
        asym.extend([(1, 2), (2, 1)])

    mixed = None
    den = a.a11 - a.a12 - a.a21 + a.a22
    if abs(den) >= NASH_TOL:
        xs = (a.a22 - a.a12) / den
        if 0.0 < xs < 1.0:
            gap = expected_payoff(a, 1, xs) - expected_payoff(a, 2, xs)
            if abs(gap) <= NASH_TOL:
                mixed = xs

    return EquilibriumReport(tuple(sym), tuple(asym), mixed)


def check_pd_conditions(pair: GamePair) -> bool:
    """True when strategy 1 strictly dominates in the depleted game while
    strategy 2 strictly dominates in the replenished game."""
    a0, a1 = pair.a0, pair.a1
    return (
        a0.a11 > a0.a21
        and a0.a12 > a0.a22
        and a1.a11 < a1.a21
        and a1.a12 < a1.a22
    )
