"""Right-hand sides of the coupled strategy / environment / opinion system.

The state is a point (x, n, y) in the unit cube: x the share of the
population playing pure strategy 1, n the environment level between depleted
(0) and replenished (1), and y the share holding opinion m1. The strategy
share follows replicator dynamics on the opinion-interpolated game A_y; the
environment follows logistic growth driven by the strategy mix; the opinion
share follows mean dynamics under a pairwise imitation protocol whose payoff
comparisons are weighted by a trust matrix. The protocol evaluates payoffs on
the environment-interpolated game A_n by default ("env" mode) or on A_y
("opinion" mode).
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass

from .game import FieldError, GamePair, Payoff2x2, finite_fields

PROTOCOL_MODES = ("env", "opinion")


class BlowupError(RuntimeError):
    """The simulated state left its valid domain or turned non-finite."""

    def __init__(self, message, *, component=None, t=None):
        super().__init__(message)
        self.component = component
        self.t = t


@dataclass(frozen=True)
class SystemState:
    """Point (x, n, y); coordinates are expected in [0, 1].

    Construction only checks finiteness: producers (the integrator's cube
    projection, Scenario's initial state) are responsible for keeping
    coordinates in the cube.
    """

    x: float
    n: float
    y: float

    def __post_init__(self):
        finite_fields(self, ("x", "n", "y"))


@dataclass(frozen=True)
class TrustMatrix:
    """Entry bij weighs how much an agent holding opinion mi trusts players
    using strategy j; every entry lies in [0, 1]."""

    b11: float
    b12: float
    b21: float
    b22: float

    def __post_init__(self):
        names = ("b11", "b12", "b21", "b22")
        finite_fields(self, names)
        for name in names:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise FieldError(name, f"trust entry {name}={value!r} outside [0, 1]")

    def entries(self) -> tuple[float, float, float, float]:
        return (self.b11, self.b12, self.b21, self.b22)


@dataclass(frozen=True)
class EnvParams:
    """Environment rates: theta > 0 is replenishment by strategy-1 players,
    psi <= 0 is depletion by strategy-2 players."""

    theta: float
    psi: float

    def __post_init__(self):
        finite_fields(self, ("theta", "psi"))
        if self.theta <= 0.0:
            raise FieldError("theta", f"theta must be positive, got {self.theta!r}")
        if self.psi > 0.0:
            raise FieldError("psi", f"psi must be nonpositive, got {self.psi!r}")


def _kernel_source(shape, transform=None) -> str:
    """Source of a function that binds make_rhs's 14 constants and returns
    the evaluator of one shape: the four flags a0ij == a1ij and the protocol
    mode. The equations are listed once, in evaluation order; where both
    games agree on an entry the shared entry is read directly, which keeps
    interpolation exact; transform(steps) may rewrite steps and result. An
    unread temporary is dropped, and one read once is inlined, grouping kept."""
    *shared, mode = shape

    def blend(w, ij, same):
        return f"a0{ij}" if same else f"{w} * a1{ij} + {w}c * a0{ij}"

    entries = ("11", "12", "21", "22")
    steps = [("xc", "1.0 - x"), ("nc", "1.0 - n"), ("yc", "1.0 - y")]
    steps += [(f"c{ij}", blend("y", ij, same)) for ij, same in zip(entries, shared)]
    steps += [("u1", "c11 * x + c12 * xc"), ("u2", "c21 * x + c22 * xc"),
              ("dx", "x * xc * (u1 - u2)"), ("dn", "n * nc * (theta * x + psi * xc)")]
    v1, v2 = "u1", "u2"
    if mode == "env":
        steps += [(f"d{ij}", blend("n", ij, same)) for ij, same in zip(entries, shared)]
        steps += [("v1", "d11 * x + d12 * xc"), ("v2", "d21 * x + d22 * xc")]
        v1, v2 = "v1", "v2"
    steps += [("xv1", f"x * {v1}"), ("xcv2", f"xc * {v2}"),
              ("s1", "xv1 * b11 + xcv2 * b12"), ("s2", "xv1 * b21 + xcv2 * b22"),
              ("ys1", "y * s1"), ("ys2", "yc * s2"),
              # Not -q21: equal terms must give +0.0 in both rates.
              ("q21", "ys1 - ys2"), ("q12", "ys2 - ys1"),
              ("p21", "0.0 if q21 < 0.0 else (1.0 if q21 > 1.0 else q21)"),
              ("p12", "0.0 if q12 < 0.0 else (1.0 if q12 > 1.0 else q12)"),
              ("dy", "yc * p21 - y * p12")]
    result = "dx, dn, dy, u1, u2, p12, p21"
    if transform is not None:
        steps, result = transform(steps)
    name = re.compile(r"[a-z_]\w*")
    reads = Counter(name.findall(" ".join(expr for _, expr in steps) + " " + result))
    inline: dict[str, str] = {}

    def substitute(expr):
        return name.sub(lambda m: inline.get(m[0], m[0]), expr)

    lines = []
    for target, expr in steps:
        expr = substitute(expr)
        if reads[target] == 1:
            inline[target] = expr if expr.isidentifier() else f"({expr})"
        elif reads[target]:
            lines.append(f"        {target} = {expr}")
    pins = "".join(f"        if {c} < 0.0:\n            {c} = 0.0\n"
                   f"        elif {c} > 1.0:\n            {c} = 1.0\n" for c in "xny")
    return ("def bind(a011, a012, a021, a022, a111, a112, a121, a122,\n"
            "         theta, psi, b11, b12, b21, b22):\n"
            "    def rhs(x, n, y):\n" + pins + "\n".join(lines)
            + f"\n        return {substitute(result)}\n    return rhs\n")


_KERNELS: dict[tuple, object] = {}


def _bind(pair, env, trust, mode, transform=None):
    """_kernel_source(shape, transform)'s evaluator, bound to 14 constants."""
    a0, a1 = pair.a0.entries(), pair.a1.entries()
    shape = (*(p == q for p, q in zip(a0, a1)), mode)
    bind = _KERNELS.get((shape, transform))
    if bind is None:
        namespace: dict = {}
        exec(_kernel_source(shape, transform), namespace)
        bind = _KERNELS[shape, transform] = namespace["bind"]
    return bind(*a0, *a1, env.theta, env.psi, *trust.entries())


def make_rhs(pair: GamePair, env: EnvParams, trust: TrustMatrix,
             protocol_matrix_mode: str = "env"):
    """Compile the coupled system into a plain-float evaluator.

    Returns f with f(x, n, y) -> (dx, dn, dy, u1, u2, p12, p21): the
    derivative plus the strategy payoffs under the replicator matrix A_y and
    the two protocol rates, each clamped to [0, 1]. Coordinates are pinned
    to [0, 1] before evaluation. This is the only place the model equations
    are written (listed in _kernel_source): the integrator, the analysis
    scans and the single-line views below all evaluate f, and
    ecoopinion.traps generates its Jacobian from the same list.

    f's source is generated once per shape, that is which payoff entries the
    two games share and the protocol mode (at most 32 shapes), and compiled
    once per process. Each call binds the scenario's 14 constants in a
    closure around that shared code, so f takes only (x, n, y).
    """
    if protocol_matrix_mode not in PROTOCOL_MODES:
        raise ValueError(
            f"protocol_matrix_mode must be one of {PROTOCOL_MODES}, got {protocol_matrix_mode!r}"
        )
    return _bind(pair, env, trust, protocol_matrix_mode)


# Placeholders for the inputs a single-line view does not read.
_ANY_GAME = Payoff2x2(0.0, 0.0, 0.0, 0.0)
_ANY_ENV = EnvParams(theta=1.0, psi=0.0)
_ANY_TRUST = TrustMatrix(0.0, 0.0, 0.0, 0.0)


def _evaluate(state: SystemState, a_eff: Payoff2x2 = _ANY_GAME, env: EnvParams = _ANY_ENV,
              trust: TrustMatrix = _ANY_TRUST):
    """make_rhs on the constant game a_eff, so both interpolated matrices
    equal a_eff exactly."""
    for name, value in (("x", state.x), ("n", state.n), ("y", state.y)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"state component {name}={value!r} outside [0, 1]")
    return make_rhs(GamePair(a_eff, a_eff), env, trust)(state.x, state.n, state.y)


def replicator_rhs(state: SystemState, a_eff: Payoff2x2) -> float:
    """x(1-x) times the payoff advantage of strategy 1 under a_eff."""
    return _evaluate(state, a_eff)[0]


def environment_rhs(state: SystemState, env: EnvParams) -> float:
    """Logistic resource change driven by the strategy mix."""
    return _evaluate(state, env=env)[1]


def imitation_rate(i: int, j: int, state: SystemState, a_eff: Payoff2x2,
                   trust: TrustMatrix) -> float:
    """Rate p_ij at which opinion-mi holders adopt opinion mj: the
    share-weighted trusted-payoff difference y_j*S_j - y_i*S_i clamped to
    [0, 1], where S_i sums each strategy's payoff under a_eff weighted by
    its share and by the mi holders' trust in its players."""
    if i == j:
        raise ValueError("imitation requires two distinct opinions")
    if i not in (1, 2) or j not in (1, 2):
        raise ValueError(f"opinion indices must be 1 or 2, got ({i!r}, {j!r})")
    return _evaluate(state, a_eff, trust=trust)[5 if i == 1 else 6]
