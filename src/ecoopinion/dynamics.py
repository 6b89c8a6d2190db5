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


def make_rhs(pair: GamePair, env: EnvParams, trust: TrustMatrix,
             protocol_matrix_mode: str = "env"):
    """Compile the coupled system into a plain-float evaluator.

    Returns f with f(x, n, y) -> (dx, dn, dy, u1, u2, p12, p21): the
    derivative plus the strategy payoffs under the replicator matrix A_y and
    the two protocol rates, each clamped to [0, 1]. Coordinates are pinned
    to [0, 1] before evaluation. This is the only place the model equations
    are written: the integrator, the analysis scans and the single-line views
    below all evaluate it, and ecoopinion.traps differentiates it on dual
    numbers (it uses only +, - and *, and compares with < and >).
    """
    if protocol_matrix_mode not in PROTOCOL_MODES:
        raise ValueError(
            f"protocol_matrix_mode must be one of {PROTOCOL_MODES}, got {protocol_matrix_mode!r}"
        )
    a011, a012, a021, a022 = pair.a0.entries()
    a111, a112, a121, a122 = pair.a1.entries()
    # Per-entry equality flags keep interpolation exact when both games agree.
    e11 = a011 == a111
    e12 = a012 == a112
    e21 = a021 == a121
    e22 = a022 == a122
    theta, psi = env.theta, env.psi
    b11, b12, b21, b22 = trust.entries()
    use_env = protocol_matrix_mode == "env"

    def rhs(x: float, n: float, y: float):
        if x < 0.0:
            x = 0.0
        elif x > 1.0:
            x = 1.0
        if n < 0.0:
            n = 0.0
        elif n > 1.0:
            n = 1.0
        if y < 0.0:
            y = 0.0
        elif y > 1.0:
            y = 1.0

        # Complements and repeated products are formed once, in equation order.
        xc = 1.0 - x
        nc = 1.0 - n
        yc = 1.0 - y
        c11 = a011 if e11 else y * a111 + yc * a011
        c12 = a012 if e12 else y * a112 + yc * a012
        c21 = a021 if e21 else y * a121 + yc * a021
        c22 = a022 if e22 else y * a122 + yc * a022
        u1 = c11 * x + c12 * xc
        u2 = c21 * x + c22 * xc
        dx = x * xc * (u1 - u2)

        dn = n * nc * (theta * x + psi * xc)

        if use_env:
            d11 = a011 if e11 else n * a111 + nc * a011
            d12 = a012 if e12 else n * a112 + nc * a012
            d21 = a021 if e21 else n * a121 + nc * a021
            d22 = a022 if e22 else n * a122 + nc * a022
            v1 = d11 * x + d12 * xc
            v2 = d21 * x + d22 * xc
        else:
            v1, v2 = u1, u2
        xv1 = x * v1
        xcv2 = xc * v2
        s1 = xv1 * b11 + xcv2 * b12
        s2 = xv1 * b21 + xcv2 * b22
        ys1 = y * s1
        ys2 = yc * s2
        q21 = ys1 - ys2
        # Not -q21: equal terms must give +0.0 in both rates.
        q12 = ys2 - ys1
        p21 = 0.0 if q21 < 0.0 else (1.0 if q21 > 1.0 else q21)
        p12 = 0.0 if q12 < 0.0 else (1.0 if q12 > 1.0 else q12)
        dy = yc * p21 - y * p12
        return dx, dn, dy, u1, u2, p12, p21

    return rhs


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
