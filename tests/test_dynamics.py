import hashlib
import itertools
import random

import pytest

from ecoopinion import (
    EnvParams,
    GamePair,
    Payoff2x2,
    SystemState,
    TrustMatrix,
    environment_rhs,
    expected_payoff,
    hawk_dove_matrix,
    imitation_rate,
    make_rhs,
    replicator_rhs,
)
from ecoopinion import dynamics
from ecoopinion.dynamics import PROTOCOL_MODES, _bind
from ecoopinion.traps import _Interval, _Straddle, _bounds, _differentiate

HD_PAIR = GamePair(hawk_dove_matrix(4, 12), hawk_dove_matrix(7, 10))
PD_PAIR = GamePair(Payoff2x2(3.5, 1, 2, 0.75), Payoff2x2(4, 1, 4.5, 1.25))
ENV = EnvParams(theta=2.0, psi=-1.0)
TRUST = TrustMatrix(0.5, 0.0, 0.0, 0.5)


def random_matrix(rng, lo=-10.0, hi=10.0):
    return Payoff2x2(*(rng.uniform(lo, hi) for _ in range(4)))


def random_state(rng):
    return SystemState(rng.random(), rng.random(), rng.random())


def derivative(state, pair, env=ENV, trust=TRUST, mode="env"):
    return make_rhs(pair, env, trust, mode)(state.x, state.n, state.y)[:3]


def trusted_payoffs(x, a, trust):
    # S_i = x*u1*b_i1 + (1-x)*u2*b_i2, written out independently of the library.
    u1, u2 = expected_payoff(a, 1, x), expected_payoff(a, 2, x)
    return (x * u1 * trust.b11 + (1.0 - x) * u2 * trust.b12,
            x * u1 * trust.b21 + (1.0 - x) * u2 * trust.b22)


def weighted_payoffs(x, a, trust):
    """The library's trust-weighted payoffs (S1, S2), read off the protocol
    rates: p21 = S1 at y = 1 and p12 = S2 at y = 0 when both lie in [0, 1]."""
    return (imitation_rate(2, 1, SystemState(x, 0.5, 1.0), a, trust),
            imitation_rate(1, 2, SystemState(x, 0.5, 0.0), a, trust))


def blended_game(pair, y):
    """Entries (a11, a12, a21, a22) of the opinion-blended game A_y, read off
    the kernel: aij is the payoff u_i against a population playing j only,
    so u1, u2 at x = 1 give column 1 and at x = 0 column 2."""
    f = make_rhs(pair, ENV, TRUST)
    _, _, _, a11, a21, _, _ = f(1.0, 0.0, y)
    _, _, _, a12, a22, _, _ = f(0.0, 0.0, y)
    return (a11, a12, a21, a22)


class TestGameBlend:
    def test_endpoints_exact(self):
        rng = random.Random(7)
        pairs = [PD_PAIR, HD_PAIR] + [GamePair(random_matrix(rng), random_matrix(rng))
                                      for _ in range(20)]
        for pair in pairs:
            for y, game in ((0.0, pair.a0), (1.0, pair.a1)):
                assert [v.hex() for v in blended_game(pair, y)] == \
                    [v.hex() for v in game.entries()]

    def test_pd_midpoint(self):
        # hand arithmetic on the prisoner's dilemma pair at y = 0.5
        assert blended_game(PD_PAIR, 0.5) == (3.75, 1.0, 3.25, 1.0)

    def test_affine_identity(self):
        rng = random.Random(7)
        for y in [k / 20 for k in range(21)] + [rng.random() for _ in range(20)]:
            got = blended_game(HD_PAIR, y)
            for g, q, p in zip(got, HD_PAIR.a1.entries(), HD_PAIR.a0.entries()):
                expect = y * q + (1.0 - y) * p
                assert abs(g - expect) <= 1e-15 * (1.0 + abs(expect))


class TestReplicator:
    def test_boundary_fixed_points_exact(self):
        rng = random.Random(1)
        for _ in range(50):
            a = random_matrix(rng)
            assert replicator_rhs(SystemState(0.0, rng.random(), rng.random()), a) == 0.0
            assert replicator_rhs(SystemState(1.0, rng.random(), rng.random()), a) == 0.0

    def test_vanishes_at_mixed_equilibrium(self):
        state = SystemState(1 / 3, 0.5, 0.5)
        assert abs(replicator_rhs(state, HD_PAIR.a0)) <= 1e-12

    def test_sign_matches_payoff_advantage(self):
        rng = random.Random(2)
        for _ in range(300):
            a = random_matrix(rng)
            x = rng.uniform(0.01, 0.99)
            state = SystemState(x, 0.5, 0.5)
            diff = expected_payoff(a, 1, x) - expected_payoff(a, 2, x)
            dx = replicator_rhs(state, a)
            if diff > 0:
                assert dx > 0
            elif diff < 0:
                assert dx < 0


class TestEnvironment:
    def test_logistic_boundary(self):
        for x in (0.0, 0.3, 1.0):
            assert environment_rhs(SystemState(x, 0.0, 0.5), ENV) == 0.0
            assert environment_rhs(SystemState(x, 1.0, 0.5), ENV) == 0.0

    def test_drift_null_share(self):
        # theta*x + psi*(1-x) = 0 at x = -psi/(theta - psi) = 1/3
        assert abs(environment_rhs(SystemState(1 / 3, 0.5, 0.5), ENV)) <= 1e-15

    def test_full_replenishment_rate(self):
        assert environment_rhs(SystemState(1.0, 0.5, 0.5), ENV) == 0.5


class TestOpinionWeightedPayoff:
    def test_zero_trust(self):
        zero = TrustMatrix(0, 0, 0, 0)
        assert weighted_payoffs(0.4, HD_PAIR.a0, zero) == (0.0, 0.0)

    def test_half_trust_values(self):
        # u(e1, 0.5) = 0 and u(e2, 0.5) = 1 for the depleted hawk-dove game
        assert weighted_payoffs(0.5, HD_PAIR.a0, TRUST) == (0.0, 0.25)

    def test_invalid_index(self):
        with pytest.raises(ValueError):
            imitation_rate(0, 1, SystemState(0.5, 0.5, 0.5), HD_PAIR.a0, TRUST)


class TestImitationRate:
    def test_balanced_shares_and_payoffs(self):
        flat = Payoff2x2(1.0, 1.0, 1.0, 1.0)
        trust = TrustMatrix(0.3, 0.2, 0.25, 0.25)
        state = SystemState(0.5, 0.5, 0.5)
        s1, s2 = weighted_payoffs(0.5, flat, trust)
        assert s1 == s2
        assert imitation_rate(1, 2, state, flat, trust) == 0.0
        assert imitation_rate(2, 1, state, flat, trust) == 0.0

    def test_empty_target_opinion_clamps_to_zero(self):
        # p12 at y=1: target share is zero, so the argument is -S1 <= 0
        state = SystemState(0.5, 0.5, 1.0)
        assert imitation_rate(1, 2, state, PD_PAIR.a0, TRUST) == 0.0

    def test_matches_direct_formula(self):
        a_eff = Payoff2x2(-2.75, 5.5, 0.0, 2.75)  # HD_PAIR blended at y = 0.5
        state = SystemState(0.5, 0.5, 0.6)
        s1, s2 = trusted_payoffs(0.5, a_eff, TRUST)
        direct = 0.6 * s1 - (1 - 0.6) * s2
        direct = min(1.0, max(0.0, direct))
        assert abs(imitation_rate(2, 1, state, a_eff, TRUST) - direct) <= 1e-15

    def test_range_over_random_inputs(self):
        rng = random.Random(4)
        for _ in range(1000):
            state = random_state(rng)
            trust = TrustMatrix(rng.random(), rng.random(), rng.random(), rng.random())
            a = random_matrix(rng)
            for i, j in ((1, 2), (2, 1)):
                rate = imitation_rate(i, j, state, a, trust)
                assert 0.0 <= rate <= 1.0

    def test_rejects_same_opinion(self):
        with pytest.raises(ValueError):
            imitation_rate(1, 1, SystemState(0.5, 0.5, 0.5), HD_PAIR.a0, TRUST)


class TestOpinionRhs:
    """The opinion line dy of make_rhs on a constant game."""

    def test_boundary_with_nonnegative_payoffs(self):
        pair = GamePair(PD_PAIR.a0, PD_PAIR.a0)
        for y in (0.0, 1.0):
            assert derivative(SystemState(0.5, 0.5, y), pair)[2] == 0.0

    def test_zero_trust_everywhere(self):
        rng = random.Random(6)
        zero = TrustMatrix(0, 0, 0, 0)
        pair = GamePair(HD_PAIR.a0, HD_PAIR.a0)
        for _ in range(50):
            assert derivative(random_state(rng), pair, trust=zero)[2] == 0.0

    def test_consistency_with_scalar_rates(self):
        rng = random.Random(8)
        for _ in range(200):
            state = random_state(rng)
            a = random_matrix(rng)
            trust = TrustMatrix(rng.random(), rng.random(), rng.random(), rng.random())
            y = state.y
            s1, s2 = trusted_payoffs(state.x, a, trust)
            p21 = min(1.0, max(0.0, y * s1 - (1 - y) * s2))
            p12 = min(1.0, max(0.0, (1 - y) * s2 - y * s1))
            expect = (1 - y) * p21 - y * p12
            dy = derivative(state, GamePair(a, a), trust=trust)[2]
            assert abs(dy - expect) <= 1e-14


class TestCoupledRhs:
    """The coupled right-hand side as compiled by make_rhs."""

    def test_nonnegative_corner_is_fixed(self):
        assert derivative(SystemState(0.0, 0.0, 0.0), PD_PAIR) == (0.0, 0.0, 0.0)

    def test_simultaneous_nulls(self):
        # x = 1/3 nulls the environment drift; y = 0 nulls the hawk-dove
        # replicator bracket through the depleted game's mixed equilibrium.
        dx, dn, _ = derivative(SystemState(1 / 3, 0.5, 0.0), HD_PAIR)
        assert abs(dx) <= 1e-12
        assert abs(dn) <= 1e-12

    def test_matches_independent_transcription(self):
        state = SystemState(0.5, 0.3, 0.45)
        d = derivative(state, HD_PAIR, mode="env")
        t = transcribe_rhs(state, HD_PAIR, ENV, TRUST, "env")
        assert all(abs(a - b) <= 1e-14 for a, b in zip(d, t))

    def test_rejects_escaped_state(self):
        # make_rhs pins coordinates to the cube; the single-line views refuse
        # a state outside it instead of evaluating at the pinned point.
        with pytest.raises(ValueError):
            replicator_rhs(SystemState(-1e-8, 0.5, 0.5), HD_PAIR.a0)
        with pytest.raises(ValueError):
            environment_rhs(SystemState(0.5, 1.0 + 1e-8, 0.5), ENV)
        with pytest.raises(ValueError):
            imitation_rate(1, 2, SystemState(0.5, 0.5, 1.0 + 1e-8), HD_PAIR.a0, TRUST)

    def test_accepts_rounding_overshoot(self):
        f = make_rhs(HD_PAIR, ENV, TRUST)
        assert f(-1e-10, 0.5, 0.5)[:3] == f(0.0, 0.5, 0.5)[:3]
        assert f(-1e-10, 0.5, 0.5)[0] == 0.0

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            make_rhs(HD_PAIR, ENV, TRUST, "both")

    def test_agrees_with_compiled_rhs(self):
        rng = random.Random(10)
        for pair in (HD_PAIR, PD_PAIR):
            for mode in ("env", "opinion"):
                for _ in range(100):
                    state = random_state(rng)
                    d = derivative(state, pair, mode=mode)
                    t = transcribe_rhs(state, pair, ENV, TRUST, mode)
                    assert all(abs(a - b) <= 1e-14 for a, b in zip(d, t)), (pair, mode, state)

    def test_decoupled_when_games_match(self):
        pair = GamePair(PD_PAIR.a0, PD_PAIR.a0)
        rng = random.Random(12)
        x = 0.37
        reference = derivative(SystemState(x, 0.5, 0.5), pair)[0]
        for _ in range(100):
            assert derivative(SystemState(x, rng.random(), rng.random()), pair)[0] == reference

    def test_protocol_mode_changes_opinion_line_only(self):
        state = SystemState(0.4, 0.2, 0.7)
        d_env = derivative(state, HD_PAIR, mode="env")
        d_op = derivative(state, HD_PAIR, mode="opinion")
        assert d_env[:2] == d_op[:2]
        assert d_env[2] != d_op[2]


def transcribe_rhs(state, pair, env, trust, mode):
    # Plain rewrite of the three coupled equations, kept independent of the
    # library's composition for cross-checking. The protocol runs on A_n in
    # "env" mode and on A_y in "opinion" mode.
    x, n, y = state.x, state.n, state.y

    def matrix_at(w):
        return [
            [w * pair.a1.a11 + (1 - w) * pair.a0.a11, w * pair.a1.a12 + (1 - w) * pair.a0.a12],
            [w * pair.a1.a21 + (1 - w) * pair.a0.a21, w * pair.a1.a22 + (1 - w) * pair.a0.a22],
        ]

    def payoff(m, i):
        return m[i - 1][0] * x + m[i - 1][1] * (1 - x)

    ay = matrix_at(y)
    dx = x * (1 - x) * (payoff(ay, 1) - payoff(ay, 2))
    dn = n * (1 - n) * (env.theta * x + env.psi * (1 - x))
    ap = matrix_at(n) if mode == "env" else ay
    b = [[trust.b11, trust.b12], [trust.b21, trust.b22]]
    s = [x * payoff(ap, 1) * b[i][0] + (1 - x) * payoff(ap, 2) * b[i][1] for i in (0, 1)]
    p21 = min(1.0, max(0.0, y * s[0] - (1 - y) * s[1]))
    p12 = min(1.0, max(0.0, (1 - y) * s[1] - y * s[0]))
    dy = (1 - y) * p21 - y * p12
    return dx, dn, dy


class TestValidation:
    def test_trust_entries_must_be_unit_interval(self):
        with pytest.raises(ValueError):
            TrustMatrix(1.5, 0.0, 0.0, 0.5)
        with pytest.raises(ValueError):
            TrustMatrix(0.5, -0.1, 0.0, 0.5)

    def test_env_params_signs(self):
        with pytest.raises(ValueError) as exc:
            EnvParams(theta=0.0, psi=-1.0)
        assert exc.value.key == "theta"
        with pytest.raises(ValueError) as exc:
            EnvParams(theta=2.0, psi=0.5)
        assert exc.value.key == "psi"
        with pytest.raises(ValueError) as exc:
            EnvParams(theta=2.0, psi=float("nan"))
        assert exc.value.key == "psi"
        EnvParams(theta=2.0, psi=0.0)

    def test_system_state_must_be_finite(self):
        with pytest.raises(ValueError):
            SystemState(float("inf"), 0.5, 0.5)


# Inputs a kernel rewrite is most likely to get wrong by one ulp or one sign:
# signed zeros, the cube's faces, the neighbours of 0 and 1, and points just
# outside the cube that the kernel pins back onto it.
EDGE_COORDS = (0.0, -0.0, 1.0, 0.5, 5e-324, 1.0 - 2.0 ** -53, -1e-12, 1.0 + 1e-12)


def kernel_corpus(seed=20240, games=200, states=100):
    """Seeded (evaluator, x, n, y) cases: random games with shared, zero and
    signed-zero entries, zero and unit trust, psi of either zero, both
    protocol modes, and states that include EDGE_COORDS."""
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

    def coord():
        return rng.choice(EDGE_COORDS) if rng.random() < 0.25 else rng.random()

    for g in range(games):
        a0 = [entry() for _ in range(4)]
        a1 = [a if rng.random() < 0.3 else entry() for a in a0]
        trust = TrustMatrix(*[rng.choice((0.0, 1.0, rng.random())) for _ in range(4)])
        env = EnvParams(rng.uniform(0.01, 3.0), rng.choice((0.0, -0.0, -rng.uniform(0.0, 3.0))))
        f = make_rhs(GamePair(Payoff2x2(*a0), Payoff2x2(*a1)), env, trust, PROTOCOL_MODES[g % 2])
        for _ in range(states):
            yield f, coord(), coord(), coord()


class TestKernelBits:
    # sha256 of every output's float.hex() over kernel_corpus(); the tolerance
    # checks above cannot see a one-ulp or signed-zero change.
    DIGEST = "0955fcd48566139638b2f4fcef0dafc59fdf7345daf3be04a8ae7cc271af9269"

    def test_outputs_bit_identical(self):
        digest = hashlib.sha256()
        count = 0
        for f, x, n, y in kernel_corpus():
            digest.update((" ".join(v.hex() for v in f(x, n, y)) + "\n").encode())
            count += 1
        assert count == 20000
        assert digest.hexdigest() == self.DIGEST


def jacobian(pair, env, trust, mode="env"):
    """The Jacobian evaluator generated from make_rhs's equation list."""
    return _bind(pair, env, trust, mode, _differentiate)


class TestJacobian:
    """The generated Jacobian is make_rhs's derivative away from the
    protocol clamp's kinks."""

    @pytest.mark.parametrize("mode", PROTOCOL_MODES)
    def test_matches_central_differences(self, mode):
        rng = random.Random(20261018)
        h = 1e-6
        checked = 0
        while checked < 200:
            pair = GamePair(random_matrix(rng, -5.0, 5.0), random_matrix(rng, -5.0, 5.0))
            env = EnvParams(rng.uniform(0.1, 3.0), -rng.uniform(0.0, 3.0))
            trust = TrustMatrix(*(rng.random() for _ in range(4)))
            f = make_rhs(pair, env, trust, mode)
            z = [rng.uniform(0.05, 0.95) for _ in range(3)]
            *_, p12, p21 = f(*z)
            # Interior and away from the clamp's kinks: each rate is 0, 1 or
            # at least 1e-2 inside (0, 1), and not both are 0.
            if p12 == p21 or any(0.0 < p < 1e-2 or 1.0 - 1e-2 < p < 1.0 for p in (p12, p21)):
                continue
            rows = jacobian(pair, env, trust, mode)(*z)
            for j in range(3):
                up, down = list(z), list(z)
                up[j] += h
                down[j] -= h
                fu, fd = f(*up), f(*down)
                for i in range(3):
                    assert rows[i][j] == pytest.approx((fu[i] - fd[i]) / (2 * h),
                                                       rel=1e-6, abs=1e-7)
            checked += 1

    def test_face_rows_point_into_the_cube(self):
        # At x = 1 the clamped kernel is flat outward; the rows are the
        # derivative from inside.
        f = make_rhs(HD_PAIR, ENV, TRUST)
        z = (1.0, 0.4, 0.6)
        rows = jacobian(HD_PAIR, ENV, TRUST)(*z)
        h = 1e-7
        inside = [(f(*z)[i] - f(1.0 - h, 0.4, 0.6)[i]) / h for i in range(3)]
        assert [row[0] for row in rows] == pytest.approx(inside, rel=1e-5, abs=1e-6)

    def test_straddled_comparison_raises(self):
        # An interval answers a comparison only when the answer holds over
        # all of it.
        box = _Interval(0.2, 0.6)
        assert (box < 0.7, box > 0.7, box > 0.1, box < 0.1) == (True, False, True, False)
        assert (box < 0.2, box > 0.6) == (False, False)
        with pytest.raises(_Straddle):
            box < 0.5
        with pytest.raises(_Straddle):
            box > 0.5
        # So a box across a kink of the clamp has no Jacobian: around the
        # hawk-dove saddle (0.468, 1, 0.412) the balance q21 changes sign.
        f, jac = make_rhs(HD_PAIR, ENV, TRUST), jacobian(HD_PAIR, ENV, TRUST)
        assert f(0.4684, 1.0, 0.4116)[5:] != (0.0, 0.0)
        jac(0.4684, 1.0, 0.4116)
        with pytest.raises(_Straddle):
            jac(_Interval(0.46, 0.48), _Interval(0.99, 1.0), _Interval(0.40, 0.42))
        # A box that touches the faces n = 1 and y = 1 from inside does not
        # straddle the coordinate pins; around the sink (0.7, 1, 1) it has one.
        rows = jac(_Interval(0.675, 0.725), _Interval(0.975, 1.0), _Interval(0.975, 1.0))
        assert all(lo <= hi for row in rows for lo, hi in map(_bounds, row))

    def test_refuses_what_it_cannot_differentiate(self):
        # Read as a constant, a quotient would silently lose a term.
        for expr in ("x / y", "-x", "min(x, y)", "0.0 if x < 0.0 else x / y"):
            with pytest.raises(ValueError, match="cannot differentiate"):
                _differentiate([("q", expr)])


def reference_make_rhs(pair, env, trust, protocol_matrix_mode="env"):
    """make_rhs as a hand-written closure that branches on the entry flags
    and the protocol mode at every call: the reference the generated
    per-shape evaluators must match bit for bit."""
    a011, a012, a021, a022 = pair.a0.entries()
    a111, a112, a121, a122 = pair.a1.entries()
    e11 = a011 == a111
    e12 = a012 == a112
    e21 = a021 == a121
    e22 = a022 == a122
    theta, psi = env.theta, env.psi
    b11, b12, b21, b22 = trust.entries()
    use_env = protocol_matrix_mode == "env"

    def rhs(x, n, y):
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
        q12 = ys2 - ys1
        p21 = 0.0 if q21 < 0.0 else (1.0 if q21 > 1.0 else q21)
        p12 = 0.0 if q12 < 0.0 else (1.0 if q12 > 1.0 else q12)
        dy = yc * p21 - y * p12
        return dx, dn, dy, u1, u2, p12, p21

    return rhs


def shape_games(rng, shared, count):
    """count random game pairs whose entries agree exactly where shared says;
    an agreeing entry may be 0.0 in one game and -0.0 in the other."""
    for _ in range(count):
        a0, a1 = [], []
        for same in shared:
            a = rng.choice((0.0, -0.0, float(rng.randint(-5, 5)), rng.uniform(-10.0, 10.0)))
            if not same:
                b = a + rng.uniform(0.5, 5.0)
            else:
                b = -a if a == 0.0 and rng.random() < 0.5 else a
            a0.append(a)
            a1.append(b)
        yield GamePair(Payoff2x2(*a0), Payoff2x2(*a1))


class TestKernelShapes:
    """Each of the 32 shapes make_rhs compiles (entry flags a0ij == a1ij and
    protocol mode) against the hand-written closure kernel."""

    SHAPES = [(shared, mode) for shared in itertools.product((True, False), repeat=4)
              for mode in PROTOCOL_MODES]

    @pytest.mark.parametrize("shared, mode", SHAPES)
    def test_bits_equal_reference(self, shared, mode):
        rng = random.Random(repr((shared, mode)))
        outside = (-0.5, -1e-300, 1.5, 1.0 + 2.0 ** -52)
        for pair in shape_games(rng, shared, 4):
            trust = TrustMatrix(*[rng.choice((0.0, 1.0, rng.random())) for _ in range(4)])
            env = EnvParams(rng.uniform(0.01, 3.0), rng.choice((0.0, -0.0, -rng.uniform(0.0, 3.0))))
            f = make_rhs(pair, env, trust, mode)
            g = reference_make_rhs(pair, env, trust, mode)
            coords = [*EDGE_COORDS, *outside, rng.random(), rng.random()]
            for z in itertools.product(coords, repeat=3):
                assert [v.hex() for v in f(*z)] == [v.hex() for v in g(*z)], (pair, mode, z)

    def test_jacobian_digest(self):
        # sha256 over the Jacobian rows at seeded points inside the cube, on
        # its faces and at its corners, and over their bounds on boxes
        # clipped to it, for every shape. Each entry is hashed as v + 0.0,
        # so the sign of a zero does not count; a box on which the clamp
        # changes branch counts as one token.
        rng = random.Random(20261021)
        digest = hashlib.sha256()
        straddles = 0

        def coordinate():
            return rng.choice((0.0, 1.0, rng.random(), rng.random()))

        for shared, mode in self.SHAPES:
            for pair in shape_games(rng, shared, 4):
                trust = TrustMatrix(*[rng.choice((0.0, 1.0, rng.random())) for _ in range(4)])
                env = EnvParams(rng.uniform(0.01, 3.0), rng.choice((0.0, -rng.uniform(0.0, 3.0))))
                jac = jacobian(pair, env, trust, mode)
                points = [[coordinate() for _ in range(3)] for _ in range(10)]
                for center in list(points):
                    r = rng.choice((0.1, 0.025, 1e-3, 1e-6))
                    points.append([_Interval(max(0.0, c - r), min(1.0, c + r)) for c in center])
                for z in points:
                    try:
                        rows = jac(*z)
                    except _Straddle:
                        digest.update(b"straddle\n")
                        straddles += 1
                        continue
                    digest.update((" ".join((b + 0.0).hex() for row in rows for v in row
                                            for b in _bounds(v)) + "\n").encode())
        assert (straddles, digest.hexdigest()) == (
            585, "7fc6995cfe35b7a18b78738cf3ffd839e617b3e6809229e3bd6348ed223a5d7e")

    def test_compiled_once_per_shape(self):
        # Two pairs that differ in every entry, with other env and trust.
        pair = GamePair(HD_PAIR.a0, Payoff2x2(1.0, 2.0, 3.0, 4.0))
        first = make_rhs(pair, ENV, TRUST)
        other = make_rhs(GamePair(Payoff2x2(5.0, 6.0, 7.0, 8.0), HD_PAIR.a1),
                         EnvParams(0.5, 0.0), TrustMatrix(1.0, 0.0, 0.25, 1.0))
        assert first.__code__ is other.__code__
        assert first(0.3, 0.4, 0.5) != other(0.3, 0.4, 0.5)
        assert make_rhs(pair, ENV, TRUST, "opinion").__code__ is not first.__code__
        for _ in kernel_corpus(states=1):
            pass
        assert 2 < sum(transform is None for _, transform in dynamics._KERNELS) <= 32
