"""Metamorphic checks of the model kernel whose expected values follow from
the model's equations, not from any implementation of them: a relabelling
of the two opinions, the invariant faces of the unit cube, and the direction
of the flow along the cube's edges."""

import itertools
import random

import pytest

from ecoopinion import EnvParams, GamePair, Payoff2x2, TrustMatrix, make_rhs, preset_scenario
from ecoopinion.dynamics import PROTOCOL_MODES

PRESETS = ("hawk-dove", "prisoners-dilemma")
# The four flags a0ij == a1ij: with the protocol mode, the kernel's shape.
SHARED = list(itertools.product((False, True), repeat=4))


def seeded_scenarios(seed):
    """(pair, env, trust) of both presets, then one seeded game pair per
    shared-entry pattern, so every kernel shape of a mode is covered."""
    rng = random.Random(seed)
    for name in PRESETS:
        sc = preset_scenario(name)
        yield sc.pair, sc.env, sc.trust
    for shared in SHARED:
        a0 = [rng.uniform(-10.0, 10.0) for _ in range(4)]
        a1 = [a if same else rng.uniform(-10.0, 10.0) for a, same in zip(a0, shared)]
        env = EnvParams(theta=rng.uniform(0.05, 3.0), psi=-rng.uniform(0.0, 3.0))
        trust = TrustMatrix(*(rng.random() for _ in range(4)))
        yield GamePair(Payoff2x2(*a0), Payoff2x2(*a1)), env, trust


def relabelled(pair, trust):
    """The same population with opinions m1 and m2 named the other way
    round: the games swap (A_y is then A_{1-y}), and so do the trust rows."""
    b11, b12, b21, b22 = trust.entries()
    return GamePair(pair.a1, pair.a0), TrustMatrix(b21, b22, b11, b12)


def dyadic_points(rng, count):
    """(x, n, y) with y = k/1024 inside (0, 1), so that 1 - (1 - y) == y."""
    points = [(rng.random(), rng.random(), rng.randint(1, 1023) / 1024) for _ in range(count)]
    assert all(1.0 - (1.0 - y) == y for _, _, y in points)
    return points


def bits(values):
    """float.hex of each value, a zero of either sign counting as one."""
    return [v.hex() if v else "0" for v in values]


class TestOpinionRelabelling:
    def test_opinion_mode_maps_the_flow_onto_itself(self):
        # Relabelling leaves x, n and the payoffs alone, turns dy into -dy
        # and swaps the two imitation rates.
        rng = random.Random(2020)
        checked = 0
        for pair, env, trust in seeded_scenarios(2021):
            f = make_rhs(pair, env, trust, "opinion")
            swapped_pair, swapped_trust = relabelled(pair, trust)
            g = make_rhs(swapped_pair, env, swapped_trust, "opinion")
            for x, n, y in dyadic_points(rng, 200):
                dx, dn, dy, u1, u2, p12, p21 = f(x, n, y)
                assert bits(g(x, n, 1.0 - y)) == bits((dx, dn, -dy, u1, u2, p21, p12)), (x, n, y)
                checked += 1
        assert checked == 200 * (len(PRESETS) + len(SHARED))

    @pytest.mark.parametrize("preset", PRESETS)
    def test_env_mode_breaks_it(self, preset):
        # The env-mode protocol reads A_n, which the swap of the games changes.
        sc = preset_scenario(preset)
        pair, trust = relabelled(sc.pair, sc.trust)
        f = make_rhs(sc.pair, sc.env, sc.trust, "env")
        g = make_rhs(pair, sc.env, trust, "env")
        error = 0.0
        for x, n, y in dyadic_points(random.Random(2022), 2000):
            dx, dn, dy, u1, u2, p12, p21 = f(x, n, y)
            expected = (dx, dn, -dy, u1, u2, p21, p12)
            error = max(error, *(abs(a - b) for a, b in zip(g(x, n, 1.0 - y), expected)))
        assert error > 0.1


class TestInvariantFaces:
    @pytest.mark.parametrize("mode", PROTOCOL_MODES)
    def test_normal_derivative_vanishes_on_each_face(self, mode):
        # dx carries the factor x(1 - x) and dn the factor n(1 - n), so no
        # orbit leaves the faces x in {0, 1} or n in {0, 1}.
        rng = random.Random(2023)
        for pair, env, trust in seeded_scenarios(2024):
            f = make_rhs(pair, env, trust, mode)
            for _ in range(100):
                a, b = rng.random(), rng.random()
                for face in (0.0, 1.0):
                    assert f(face, a, b)[0] == 0.0, (face, a, b)
                    assert f(a, face, b)[1] == 0.0, (a, face, b)


def sign(value):
    return (value > 0.0) - (value < 0.0)


def blended(pair, w):
    """Entries (11, 12, 21, 22) of the game (1 - w)*A0 + w*A1."""
    return [(1.0 - w) * a + w * b for a, b in zip(pair.a0.entries(), pair.a1.entries())]


class TestEdgeSigns:
    # Along each of the cube's 12 edges two coordinates sit at 0 or 1 and
    # the flow's component along the edge has a closed form. Points where
    # that form is within 1e-12 of 0 are skipped: rounding may flip them.
    TOL = 1e-12

    @pytest.mark.parametrize("mode", PROTOCOL_MODES)
    def test_each_edge_moves_as_its_closed_form(self, mode):
        rng = random.Random(2025)
        checked = skipped = 0

        def expect(closed_form, value, point):
            nonlocal checked, skipped
            if abs(closed_form) <= self.TOL:
                skipped += 1
            else:
                assert sign(value) == sign(closed_form), (point, value, closed_form)
                checked += 1

        for pair, env, trust in seeded_scenarios(2026):
            f = make_rhs(pair, env, trust, mode)
            b11, b12, b21, b22 = trust.entries()
            for _ in range(20):
                t = rng.random()
                for a, b in itertools.product((0.0, 1.0), repeat=2):
                    # n edge: dn = n(1 - n)(theta*x + psi*(1 - x)).
                    expect(env.theta if a else env.psi, f(a, t, b)[1], (a, t, b))
                    # x edge: dx = x(1 - x)(u1 - u2) under A_y.
                    c11, c12, c21, c22 = blended(pair, b)
                    expect((c11 - c21) * t + (c12 - c22) * (1.0 - t), f(t, a, b)[0], (t, a, b))
                    # y edge: dy has the sign of q21 = y*S1 - (1 - y)*S2, where
                    # S1 and S2 weigh the protocol game D = A_n (env) or A_y
                    # (opinion) by trust; at x = 1 only d11, at x = 0 only d22.
                    d11, _, _, d22 = blended(pair, b if mode == "env" else t)
                    q21 = (d11 * (t * b11 - (1.0 - t) * b21) if a
                           else d22 * (t * b12 - (1.0 - t) * b22))
                    expect(q21, f(a, b, t)[2], (a, b, t))
                    # On the x and n edges at y = b, dy = p21 = max(0, -S2) at
                    # y = 0 and -p12 = -max(0, -S1) at y = 1: zero exactly
                    # where that face is invariant (S2 >= 0, S1 >= 0), else
                    # pointing into the cube.
                    for x, n in ((t, a), (a, t)):
                        d11, d12, d21, d22 = blended(pair, n if mode == "env" else b)
                        v1, v2 = d11 * x + d12 * (1.0 - x), d21 * x + d22 * (1.0 - x)
                        s = x * v1 * (b11 if b else b21) + (1.0 - x) * v2 * (b12 if b else b22)
                        if abs(s) <= self.TOL:
                            skipped += 1
                            continue
                        dy = f(x, n, b)[2]
                        if s > 0.0:
                            assert dy == 0.0, ((x, n, b), dy, s)
                        else:
                            assert sign(dy) == (-1 if b else 1), ((x, n, b), dy, s)
                        checked += 1
        assert checked > 0.9 * (checked + skipped)
