"""Metamorphic checks of the model kernel whose expected values follow from
the model's equations, not from any implementation of them: a relabelling
of the two opinions, and the invariant faces of the unit cube."""

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
