import math
import random

import pytest

from ecoopinion import (
    GamePair,
    Payoff2x2,
    average_payoff,
    check_pd_conditions,
    classify_2x2,
    expected_payoff,
    hawk_dove_matrix,
    hawk_dove_pair,
)

HD_PAIR = hawk_dove_pair(4, 12, 7, 10)
PD_PAIR = GamePair(Payoff2x2(3.5, 1, 2, 0.75), Payoff2x2(4, 1, 4.5, 1.25))


def random_matrix(rng, lo=-10.0, hi=10.0):
    return Payoff2x2(*(rng.uniform(lo, hi) for _ in range(4)))


class TestExpectedPayoff:
    def test_hawk_against_hawks(self):
        # a11 = (v - c)/2 = -4 for v=4, c=12
        assert expected_payoff(HD_PAIR.a0, 1, 1.0) == -4.0

    def test_pure_opponent_corner(self):
        rng = random.Random(3)
        for _ in range(20):
            a = random_matrix(rng)
            assert expected_payoff(a, 1, 1.0) == a.a11
            assert expected_payoff(a, 2, 0.0) == a.a22

    def test_equalization_at_mixed_share(self):
        u1 = expected_payoff(HD_PAIR.a0, 1, 1 / 3)
        u2 = expected_payoff(HD_PAIR.a0, 2, 1 / 3)
        assert abs(u1 - u2) <= 1e-12

    def test_invalid_index(self):
        with pytest.raises(ValueError):
            expected_payoff(HD_PAIR.a0, 3, 0.5)

    def test_invalid_share(self):
        with pytest.raises(ValueError):
            expected_payoff(HD_PAIR.a0, 1, 1.5)

    def test_affine_in_share(self):
        rng = random.Random(11)
        for _ in range(200):
            a = random_matrix(rng)
            x1, x2, alpha = rng.random(), rng.random(), rng.random()
            blend = alpha * x1 + (1 - alpha) * x2
            for i in (1, 2):
                direct = expected_payoff(a, i, blend)
                mixed = alpha * expected_payoff(a, i, x1) + (1 - alpha) * expected_payoff(a, i, x2)
                assert abs(direct - mixed) <= 1e-13


class TestAveragePayoff:
    def test_closed_form_at_mixed_equilibrium(self):
        # v/2 - v^2/(2c) at the mixed share v/c
        for v, c in [(4, 12), (7, 10), (2, 4), (1, 9)]:
            a = hawk_dove_matrix(v, c)
            assert abs(average_payoff(a, v / c) - (v / 2 - v * v / (2 * c))) <= 1e-12

    def test_monomorphic_population(self):
        rng = random.Random(5)
        for _ in range(20):
            a = random_matrix(rng)
            assert average_payoff(a, 1.0) == a.a11

    def test_table_values(self):
        assert abs(average_payoff(HD_PAIR.a0, 1 / 3) - 4 / 3) <= 1e-12

    def test_consistency_with_expected(self):
        rng = random.Random(13)
        for _ in range(50):
            a = random_matrix(rng)
            for x in [k / 10 for k in range(11)]:
                combo = x * expected_payoff(a, 1, x) + (1 - x) * expected_payoff(a, 2, x)
                assert abs(average_payoff(a, x) - combo) <= 1e-14


class TestHawkDoveMatrix:
    @pytest.mark.parametrize("v,c,expected", [
        (4, 12, (-4.0, 4.0, 0.0, 2.0)),
        (7, 10, (-1.5, 7.0, 0.0, 3.5)),
        (2, 4, (-1.0, 2.0, 0.0, 1.0)),
    ])
    def test_entries(self, v, c, expected):
        assert hawk_dove_matrix(v, c).entries() == expected

    @pytest.mark.parametrize("v,c", [(4, 4), (5, 4), (0, 1), (-1, 2)])
    def test_rejects_outside_regime(self, v, c):
        with pytest.raises(ValueError):
            hawk_dove_matrix(v, c)


class TestClassify:
    def test_hawk_dove(self):
        report = classify_2x2(HD_PAIR.a0)
        assert report.pure_symmetric == ()
        assert set(report.pure_asymmetric) == {(1, 2), (2, 1)}
        assert abs(report.mixed_interior - 1 / 3) <= 1e-12
        assert not report.degenerate

    def test_pd_replenished(self):
        report = classify_2x2(PD_PAIR.a1)
        assert report.pure_symmetric == (2,)
        assert report.pure_asymmetric == ()
        assert report.mixed_interior is None

    def test_pd_depleted(self):
        report = classify_2x2(PD_PAIR.a0)
        assert report.pure_symmetric == (1,)
        assert report.pure_asymmetric == ()
        assert report.mixed_interior is None

    def test_mixed_share_is_value_cost_ratio(self):
        rng = random.Random(17)
        for _ in range(50):
            v = rng.uniform(0.5, 8.0)
            c = v + rng.uniform(0.5, 12.0)
            report = classify_2x2(hawk_dove_matrix(v, c))
            assert abs(report.mixed_interior - v / c) <= 1e-12
            assert set(report.pure_asymmetric) == {(1, 2), (2, 1)}
            assert report.pure_symmetric == ()

    def test_degenerate_flagged(self):
        report = classify_2x2(Payoff2x2(1.0, 2.0, 1.0, 2.0))
        assert report.degenerate
        assert report.pure_symmetric == ()
        assert report.pure_asymmetric == ()
        assert report.mixed_interior is None

    def test_agrees_with_brute_force(self):
        rng = random.Random(99)
        for _ in range(1000):
            a = random_matrix(rng)
            report = classify_2x2(a)
            got = {(i, i) for i in report.pure_symmetric} | set(report.pure_asymmetric)
            assert got == brute_force_nash(a)


def brute_force_nash(a, tol=1e-12):
    m = [[a.a11, a.a12], [a.a21, a.a22]]
    profiles = set()
    for i in (0, 1):
        for j in (0, 1):
            row_best = m[i][j] >= m[1 - i][j] - tol
            col_best = m[j][i] >= m[1 - j][i] - tol
            if row_best and col_best:
                profiles.add((i + 1, j + 1))
    return profiles


class TestPdConditions:
    def test_pd_pair_true(self):
        assert check_pd_conditions(PD_PAIR) is True

    def test_equal_rows_false(self):
        flat = Payoff2x2(1.0, 1.0, 1.0, 1.0)
        assert check_pd_conditions(GamePair(flat, flat)) is False

    def test_hawk_dove_pair_false(self):
        assert check_pd_conditions(HD_PAIR) is False


def test_payoff_matrix_rejects_non_finite():
    with pytest.raises(ValueError) as exc:
        Payoff2x2(1.0, math.nan, 0.0, 0.0)
    assert exc.value.key == "a12"
    with pytest.raises(ValueError) as exc:
        Payoff2x2(math.inf, 0.0, 0.0, 0.0)
    assert exc.value.key == "a11"


@pytest.mark.parametrize("v,c,key", [(4, math.inf, "c"), (math.nan, 4, "v"), (5, 4, "v")])
def test_hawk_dove_error_names_field(v, c, key):
    with pytest.raises(ValueError) as exc:
        hawk_dove_matrix(v, c)
    assert exc.value.key == key


def test_hawk_dove_rule_lists_both_fields():
    with pytest.raises(ValueError) as exc:
        hawk_dove_matrix(5, 4)
    assert exc.value.keys == ("v", "c")
    with pytest.raises(ValueError) as exc:
        hawk_dove_matrix(4, math.inf)
    assert exc.value.keys == ("c",)
