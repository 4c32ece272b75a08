"""Local densities: good-prime formula vs brute-force stabilization,
smooth lifting, bad-prime traces, budget behavior."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tamagawa.errors import BudgetExceededError, NotStabilizedError, UnsupportedTorusError
from tamagawa.galois import build_torus, is_good_prime
from tamagawa.localmeasure import (
    bad_prime_density,
    cross_validate_density,
    local_density,
    local_density_good,
    max_feasible_level,
)
from tamagawa.models import count_points_mod
from tamagawa.quadfield import BiquadField, QuadField
from tamagawa.report import PASS


BAD_DENSITIES = {
    ("norm-one", -1, 2): Fraction(2),
    ("norm-one", -3, 2): Fraction(3, 2),
    ("norm-one", -3, 3): Fraction(2),
    ("norm-one", -5, 2): Fraction(2),
    ("norm-one", -5, 5): Fraction(2),
    ("norm-one", -7, 2): Fraction(1, 2),
    ("norm-one", -7, 7): Fraction(2),
    ("norm-one", -23, 2): Fraction(1, 2),
    ("norm-one", -23, 23): Fraction(2),
    ("norm-one", 5, 2): Fraction(3, 2),
    ("norm-one", 5, 5): Fraction(2),
    ("norm-one", 13, 2): Fraction(3, 2),
    ("norm-one", 13, 13): Fraction(2),
}


def test_bad_prime_densities_frozen():
    for (family, d, p), want in BAD_DENSITIES.items():
        t = build_torus(family, QuadField.from_d(d))
        got = bad_prime_density(t, p)
        assert got.value == want, (family, d, p, got)
        assert got.stabilized
        # trace entries are (k, count, count / p^{k dim})
        for k, count, ratio in got.trace:
            assert ratio == Fraction(count, p ** (k * t.dim))


def test_flagship_two_adic_counts():
    t = build_torus("norm-one", QuadField.from_d(-1))
    assert count_points_mod(t.model, 2, 3) == 16
    assert count_points_mod(t.model, 2, 4) == 32
    d = bad_prime_density(t, 2)
    assert d.value == 2 and d.stabilized


def test_good_density_formula():
    t = build_torus("norm-one", QuadField.from_d(-1))
    assert local_density_good(t, 3).value == Fraction(4, 3)
    assert local_density_good(t, 5).value == Fraction(4, 5)
    with pytest.raises(ValueError):
        local_density_good(t, 2)


def test_cross_validation_pass():
    for d in (-1, -7, 5):
        for family in ("norm-one", "res-scalars"):
            t = build_torus(family, QuadField.from_d(d))
            for p in (3, 5, 11):
                if not is_good_prime(t, p):
                    continue
                rep = cross_validate_density(t, p)
                assert rep.verdict == PASS, (family, d, p, rep)
                assert rep.values["good_formula"] == rep.values["brute_force"]
    with pytest.raises(ValueError):
        cross_validate_density(build_torus("norm-one", QuadField.from_d(-1)), 17)


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([-1, -3, -7, -11, 5, 13]),
    st.sampled_from(["norm-one", "res-scalars", "quotient-by-gm"]),
    st.sampled_from([3, 5, 7, 11, 13]),
    st.integers(1, 2),
)
def test_smooth_lifting_property(d, family, p, k):
    t = build_torus(family, QuadField.from_d(d))
    if not is_good_prime(t, p):
        return
    if p ** ((k + 1) * t.model.nvars) > 10**8:
        return
    c_k = count_points_mod(t.model, p, k)
    c_next = count_points_mod(t.model, p, k + 1)
    assert c_next == p**t.dim * c_k


def test_budget_exhaustion():
    t = build_torus("norm-one", QuadField.from_d(-23))
    # 23^2 = 529 > budget 10^4? no: 23^(2k) <= 1e4 gives k = 1 only
    assert max_feasible_level(t.model, 23, 10**4) == 1
    with pytest.raises(NotStabilizedError) as exc:
        bad_prime_density(t, 23, budget=10**4)
    assert len(exc.value.trace) == 1
    with pytest.raises(BudgetExceededError):
        bad_prime_density(t, 23, budget=400)  # cannot even afford k=1
    with pytest.raises(BudgetExceededError):
        count_points_mod(t.model, 23, 3)  # 23^6 > 1e8 default budget


def test_bad_prime_density_validation():
    t = build_torus("norm-one", QuadField.from_d(-1))
    with pytest.raises(ValueError):
        bad_prime_density(t, 5)  # good prime
    bq = build_torus("norm-one", BiquadField.from_pair(13, 17))
    with pytest.raises(UnsupportedTorusError):
        bad_prime_density(bq, 13)  # no affine model for biquadratic tori


def test_local_density_dispatch():
    t = build_torus("norm-one", QuadField.from_d(-7))
    assert local_density(t, 3).method == "good-formula"
    assert local_density(t, 2).method == "brute-force"
    assert local_density(t, 7).method == "brute-force"


def test_res_density_routes_agree_at_2():
    # res-scalars over Q(i): the 3-variable unit-group model at the bad prime
    t = build_torus("res-scalars", QuadField.from_d(-1))
    d = bad_prime_density(t, 2)
    assert d.stabilized
    # the unit-group count mod 2: pairs (a,b) with norm odd
    k = QuadField.from_d(-1)
    direct = sum(1 for a in range(2) for b in range(2) if k.norm(a, b) % 2)
    assert d.trace[0][1] == direct

