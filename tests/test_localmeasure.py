"""Local densities: good-prime formula vs brute-force stabilization,
smooth lifting, bad-prime traces, budget behavior."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tamagawa.errors import BudgetExceededError, NotStabilizedError, UnsupportedTorusError
from tamagawa.galois import build_torus, is_good_prime
from tamagawa.localmeasure import (
    bad_prime_density,
    cross_validate_density,
    level_counts,
)
from tamagawa.models import count_points_mod, norm_form_model, unit_group_model
from tamagawa.quadfield import BiquadField, QuadField
from tamagawa.report import PASS
from oracles import local_density_good, norm


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
        assert got.trace[-1][2] == got.trace[-2][2] == want
        # trace entries are (k, count, count / p^{k dim})
        for k, count, ratio in got.trace:
            assert ratio == Fraction(count, p ** (k * t.dim))


def test_flagship_two_adic_counts():
    t = build_torus("norm-one", QuadField.from_d(-1))
    assert count_points_mod(t.model, 2, 3) == 16
    assert count_points_mod(t.model, 2, 4) == 32
    d = bad_prime_density(t, 2)
    assert d.value == 2 and d.trace[-1][2] == d.trace[-2][2]


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
    # 23^(2k) <= 1e4 gives k = 1 only
    assert [k for k, _ in level_counts(t.model, 23, 10**4)] == [1]
    with pytest.raises(NotStabilizedError, match=r"within k <= 1$") as exc:
        bad_prime_density(t, 23, budget=10**4)
    assert len(exc.value.trace) == 1
    with pytest.raises(BudgetExceededError, match="^cannot afford even k=1 at p=23 "
                                                  "within budget 400$"):
        bad_prime_density(t, 23, budget=400)
    with pytest.raises(BudgetExceededError):
        count_points_mod(t.model, 23, 3)  # 23^6 > 1e8 default budget


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([-1, -3, -7, -23, 5, 13]),
    st.sampled_from([norm_form_model, unit_group_model]),
    st.sampled_from([2, 3, 5, 7, 11, 13, 23]),
    st.integers(10**4, 10**8),
)
@example(d=-23, model=norm_form_model, p=23, budget=10**4)
@example(d=-1, model=unit_group_model, p=3, budget=3**9)  # the budget is a level's size
def test_level_counts_climb_exactly_the_levels_the_budget_admits(d, model, p, budget):
    m = model(QuadField.from_d(d))
    top = max((k for k in range(1, 30) if p ** (k * m.nvars) <= budget), default=0)
    got = list(level_counts(m, p, budget))
    assert [k for k, _ in got] == list(range(1, top + 1))
    for k, count in got:
        assert count == count_points_mod(m, p, k, budget=budget)


def test_bad_prime_density_validation():
    t = build_torus("norm-one", QuadField.from_d(-1))
    with pytest.raises(ValueError):
        bad_prime_density(t, 5)  # good prime
    bq = build_torus("norm-one", BiquadField.from_pair(13, 17))
    with pytest.raises(UnsupportedTorusError):
        bad_prime_density(bq, 13)  # no affine model for biquadratic tori


def test_local_density_dispatch():
    # the good-prime formula takes exactly the primes off 2 * disc, and
    # brute force exactly the bad primes, the ones the tnc row reads; the
    # cross-check rejects a bad prime before it counts anything
    for d in (-7, 5):
        t = build_torus("norm-one", QuadField.from_d(d))
        for p in (2, 3, 5, 7, 11, 13):
            if p in t.bad_primes():
                assert not is_good_prime(t, p)
                assert bad_prime_density(t, p).trace
                with pytest.raises(ValueError,
                                   match=f"^p={p} is not a good prime for {t.label}$"):
                    cross_validate_density(t, p)
            else:
                good = cross_validate_density(t, p).values["good_formula"]
                assert good == local_density_good(t, p).value
                with pytest.raises(ValueError, match="neither ramified nor 2"):
                    bad_prime_density(t, p)
        # 17 is good for both fields, but above the cross-check's bound
        with pytest.raises(ValueError,
                           match=r"^brute-force cross-validation is limited to p <= 13$"):
            cross_validate_density(t, 17)


def test_res_density_routes_agree_at_2():
    # res-scalars over Q(i): the 3-variable unit-group model at the bad prime
    t = build_torus("res-scalars", QuadField.from_d(-1))
    d = bad_prime_density(t, 2)
    assert d.trace[-1][2] == d.trace[-2][2] == d.value
    # the unit-group count mod 2: pairs (a,b) with norm odd
    k = QuadField.from_d(-1)
    direct = sum(1 for a in range(2) for b in range(2) if norm(k, a, b) % 2)
    assert d.trace[0][1] == direct

