"""count_points_mod against counts that do not share its fibre algebra:
a pure-Python walk over every point, and the closed forms at odd p; against
the unfolded table of squares mod 4p^k, on both sides of the parity that
picks the kernel's modulus; and its budget check."""

import pytest

from tamagawa.errors import BudgetExceededError
from tamagawa.exactcore import is_prime, kronecker_symbol, squarefree_part
from tamagawa.models import count_points_mod, norm_form_model, unit_group_model
from tamagawa.quadfield import QuadField

from oracles import count_points_mod_4m


def _squarefree_ds(bound):
    return [d for d in range(-bound, bound + 1)
            if d not in (0, 1) and squarefree_part(d) == d]


def _levels(p, qmax):
    k = 1
    while p ** k <= qmax:
        yield k, p ** k
        k += 1


def _textbook_norm(d):
    """N(a + b*omega) with omega = (1 + sqrt d)/2 or sqrt d: the same ring
    as the model's, in a basis other than its (1, (D + sqrt D)/2)."""
    if d % 4 == 1:
        return lambda a, b: a * a + a * b + (1 - d) // 4 * b * b
    return lambda a, b: a * a - d * b * b


# the largest level walked for each model, where it is not 49 and 9: p = 2
# counts mod 2^(k+2), so its deep levels go further; 11 and 13 at level 1
WALKED = {2: (128, 8), 11: (11, 11), 13: (13, 13)}


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_counts_match_a_walk_over_every_point(p):
    norm_qmax, unit_qmax = WALKED.get(p, (49, 9))
    for d in _squarefree_ds(30):
        field, norm = QuadField.from_d(d), _textbook_norm(d)
        for k, q in _levels(p, norm_qmax):
            want = sum(1 for a in range(q) for b in range(q) if norm(a, b) % q == 1)
            assert count_points_mod(norm_form_model(field), p, k) == want, (d, p, k)
        for k, q in _levels(p, unit_qmax):
            want = sum(1 for a in range(q) for b in range(q) for z in range(q)
                       if norm(a, b) * z % q == 1)
            assert count_points_mod(unit_group_model(field), p, k) == want, (d, p, k)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47])
def test_counts_match_closed_forms_at_odd_p(p):
    # norm-one: 2q ramified, (q/p)(p - chi_D(p)) otherwise;
    # unit-group: (q/p)^2 (p-1)^2, p^2-1, p(p-1) split, inert, ramified
    for d in _squarefree_ds(200):
        field = QuadField.from_d(d)
        chi = kronecker_symbol(field.D, p)
        unit = {1: (p - 1) ** 2, -1: p * p - 1, 0: p * (p - 1)}[chi]
        for k, q in _levels(p, 10 ** 4):
            norm_one = 2 * q if chi == 0 else q // p * (p - chi)
            assert count_points_mod(norm_form_model(field), p, k) == norm_one, (d, p, k)
            got = count_points_mod(unit_group_model(field), p, k, budget=q ** 3)
            assert got == (q // p) ** 2 * unit, (d, p, k)


def test_level_one_count_at_a_large_ramified_prime():
    # q^2 = 9973^2 points, within the default budget of 10^8
    model = norm_form_model(QuadField.from_d(-9973))
    assert count_points_mod(model, 9973, 1) == 2 * 9973


def test_counts_match_the_unfolded_table_mod_4q():
    # both models over fields with D = 1 mod 8, 5 mod 8 and 0 mod 4, at
    # every prime up to 47 and each level up to q = 2500 (2^11, 3^7, 7^4)
    for d in (-15, -7, -3, -1, -2, 5, 17, 3, 6, 13, -30):
        field = QuadField.from_d(d)
        for model in (norm_form_model(field), unit_group_model(field)):
            for p in filter(is_prime, range(48)):
                for k, q in _levels(p, 2500):
                    want = count_points_mod_4m(model, p, k)
                    assert count_points_mod(model, p, k, budget=q ** 3) == want, (
                        model.kind, d, p, k)


def test_budget_is_checked_before_the_power_is_built():
    model = norm_form_model(QuadField.from_d(-1))
    # 3^(2 * 10^7) has 9.5 million digits: neither built nor printed
    for k in (10 ** 5, 10 ** 7):
        with pytest.raises(BudgetExceededError,
                           match=rf"^p\^\(k\*vars\) = 3\^{2 * k} exceeds budget 100000000$"):
            count_points_mod(model, 3, k)
    # 2^4 points fit a budget of 16, not of 15
    assert count_points_mod(model, 2, 2, budget=16) == 8
    with pytest.raises(BudgetExceededError, match=r"= 2\^4 exceeds budget 15$"):
        count_points_mod(model, 2, 2, budget=15)
