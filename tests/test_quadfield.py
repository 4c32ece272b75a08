"""Quadratic fields: discriminants, class numbers by counting reduced forms
and their cycles, units, residue-ring counts, biquadratic bookkeeping."""

import math

import pytest

from tamagawa.errors import BudgetExceededError
from tamagawa.exactcore import kronecker_symbol, primes_up_to
from tamagawa.galois import _CHARACTERS
from tamagawa.models import count_points_mod, norm_form_model, unit_group_model
from tamagawa.quadfield import (
    BiquadField,
    QuadField,
    class_group,
    fundamental_unit,
    is_fundamental_discriminant,
    norm_one_unit,
    reduced_forms,
)
from oracles import analytic_class_number, norm

FUNDAMENTAL = [-3, -4, -7, -8, -11, -15, -19, -20, -23, -47, -84, 5, 8, 12, 13, 17, 21]


def test_fundamental_discriminants():
    for D in FUNDAMENTAL:
        assert is_fundamental_discriminant(D)
    for D in (0, 1, -1, -2, 3, 4, -9, -12, -16, 9, 25, -18):
        assert not is_fundamental_discriminant(D)


def test_quadfield_construction():
    k = QuadField.from_d(-1)
    assert k.D == -4 and k.is_imaginary
    assert QuadField.from_d(5).D == 5
    assert QuadField.from_d(-3).D == -3
    assert QuadField.from_d(2).D == 8
    with pytest.raises(ValueError):
        QuadField(4, 16)  # not squarefree
    assert QuadField.from_d(-5).ramified_primes() == (2, 5)
    assert QuadField.from_d(-3).ramified_primes() == (3,)
    assert QuadField.from_d(-5).subfield_discs == (-20,)


def test_norm_form():
    k = QuadField.from_d(-1)  # w = -2 + i, N(a + bw) = a^2 - 4ab + 5b^2
    assert norm(k, 1, 0) == 1
    assert norm(k, 2, 1) == 1  # 2 + w = i
    assert norm(k, 0, 1) == 5
    k3 = QuadField.from_d(-3)
    assert norm(k3, 1, 1) == 1  # a sixth root of unity


# ---------------------------------------------------------------------------
# class numbers

KNOWN_H = {-3: 1, -4: 1, -7: 1, -8: 1, -11: 1, -15: 2, -19: 1, -20: 2,
           -23: 3, -47: 5, -84: 4}


def test_reduced_form_counts():
    for D, h in KNOWN_H.items():
        forms = reduced_forms(D)
        assert len(forms) == h, (D, forms)
        assert class_group(D).h == h
        assert (1, D % 2, (D % 2 - D) // 4) in forms  # the principal form
        for (a, b, c) in forms:
            assert b * b - 4 * a * c == D
            assert -a < b <= a <= c
            if a == c or b == a:
                assert b >= 0


NARROW_H = {5: 1, 8: 1, 12: 2, 13: 1, 40: 2, 60: 4, 136: 4, 221: 4, 316: 6,
            328: 4, 568: 6}


def test_narrow_class_numbers():
    for D, h in NARROW_H.items():
        cg = class_group(D)
        assert cg.h == h, (D, cg)
        for (a, b, c) in cg.forms:
            assert b * b - 4 * a * c == D
            assert 0 < b < math.sqrt(D) and abs(math.sqrt(D) - 2 * abs(a)) < b
    # h+ = h, doubled when no unit has norm -1; h from L(1, chi_D)
    for D in range(5, 400):
        if is_fundamental_discriminant(D):
            want = analytic_class_number(D) * (2 if fundamental_unit(D).norm == 1 else 1)
            assert class_group(D).h == want, D


# ---------------------------------------------------------------------------
# units

KNOWN_UNITS = {5: (1, 1), 8: (2, 1), 12: (4, 1), 13: (3, 1), 17: (8, 2),
               21: (5, 1), 24: (10, 2), 28: (16, 3), 29: (5, 1), 44: (20, 3)}


def test_fundamental_unit_halves():
    for D, (hx, hy) in KNOWN_UNITS.items():
        u = fundamental_unit(D)
        assert (u.hx, u.hy) == (hx, hy), (D, u)
        assert u.norm in (1, -1)
        # the unit really is a unit: N = (hx^2 - D hy^2)/4
        assert (u.hx * u.hx - D * u.hy * u.hy) // 4 == u.norm
        assert u.regulator == pytest.approx(math.log((hx + hy * math.sqrt(D)) / 2))


def test_fundamental_unit_minimality_exhaustive():
    # no unit strictly between 1 and the claimed fundamental one
    for D in (5, 8, 12, 13, 17, 21):
        u = fundamental_unit(D)
        val = (u.hx + u.hy * math.sqrt(D)) / 2
        for hx in range(-60, 61):
            for hy in range(-60, 61):
                if (hx - hy * D) % 2:
                    continue
                if abs(hx * hx - D * hy * hy) != 4:
                    continue
                emb = (hx + hy * math.sqrt(D)) / 2
                assert not (1.0 + 1e-9 < emb < val - 1e-9), (D, hx, hy)


def test_norm_one_unit():
    for D in (5, 8, 12, 13, 17):
        u = norm_one_unit(D)
        assert u.norm == 1
        assert (u.hx + u.hy * math.sqrt(D)) / 2 > 1
    # D=5: fundamental unit has norm -1, so the norm-one generator is its square
    assert (norm_one_unit(5).hx, norm_one_unit(5).hy) == (3, 1)
    # D=12: fundamental unit already has norm 1
    assert (norm_one_unit(12).hx, norm_one_unit(12).hy) == (4, 1)


# ---------------------------------------------------------------------------
# residue-ring norm counts (the models' mod p^k kernel)


def test_residue_ring_norm_count_frozen():
    k = QuadField.from_d(-1)
    model = norm_form_model(k)
    assert count_points_mod(model, 3, 1) == 4
    assert count_points_mod(model, 5, 1) == 4
    assert count_points_mod(model, 5, 2) == 20


def test_residue_ring_norm_count_brute():
    # direct double loop oracle at small moduli, both models
    for d, p, k in ((-1, 3, 2), (5, 3, 2), (-7, 3, 1), (-3, 2, 3), (5, 2, 3)):
        field = QuadField.from_d(d)
        q = p**k
        norms = [norm(field, a, b) for a in range(q) for b in range(q)]
        want_one = sum(1 for n in norms if n % q == 1 % q)
        want_unit = sum(1 for n in norms if n % p != 0)
        assert count_points_mod(norm_form_model(field), p, k) == want_one
        assert count_points_mod(unit_group_model(field), p, k) == want_unit


def test_residue_count_unit_condition():
    # the unit-group model counts the units of O/p^k: (p-1)^2 p^(2(k-1)) at split p
    k = QuadField.from_d(-1)
    assert count_points_mod(unit_group_model(k), 5, 2) == 16 * 5**2
    with pytest.raises(BudgetExceededError):
        count_points_mod(norm_form_model(k), 97, 4, budget=10**6)


def test_residue_count_group_size():
    # #(O/p)^x for split p: (Z/5)^x x (Z/5)^x
    k = QuadField.from_d(-1)
    p = 5
    assert count_points_mod(unit_group_model(k), p, 1) == (p - 1) ** 2


# ---------------------------------------------------------------------------
# biquadratic fields


def test_biquad_construction():
    b = BiquadField.from_pair(13, 17)
    assert b.subfield_discs == (13, 17, 221)
    assert b.ramified_primes() == (13, 17)
    b2 = BiquadField.from_pair(2, 3)
    assert b2.subfield_discs == (8, 12, 24)
    assert b2.ramified_primes() == (2, 3)
    with pytest.raises(ValueError):
        BiquadField.from_pair(2, 2)
    with pytest.raises(ValueError):
        BiquadField.from_pair(4, 3)


def test_biquad_chi():
    # the K4 character table: chi_3 = chi_1 * chi_2 on every element, and
    # the Kronecker symbols of D1, D2 and D3 multiply at unramified p
    for c1, c2, c3 in _CHARACTERS[3]:
        assert c3 == c1 * c2
    for b in (BiquadField.from_pair(13, 17), BiquadField.from_pair(-1, 2),
              BiquadField.from_pair(2, 3), BiquadField.from_pair(-3, -7)):
        D1, D2, D3 = b.subfield_discs
        for p in primes_up_to(200):
            if (D1 * D2 * D3) % p:
                assert kronecker_symbol(D3, p) == kronecker_symbol(D1, p) * kronecker_symbol(D2, p)
