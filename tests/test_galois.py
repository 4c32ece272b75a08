"""Galois groups, character/cocharacter lattices, Frobenius data, Euler
factors vs point counts, decomposition subgroups."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tamagawa import galois
from tamagawa.errors import UnsupportedTorusError
from tamagawa.exactcore import IntMatrix, charpoly, eval_poly, primes_up_to
from tamagawa.galois import (
    FAMILIES,
    INF,
    FiniteGroup,
    build_torus,
    decomposition_subgroup,
    euler_factor_at_one,
    frobenius_element,
    good_euler_terms,
    is_good_prime,
    point_count_Fp,
    q_rank,
    trivial_lattice,
)
from tamagawa.models import count_points_mod
from tamagawa.quadfield import BiquadField, QuadField

DS = (-1, -2, -3, -5, -6, -7, -10, -11, -13, -14, -15, -17, -19, -21, -23,
      2, 3, 5, 6, 7, 10, 11, 13, 15)
BIQUADS = ((-1, 2), (-1, 3), (2, 3), (-3, 5), (5, -3), (13, 17), (-1, -2), (-7, 5))


def all_tori():
    fields = [QuadField.from_d(d) for d in DS]
    fields += [BiquadField.from_pair(a, b) for a, b in BIQUADS]
    return [build_torus(family, k) for k in fields for family in FAMILIES]


# ---------------------------------------------------------------------------
# groups


def test_cyclic_group():
    c4 = FiniteGroup.cyclic(4)
    assert c4.order == 4
    assert c4.mul(1, 3) == 0
    assert c4.inv(1) == 3
    assert c4.element_order(1) == 4
    assert c4.element_order(2) == 2
    assert c4.is_cyclic_subset((0, 2))
    assert c4.subgroup_closure((2,)) == (0, 2)


def test_klein_four():
    k4 = FiniteGroup.klein_four()
    assert k4.order == 4
    for g in range(4):
        assert k4.mul(g, g) == 0  # every element is an involution
    assert k4.mul(1, 2) == 3
    assert not k4.is_cyclic_subset((0, 1, 2, 3))
    assert k4.is_cyclic_subset((0, 2))


def test_group_validation():
    with pytest.raises(ValueError):
        FiniteGroup(("e", "g"), ((0, 1), (1, 1)))  # no inverse row


# ---------------------------------------------------------------------------
# lattices


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(DS), st.sampled_from(sorted(FAMILIES)), st.data())
def test_lattice_action_is_homomorphism(d, family, data):
    t = build_torus(family, QuadField.from_d(d))
    g = data.draw(st.integers(0, t.group.order - 1))
    h = data.draw(st.integers(0, t.group.order - 1))
    ml, mr = t.xstar.mats[g], t.xstar.mats[h]
    assert (ml * mr).entries == t.xstar.mats[t.group.mul(g, h)].entries


def test_lattice_dual_is_involutive():
    for family in FAMILIES:
        t = build_torus(family, QuadField.from_d(-5))
        dd = t.xstar.dual().dual()
        for a, b in zip(dd.mats, t.xstar.mats):
            assert a.entries == b.entries
        # contragredient pairing: dual matrix of g is the transpose at g^{-1}
        for g in range(t.group.order):
            gi = t.group.inv(g)
            assert t.xcochar.mats[g].entries == t.xstar.mats[gi].transpose().entries


def test_family_ranks_and_q_rank():
    for d in (-1, 5):
        k = QuadField.from_d(d)
        res = build_torus("res-scalars", k)
        n1 = build_torus("norm-one", k)
        qt = build_torus("quotient-by-gm", k)
        assert (res.dim, n1.dim, qt.dim) == (2, 1, 1)
        assert (q_rank(res), q_rank(n1), q_rank(qt)) == (1, 0, 0)
    bq = BiquadField.from_pair(13, 17)
    assert build_torus("norm-one", bq).dim == 3
    assert q_rank(build_torus("norm-one", bq)) == 0
    assert q_rank(build_torus("res-scalars", bq)) == 1
    assert q_rank(build_torus("quotient-by-gm", bq)) == 0


def test_norm_one_is_sign_rep_for_quadratic():
    t = build_torus("norm-one", QuadField.from_d(-1))
    assert t.xstar.mats[1].entries == (-1,)
    tq = build_torus("quotient-by-gm", QuadField.from_d(-1))
    assert tq.xstar.mats[1].entries == (-1,)


# ---------------------------------------------------------------------------
# Frobenius and Euler factors


def test_frobenius_quadratic():
    t = build_torus("norm-one", QuadField.from_d(-1))  # D = -4
    assert frobenius_element(t, 5) == 0  # split
    assert frobenius_element(t, 3) == 1  # inert
    with pytest.raises(ValueError):
        frobenius_element(t, 2)  # ramified


def test_frobenius_biquadratic():
    t = build_torus("norm-one", BiquadField.from_pair(13, 17))
    # convention: (chi_1, chi_2) = (+,+) -> e, (+,-) -> s1, (-,+) -> s2,
    # (-,-) -> s3, where s_i acts trivially on K_i
    from tamagawa.exactcore import kronecker_symbol

    for p in (3, 5, 7, 11, 19, 23, 29):
        c1, c2 = kronecker_symbol(13, p), kronecker_symbol(17, p)
        want = {(1, 1): 0, (1, -1): 1, (-1, 1): 2, (-1, -1): 3}[(c1, c2)]
        assert frobenius_element(t, p) == want


def test_frozen_euler_factors():
    res = build_torus("res-scalars", QuadField.from_d(-1))
    assert euler_factor_at_one(res, 5) == Fraction(16, 25)
    assert point_count_Fp(res, 5) == 16
    assert euler_factor_at_one(res, 3) == Fraction(8, 9)
    assert point_count_Fp(res, 3) == 8
    n1 = build_torus("norm-one", QuadField.from_d(-1))
    assert euler_factor_at_one(n1, 3) == Fraction(4, 3)
    assert point_count_Fp(n1, 3) == 4
    assert euler_factor_at_one(n1, 5) == Fraction(4, 5)
    assert point_count_Fp(n1, 5) == 4


def test_euler_factor_vs_point_count_all_families():
    # p^dim * E_p(1) == |T(F_p)| : charpoly route vs determinant route
    for d in DS:
        k = QuadField.from_d(d)
        for family in FAMILIES:
            t = build_torus(family, k)
            for p in primes_up_to(97):
                if not is_good_prime(t, p):
                    continue
                assert euler_factor_at_one(t, p) * p**t.dim == point_count_Fp(t, p)


def test_point_count_vs_brute_force():
    # the determinant count against honest affine enumeration over F_p
    for d in (-1, -3, -7, 5, 13):
        k = QuadField.from_d(d)
        for family in FAMILIES:
            t = build_torus(family, k)
            for p in (3, 5, 7, 11, 13):
                if not is_good_prime(t, p):
                    continue
                assert point_count_Fp(t, p) == count_points_mod(t.model, p, 1)


def test_interpolated_det_poly_equals_charpoly():
    # det(x*I - B) from Bareiss values at 0..d has integer coefficients
    # (the interpolation raises otherwise) and is the characteristic polynomial
    for t in all_tori():
        for b in t.xcochar.mats:
            assert galois._interpolated_det_poly(b) == charpoly(b)


def test_interpolation_rejects_non_integer_coefficients(monkeypatch):
    # values 0, 0, 1 at x = 0, 1, 2 interpolate to x(x - 1)/2
    monkeypatch.setattr(IntMatrix, "det", lambda self: (0, 0, 1)[self.get(0, 0)])
    with pytest.raises(ArithmeticError):
        galois._interpolated_det_poly(IntMatrix.zeros(2, 2))


# fields whose Frobenius period, |D| or lcm(|D1|, |D2|), exceeds 2000, so
# that below 2000 each residue class holds at most one prime
LONG_PERIOD_FIELDS = (QuadField.from_d(-9973), QuadField.from_d(9967),
                      BiquadField.from_pair(13, -2003), BiquadField.from_pair(-1, 1999))


def test_euler_terms_against_per_prime_bareiss():
    # the old per-prime determinant is the oracle for the interpolated one,
    # frobenius_element for the class looked up by residue, and every good
    # p <= 2000 (and only those) is swept
    long_period = [build_torus(family, k) for k in LONG_PERIOD_FIELDS for family in FAMILIES]
    for t in all_tori() + long_period:
        good = [p for p in primes_up_to(2000) if is_good_prime(t, p)]
        terms = list(good_euler_terms(t, primes_up_to(2000)))
        assert [p for p, _, _ in terms] == good
        for p, scaled, count in terms:
            b = t.xcochar.mats[t.group.inv(frobenius_element(t, p))]
            assert count == (IntMatrix.identity(t.dim).scale(p) - b).det()
            assert scaled == eval_poly(charpoly(b), p) == count


def test_good_primes():
    t = build_torus("norm-one", QuadField.from_d(-1))
    assert not is_good_prime(t, 2)
    assert is_good_prime(t, 3)
    assert not is_good_prime(t, 4)
    t23 = build_torus("norm-one", QuadField.from_d(-23))
    assert not is_good_prime(t23, 23)
    assert not is_good_prime(t23, 2)  # 2 divides 2*disc always


def test_euler_factor_positive_and_finite_order():
    t = build_torus("res-scalars", QuadField.from_d(-7))
    for p in (3, 5, 11):
        frob = t.xcochar.mats[frobenius_element(t, p)]
        assert abs(frob.det()) == 1  # finite-order action
        assert euler_factor_at_one(t, p) > 0
        cp = charpoly(frob)
        assert len(cp) == t.dim + 1 and cp[-1] == 1
        with pytest.raises(ValueError):
            euler_factor_at_one(t, 7)  # 7 ramifies


# ---------------------------------------------------------------------------
# decomposition subgroups


def test_decomposition_quadratic():
    t = build_torus("norm-one", QuadField.from_d(-1))
    assert decomposition_subgroup(t, 5) == (0,)
    assert decomposition_subgroup(t, 3) == (0, 1)
    assert decomposition_subgroup(t, 2) == (0, 1)  # ramified
    assert decomposition_subgroup(t, INF) == (0, 1)  # imaginary
    tr = build_torus("norm-one", QuadField.from_d(5))
    assert decomposition_subgroup(tr, INF) == (0,)  # real


def test_decomposition_biquadratic():
    t = build_torus("norm-one", BiquadField.from_pair(13, 17))
    assert decomposition_subgroup(t, INF) == (0,)  # totally real
    assert decomposition_subgroup(t, 2) == (0, 2)
    assert decomposition_subgroup(t, 13) == (0, 2)  # K_2 = Q(sqrt 17) inertia-free
    assert decomposition_subgroup(t, 17) == (0, 1)
    t23 = build_torus("norm-one", BiquadField.from_pair(2, 3))
    assert decomposition_subgroup(t23, 2) == (0, 1, 2, 3)  # no unramified subfield
    tneg = build_torus("norm-one", BiquadField.from_pair(-1, 2))
    # complex conjugation fixes the one real subfield Q(sqrt 2) = K_2
    assert decomposition_subgroup(tneg, INF) == (0, 2)


def test_build_torus_rejections():
    with pytest.raises(UnsupportedTorusError):
        build_torus("norm-one", "not-a-field")
    with pytest.raises(UnsupportedTorusError):
        build_torus("bogus-family", QuadField.from_d(-1))


def test_trivial_lattice():
    k4 = FiniteGroup.klein_four()
    tl = trivial_lattice(k4, 2)
    for m in tl.mats:
        assert m.entries == IntMatrix.identity(2).entries
