"""Galois groups, character lattices and their duals, Frobenius data, Euler
factors vs point counts, decomposition subgroups."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tamagawa import galois
from tamagawa.cohomology import cohomology, q_rank
from tamagawa.errors import UnsupportedTorusError
from tamagawa.exactcore import (
    IntMatrix,
    charpoly,
    eval_poly,
    kronecker_symbol,
    primes_up_to,
    squarefree_part,
)
from tamagawa.galois import (
    FAMILIES,
    INF,
    FiniteGroup,
    GaloisLattice,
    build_torus,
    counting_budget,
    decomposition_subgroup,
    euler_factor_at_one,
    good_euler_terms,
    is_good_prime,
    parse_torus,
    point_count_Fp,
    trivial_lattice,
)
from tamagawa.models import count_points_mod
from tamagawa.quadfield import BiquadField, QuadField
import oracles
from oracles import (
    decomposition_subgroup_by_cases,
    det,
    element_order,
    frobenius_element,
    frobenius_index_by_cases,
    interpolated_det_poly,
    is_cyclic_subset,
    matmul,
    matrix_difference,
    mul,
    norm_one_action_by_conjugation,
    scalar,
    subgroup_closure,
    zeros,
)

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
    assert mul(c4, 1, 3) == 0
    assert c4.inv(1) == 3
    assert element_order(c4, 1) == 4
    assert element_order(c4, 2) == 2
    assert is_cyclic_subset(c4, (0, 2))
    assert subgroup_closure(c4, (2,)) == (0, 2)


def test_klein_four():
    k4 = FiniteGroup.klein_four()
    assert k4.order == 4
    for g in range(4):
        assert mul(k4, g, g) == 0  # every element is an involution
    assert mul(k4, 1, 2) == 3
    assert not is_cyclic_subset(k4, (0, 1, 2, 3))
    assert is_cyclic_subset(k4, (0, 2))


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
    assert matmul(ml, mr).entries == t.xstar.mats[mul(t.group, g, h)].entries


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.sampled_from((2, 4)), st.integers(1, 3).flatmap(lambda n: _matrix(n, n, 2)))
@example(2, IntMatrix(1, 1, (2,)))
@example(2, IntMatrix(2, 2, (1, 1, 0, 1)))  # determinant 1, but not of order 2
@example(2, IntMatrix(1, 1, (-1,)))
@example(2, IntMatrix(2, 2, (0, 1, 1, 0)))
def test_group_law_implies_unimodular_action(order, a):
    # the cyclic group of the given order acting by the powers of a: a
    # lattice builds if and only if a^order = I, and every action it accepts
    # is unimodular, with no determinant check of its own
    ident = IntMatrix.identity(a.rows)
    powers = [ident]
    for _ in range(order - 1):
        powers.append(matmul(powers[-1], a))
    try:
        GaloisLattice(FiniteGroup.cyclic(order), a.rows, tuple(powers))
    except ValueError:
        builds = False
    else:
        builds = True
    assert builds == (matmul(powers[-1], a) == ident)
    if builds:
        assert abs(det(a)) == 1


def test_lattice_dual_is_involutive():
    for family in FAMILIES:
        t = build_torus(family, QuadField.from_d(-5))
        dd = t.xstar.dual().dual()
        for a, b in zip(dd.mats, t.xstar.mats):
            assert a.entries == b.entries
        # contragredient pairing: dual matrix of g is the transpose at g^{-1}
        for g in range(t.group.order):
            gi = t.group.inv(g)
            assert t.xstar.dual().mats[g].entries == t.xstar.mats[gi].transpose().entries


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


DUALITY_FIELDS = [QuadField.from_d(-23), QuadField.from_d(5), BiquadField.from_pair(13, 17),
                  BiquadField.from_pair(-1, 2), BiquadField.from_pair(-3, 5)]
DUALITY_IDS = ["-23", "5", "13,17", "-1,2", "-3,5"]


@pytest.mark.parametrize("field", DUALITY_FIELDS, ids=DUALITY_IDS)
def test_norm_one_and_quotient_are_dual_tori(field):
    # Z[G]/Z*N is the dual of the augmentation kernel, and Z[G] its own dual
    n1, qt, res = (build_torus(f, field) for f in ("norm-one", "quotient-by-gm", "res-scalars"))
    assert n1.xstar.dual() == qt.xstar
    assert n1.xstar == qt.xstar.dual()
    assert res.xstar.dual() == res.xstar


@pytest.mark.parametrize("field", DUALITY_FIELDS, ids=DUALITY_IDS)
def test_norm_one_lattice_matches_the_conjugation_reference(field):
    t = build_torus("norm-one", field)
    ref = GaloisLattice(t.group, t.dim, norm_one_action_by_conjugation(t.group))
    for n in range(4):
        assert cohomology(t.xstar, n).describe() == cohomology(ref, n).describe()
    for g in range(t.group.order):
        assert charpoly(t.xstar.mats[g]) == charpoly(ref.mats[g])


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
    # p^dim * E_p(1) == |T(F_p)|: both read the class's one polynomial
    for d in DS:
        k = QuadField.from_d(d)
        for family in FAMILIES:
            t = build_torus(family, k)
            for p in primes_up_to(97):
                if not is_good_prime(t, p):
                    continue
                assert euler_factor_at_one(t, p) * p**t.dim == point_count_Fp(t, p)


def test_point_count_vs_brute_force():
    # the class's polynomial against honest affine enumeration over F_p
    for d in (-1, -3, -7, 5, 13):
        k = QuadField.from_d(d)
        for family in FAMILIES:
            t = build_torus(family, k)
            for p in (3, 5, 7, 11, 13):
                if not is_good_prime(t, p):
                    continue
                assert point_count_Fp(t, p) == count_points_mod(t.model, p, 1)


def test_interpolated_det_poly_equals_charpoly():
    # the oracle det(x*I - B) from Bareiss values at 0..d has integer
    # coefficients (the interpolation raises otherwise) and is the
    # characteristic polynomial
    for t in all_tori():
        for b in t.xstar.dual().mats:
            assert interpolated_det_poly(b) == charpoly(b)


def _matrix(rows, cols, bound=30):
    return st.lists(st.integers(-bound, bound), min_size=rows * cols, max_size=rows * cols).map(
        lambda flat: IntMatrix(rows, cols, tuple(flat)))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5), st.data())
def test_interpolated_det_poly_matches_charpoly_on_integer_matrices(n, k, data):
    # a product through an inner dimension k < n is singular: its constant
    # term, +-det, is 0
    if k < n:
        m = matmul(data.draw(_matrix(n, k)), data.draw(_matrix(k, n)))
    else:
        m = data.draw(_matrix(n, n))
    cp = charpoly(m)
    assert interpolated_det_poly(m) == cp
    assert cp[0] == (-1) ** n * det(m)
    if k < n:
        assert cp[0] == 0


def test_interpolation_rejects_non_integer_coefficients(monkeypatch):
    # values 0, 0, 1 at x = 0, 1, 2 interpolate to x(x - 1)/2
    monkeypatch.setattr(oracles, "det", lambda m: (0, 0, 1)[m.entries[0]])
    with pytest.raises(ArithmeticError):
        interpolated_det_poly(zeros(2, 2))


# fields whose Frobenius period, |D| or lcm(|D1|, |D2|), exceeds 2000, so
# that below 2000 each residue class holds at most one prime
LONG_PERIOD_FIELDS = (QuadField.from_d(-9973), QuadField.from_d(9967),
                      BiquadField.from_pair(13, -2003), BiquadField.from_pair(-1, 1999))


def test_euler_terms_against_per_prime_bareiss():
    # the per-prime determinant is the oracle for the charpoly, and for the
    # counts where the model's are read; frobenius_element for the class
    # looked up by residue; every good p <= 2000 (and only those) is swept
    long_period = [build_torus(family, k) for k in LONG_PERIOD_FIELDS for family in FAMILIES]
    for t in all_tori() + long_period:
        good = [p for p in primes_up_to(2000) if is_good_prime(t, p)]
        terms = list(good_euler_terms(t, primes_up_to(2000)))
        assert [p for p, _, _ in terms] == good
        for p, scaled, count in terms:
            b = t.xstar.dual().mats[t.group.inv(frobenius_element(t, p))]
            assert count == det(matrix_difference(scalar(t.dim, p), b))
            assert scaled == eval_poly(charpoly(b), p) == count


def test_good_primes():
    t = build_torus("norm-one", QuadField.from_d(-1))
    assert not is_good_prime(t, 2)
    assert is_good_prime(t, 3)
    assert not is_good_prime(t, 4)
    t23 = build_torus("norm-one", QuadField.from_d(-23))
    assert not is_good_prime(t23, 23)
    assert not is_good_prime(t23, 2)  # 2 divides 2*disc always


@pytest.mark.parametrize("field", [QuadField.from_d(-7), BiquadField.from_pair(5, 26)])
@pytest.mark.parametrize("family", FAMILIES)
def test_class_polynomials_are_prime_to_every_good_p(family, field):
    # euler_rows writes a PASS row's p^d * E_p(1) over p^d unreduced: every
    # class g has finite order, so charpoly(g)(0) = det(-g) = +-1, and its
    # value at p is congruent to +-1 mod p
    t = build_torus(family, field)
    polys = galois._frobenius_polynomials(t)
    assert len(polys) == t.group.order
    for poly in polys:
        assert poly[0] in (1, -1)
    good = [p for p in primes_up_to(997) if is_good_prime(t, p)]
    assert len(good) > 150
    for p in good:
        for poly in polys:
            assert gcd(eval_poly(poly, p), p) == 1


def test_euler_factor_positive_and_finite_order():
    t = build_torus("res-scalars", QuadField.from_d(-7))
    for p in (3, 5, 11):
        frob = t.xstar.dual().mats[frobenius_element(t, p)]
        assert abs(det(frob)) == 1  # finite-order action
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


def test_character_rules_match_the_case_analysis():
    # the two rules on the character table against the case analysis they
    # replaced, on every quadratic field with squarefree |d| <= 30, every
    # biquadratic pair of them, and the places INF and p <= 100
    ds = [d for d in range(-30, 31) if d not in (0, 1) and squarefree_part(d) == d]
    fields = [QuadField.from_d(d) for d in ds]
    fields += [BiquadField.from_pair(a, b) for i, a in enumerate(ds) for b in ds[i + 1:]]
    places = (INF, *primes_up_to(100))
    assert (len(fields), len(fields) * len(places)) == (37 + 666, 18278)
    for k in fields:
        t = build_torus("norm-one", k)
        for v in places:
            assert decomposition_subgroup(t, v) == decomposition_subgroup_by_cases(t, v), (k, v)
            if v != INF and t.splitting_disc() % v:
                assert galois._frobenius_index(k, v) == frobenius_index_by_cases(k, v), (k, v)


def test_a_subfield_character_is_read_from_the_residue_of_p():
    # for a fundamental discriminant D, n -> (D|n) is a character mod |D|,
    # so _character(D, p mod |D|) is (D|p) at every prime p not dividing D
    discs = {QuadField.from_d(d).D for d in range(-60, 61)
             if d not in (0, 1) and squarefree_part(d) == d}
    assert len(discs) == 73
    for D in discs:
        for p in primes_up_to(1500):
            if D % p:
                assert galois._character(D, p % abs(D)) == kronecker_symbol(D, p), (D, p)


@pytest.mark.parametrize("field", [QuadField.from_d(-5), BiquadField.from_pair(13, 17)])
def test_build_torus_validates_each_lattice_once(field, monkeypatch):
    # Z[G] for res and I_G for quot and norm-one: the dual that norm-one
    # takes of I_G is a homomorphism by construction and is not checked again
    calls = []
    real = GaloisLattice.__new__

    def counting(cls, *args):
        calls.append(cls)
        return real(cls, *args)

    monkeypatch.setattr(GaloisLattice, "__new__", staticmethod(counting))
    built = {}
    for family in FAMILIES:
        calls.clear()
        built[family] = build_torus.__wrapped__(family, field)
        assert len(calls) == 1
    monkeypatch.undo()
    assert built["norm-one"].xstar == built["quotient-by-gm"].xstar.dual()


@pytest.mark.parametrize("field", [QuadField.from_d(-5), BiquadField.from_pair(13, 17)])
@pytest.mark.parametrize("family", FAMILIES)
def test_the_unchecked_dual_passes_the_checking_constructor(family, field):
    # dual() skips the group-law check, which its inverse-transpose passes
    # by construction: the checking constructor accepts every dual that
    # build_torus makes or can take, over C2 and V4
    for lattice in (build_torus(family, field).xstar.dual(),
                    build_torus(family, field).xstar.dual().dual()):
        assert GaloisLattice(lattice.group, lattice.rank, lattice.mats) == lattice


def test_euler_setup_builds_no_matrix(monkeypatch):
    # charpoly works on lists of rows, and the setup is one charpoly per
    # Galois element
    t = build_torus("res-scalars", BiquadField.from_pair(5, -3))
    calls = []
    real = IntMatrix.__new__

    def counting(cls, *args):
        calls.append(cls)
        return real(cls, *args)

    monkeypatch.setattr(IntMatrix, "__new__", staticmethod(counting))
    polys = galois._frobenius_polynomials.__wrapped__(t)
    assert calls == []
    monkeypatch.undo()
    assert polys == galois._frobenius_polynomials(t)
    assert polys == tuple(charpoly(m) for m in t.xstar.mats)
    # charpoly(g | X^*) = charpoly(g^{-1} | X_*): in the dual basis g^{-1}
    # acts on X_* by the transpose of g on X^*
    for t in all_tori():
        xcochar = t.xstar.dual()
        assert galois._frobenius_polynomials(t) == tuple(
            charpoly(xcochar.mats[t.group.inv(g)]) for g in range(t.group.order)), t.label


def _counted_primes(monkeypatch):
    """The p of every count good_euler_terms reads, with its budget."""
    calls = []
    real = galois.cached_point_count

    def counting(model, p, k, budget):
        assert k == 1
        calls.append((p, budget))
        return real(model, p, k, budget)

    monkeypatch.setattr(galois, "cached_point_count", counting)
    return calls


@pytest.mark.parametrize("family,field,budget,counted", [
    # split p = 1 mod 4, inert p = 3 mod 4; d + 1 = 2 of each
    ("norm-one", QuadField.from_d(-1), 10 ** 8, [3, 5, 7, 13]),
    # split where (-23|p) = 1: 3, 13, 29; inert: 5, 7, 11; d + 1 = 3 of each
    ("res-scalars", QuadField.from_d(-23), 10 ** 8, [3, 5, 7, 11, 13, 29]),
    # 29^3 exceeds the budget of the unit-group model's three variables
    ("res-scalars", QuadField.from_d(-23), 10 ** 4, [3, 5, 7, 11, 13]),
    # no affine model, nothing to count
    ("norm-one", BiquadField.from_pair(5, -3), 10 ** 8, []),
])
def test_euler_terms_count_the_first_primes_of_each_class(monkeypatch, family, field, budget,
                                                          counted):
    t = build_torus(family, field)
    calls = _counted_primes(monkeypatch)
    terms = list(good_euler_terms(t, primes_up_to(200), budget))
    assert calls == [(p, budget) for p in counted]
    assert len(terms) > 40
    for p, scaled, count in terms:
        assert scaled == count == eval_poly(charpoly(
            t.xstar.dual().mats[t.group.inv(frobenius_element(t, p))]), p)


def test_euler_terms_yield_a_count_that_misses_its_polynomial(monkeypatch):
    # a count of p + 99 points, which no class's polynomial gives: the third
    # value is the count at the counted primes, and only there
    monkeypatch.setattr(galois, "cached_point_count", lambda model, p, k, budget: p + 99)
    t = build_torus("norm-one", QuadField.from_d(-1))
    terms = list(good_euler_terms(t, primes_up_to(30)))
    assert [(p, count) for p, scaled, count in terms if scaled != count] == [
        (p, p + 99) for p in (3, 5, 7, 13)]
    assert [p for p, _, _ in terms] == [3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_euler_terms_name_the_rows_a_short_class_leaves_uncounted():
    # res:-163: the inert class is counted at 3, 5, 7; the split class
    # starts at 41, and 41^3 exceeds a budget of 10^4, so its rows up to 97
    # rest on the polynomial alone; 47^3 counts 41, 43 and 47
    t = build_torus("res-scalars", QuadField.from_d(-163))
    short = []
    terms = list(good_euler_terms(t, primes_up_to(97), 10 ** 4, short))
    assert terms == list(good_euler_terms(t, primes_up_to(97), 10 ** 4))
    assert [(p, lacking) for p, _, lacking in short] == [
        (p, 3) for p in (41, 43, 47, 53, 61, 71, 83, 97)]
    assert counting_budget(t, short) == 47 ** 3
    # a budget one below leaves 47 and the split primes after it
    short = []
    list(good_euler_terms(t, primes_up_to(97), 47 ** 3 - 1, short))
    assert [(p, lacking) for p, _, lacking in short] == [
        (p, 1) for p in (47, 53, 61, 71, 83, 97)]
    assert counting_budget(t, short) == 47 ** 3
    short = []
    list(good_euler_terms(t, primes_up_to(97), 47 ** 3, short))
    assert short == []
    # a class with fewer primes in the sweep than it lacks needs its last
    list(good_euler_terms(t, primes_up_to(43), 10 ** 4, short))
    assert counting_budget(t, short) == 43 ** 3


def test_euler_terms_leave_no_short_class_at_the_default_budget():
    # the unit-group model's 3 variables put the default budget's last
    # counted prime at 463, lowest of the three families
    ds = [d for d in range(-200, 201) if d not in (0, 1) and squarefree_part(d) == d]
    for d in ds:
        short = []
        t = build_torus("res-scalars", QuadField.from_d(d))
        for _ in good_euler_terms(t, primes_up_to(1000), short=short):
            pass
        assert short == [], t.label


def test_build_torus_rejections():
    with pytest.raises(UnsupportedTorusError):
        build_torus("norm-one", "not-a-field")
    with pytest.raises(UnsupportedTorusError):
        build_torus("bogus-family", QuadField.from_d(-1))


# d of both signs, with D = d = 1 mod 4 and D = 4d = 0 mod 4, and a
# biquadratic pair of each sign pattern
LABEL_FIELDS = (*map(QuadField.from_d, (-1, -3, -5, -7, 2, 5, 13, 21)),
                BiquadField.from_pair(13, 17), BiquadField.from_pair(-1, 5),
                BiquadField.from_pair(-3, -7))


@pytest.mark.parametrize("family", FAMILIES)
def test_parse_torus_reads_the_label_build_torus_writes(family):
    for field in LABEL_FIELDS:
        t = build_torus(family, field)
        assert parse_torus(t.label) == t
        # a + before a positive d reads as the label without it
        tag, _, ds = t.label.partition(":")
        plus = ",".join(d if d.startswith("-") else f"+{d}" for d in ds.split(","))
        assert parse_torus(f"{tag}:{plus}").label == t.label


def test_trivial_lattice():
    k4 = FiniteGroup.klein_four()
    tl = trivial_lattice(k4, 2)
    for m in tl.mats:
        assert m.entries == IntMatrix.identity(2).entries
