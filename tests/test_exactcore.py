"""Exact-arithmetic substrate: primes, matrices, normal forms, charpoly."""

import math
import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tamagawa import exactcore
from tamagawa.exactcore import (
    AbelianGroupInvariants,
    IntMatrix,
    charpoly,
    eval_poly,
    factorize,
    is_prime,
    kronecker_symbol,
    primes_up_to,
    row_lattice_index,
    smith_normal_form,
    squarefree_part,
)
from oracles import (
    det,
    det_by_cofactors,
    entry,
    factorize_by_trial_division,
    interpolated_det_poly,
    invariants_from_relations,
    kernel_basis,
    matmul,
    matmul_naive,
    matrix_difference,
    matrix_sum,
    rows,
    scalar,
    snf_with_transforms,
    vstack,
    zeros,
)

# ---------------------------------------------------------------------------
# scalars


def test_primes_small():
    assert primes_up_to(30) == (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
    assert primes_up_to(1) == ()
    assert primes_up_to(2) == (2,)
    big = primes_up_to(10**6)
    assert len(big) == 78498 and big[-1] == 999983
    assert is_prime(2) and is_prime(97) and is_prime(2**31 - 1)
    assert not is_prime(1) and not is_prime(0) and not is_prime(-7)
    assert not is_prime(561)  # Carmichael


@pytest.mark.parametrize("n", [
    2047,  # strong pseudoprime to base 2
    1373653,  # to bases 2, 3
    25326001,  # to bases 2, 3, 5
    3215031751,  # to bases 2, 3, 5, 7
    3825123056546413051,  # to bases 2..23
    318665857834031151167461,  # psi_12: to bases 2..37
])
def test_is_prime_rejects_strong_pseudoprimes(n):
    assert not is_prime(n)


def test_primes_up_to_matches_trial_division_at_every_bound():
    # the odd-only sieve at every n <= 3000: even and odd n, squares of
    # primes and their neighbours; the sweep bypasses the cache
    primes = [p for p in range(2, 3001) if all(p % q for q in range(2, math.isqrt(p) + 1))]
    for n in range(-2, 3001):
        assert primes_up_to.__wrapped__(n) == tuple(p for p in primes if p <= n), n
    assert len(primes_up_to(10**5)) == 9592
    assert len(primes_up_to(10**6)) == 78498


def test_is_prime_matches_sieve():
    # below 2e5, and across the switch from bases (2, 3) to (2, 3, 5, 7)
    hi = 1373653 + 10**5
    sieve = set(primes_up_to(hi))
    for n in (*range(2 * 10**5), *range(1373653 - 10**5, hi)):
        assert is_prime(n) == (n in sieve), n


def test_valuation_and_factorize():
    assert factorize(2 * 2 * 3 * 49) == {2: 2, 3: 1, 7: 2}
    assert factorize(1) == {}
    assert squarefree_part(-12) == -3
    assert squarefree_part(45) == 5


@given(st.integers(1, 10**12))
def test_factorize_multiplies_back_to_primes(n):
    got = factorize(n)
    assert all(is_prime(p) for p in got)
    prod = 1
    for p, e in got.items():
        prod *= p**e
    assert prod == n


def test_factorize_tests_each_cofactor_for_primality_once(monkeypatch):
    # the cofactor changes only when a trial divisor divides it; testing it
    # at every divisor instead cost 166k Miller-Rabin runs here
    calls = []
    prime = exactcore.is_prime

    def counting(n):
        calls.append(n)
        return prime(n)

    monkeypatch.setattr(exactcore, "is_prime", counting)
    assert factorize(1000003 * 1000033) == {1000003: 1, 1000033: 1}
    assert len(calls) <= 2
    calls.clear()
    assert factorize(2 * 3 * 5**3 * 1000003) == {2: 1, 3: 1, 5: 3, 1000003: 1}
    assert calls == [5**3 * 1000003, 1000003]


@pytest.mark.parametrize("n", [
    1031**2, 1031**3, 10007**2, 10007**3, 1000003**2, 1000003**3,  # prime powers
    561, 41041,  # Carmichael numbers
    1000003 * 1000033, 10000019 * 10000079,  # two primes above the trial bound
    -2**40 * 1031**2 * 1033,
])
def test_factorize_matches_trial_division(n):
    assert factorize(n) == factorize_by_trial_division(n)


@given(st.lists(st.integers(2, 5000), min_size=1, max_size=3))
def test_factorize_of_products_matches_trial_division(factors):
    # the parts left after trial division to 2^10 are split by Brent's rho
    n = math.prod(factors)
    assert factorize(n) == factorize_by_trial_division(n)


@given(st.integers(-300, 300), st.integers(-300, 300))
def test_kronecker_multiplicative(a, b):
    for n in (3, 5, 7, 15, 2, 8):
        assert kronecker_symbol(a * b, n) == kronecker_symbol(a, n) * kronecker_symbol(b, n)


def test_kronecker_quadratic_residues():
    # against a direct residue scan at odd primes
    for p in (3, 5, 7, 11, 13, 23):
        squares = {(x * x) % p for x in range(1, p)}
        for a in range(1, p):
            want = 1 if a in squares else -1
            assert kronecker_symbol(a, p) == want
        assert kronecker_symbol(p, p) == 0
    # the 2-adic supplement
    assert kronecker_symbol(2, 7) == 1 and kronecker_symbol(2, 3) == -1


# ---------------------------------------------------------------------------
# matrices

_rng = random.Random(7)


def _rand_matrix(rows, cols, lo=-6, hi=6, rng=_rng):
    return IntMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]
    )


def test_det_matches_cofactor_expansion():
    for _ in range(40):
        n = _rng.randint(1, 5)
        m = _rand_matrix(n, n)
        assert det(m) == det_by_cofactors(rows(m))


def test_matrix_algebra():
    a = _rand_matrix(3, 4)
    b = _rand_matrix(4, 2)
    c = matmul(a, b)
    for i in range(3):
        for j in range(2):
            assert entry(c, i, j) == sum(entry(a, i, k) * entry(b, k, j) for k in range(4))
    assert matrix_difference(matrix_sum(a, a), a).entries == a.entries
    assert a.transpose().transpose().entries == a.entries
    assert vstack([a, a]).rows == 6


@settings(derandomize=True, max_examples=50, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5),
       st.lists(st.integers(-10**6, 10**6), min_size=50, max_size=50))
@example(3, 0, 2, [7] * 50)
@example(0, 3, 2, [7] * 50)
@example(2, 3, 0, [7] * 50)
def test_product_matches_triple_loop(n, k, m, pool):
    # shapes up to 5, with n x 0 times 0 x m the zero matrix
    a = IntMatrix(n, k, tuple(pool[:n * k]))
    b = IntMatrix(k, m, tuple(pool[25:25 + k * m]))
    assert matmul(a, b) == matmul_naive(a, b)
    if k == 0:
        assert matmul(a, b) == zeros(n, m)
    with pytest.raises(ValueError, match="shape mismatch in product"):
        matmul(a, zeros(k + 1, m))


def test_smith_normal_form_properties():
    # the transform-tracking reference: u * m * v = diag(d), and its
    # invariants are the package's
    for _ in range(60):
        m = _rand_matrix(_rng.randint(1, 5), _rng.randint(1, 5))
        res = snf_with_transforms(m)
        d = matmul(matmul(res.u, m), res.v)
        for i in range(d.rows):
            for j in range(d.cols):
                want = res.d[i] if i == j and i < len(res.d) else 0
                assert entry(d, i, j) == want
        assert abs(det(res.u)) == 1
        assert abs(det(res.v)) == 1
        assert matmul(res.v, res.vinv).entries == IntMatrix.identity(m.cols).entries
        for i in range(res.rank):
            assert res.d[i] > 0
            if i + 1 < res.rank:
                assert res.d[i + 1] % res.d[i] == 0
        assert all(x == 0 for x in res.d[res.rank:])
        assert smith_normal_form(m) == res.d[:res.rank]


def _determinantal_invariants(m):
    """d_i = D_i / D_{i-1}, with D_i the gcd of the i x i minors of m, each
    a Bareiss determinant, up to the rank."""
    out, prev = [], 1
    for i in range(1, min(m.rows, m.cols) + 1):
        divisor = 0
        for rows in combinations(range(m.rows), i):
            for cols in combinations(range(m.cols), i):
                minor = IntMatrix.from_rows([[entry(m, r, c) for c in cols] for r in rows])
                divisor = gcd(divisor, det(minor))
        if not divisor:
            break
        out.append(divisor // prev)
        prev = divisor
    return tuple(out)


def test_smith_invariants_match_determinantal_divisors():
    # an oracle that shares no code with the SNF; a product a * b through an
    # inner dimension k has rank at most k
    rng = random.Random(17)
    for _ in range(80):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        if rng.random() < 0.5:
            m = _rand_matrix(nr, nc, -9, 9, rng)
        else:
            k = rng.randint(1, min(nr, nc))
            m = matmul(_rand_matrix(nr, k, -4, 4, rng), _rand_matrix(k, nc, -4, 4, rng))
        assert smith_normal_form(m) == _determinantal_invariants(m), m
    assert smith_normal_form(zeros(3, 2)) == ()


def test_row_lattice_index_matches_bareiss_det():
    # independent oracle: for square m the row lattice has index |det m|
    rng = random.Random(11)
    for _ in range(80):
        n = rng.randint(1, 6)
        m = _rand_matrix(n, n, rng=rng)
        assert row_lattice_index(m) == abs(det(m))


def test_row_lattice_index():
    m = IntMatrix.from_rows([[2, 0], [0, 3]])
    assert row_lattice_index(m) == 6
    assert row_lattice_index(IntMatrix.from_rows([[1, 1], [2, 2]])) == 0


def test_kernel_basis():
    for _ in range(40):
        m = _rand_matrix(_rng.randint(1, 4), _rng.randint(1, 5))
        k = kernel_basis(m)
        prod = matmul(m, k)
        assert all(entry(prod, i, j) == 0 for i in range(prod.rows) for j in range(prod.cols))
        assert k.cols == m.cols - len(smith_normal_form(m))


def test_charpoly_matches_det():
    # dual route: charpoly coefficients vs det(xI - M) at integer points
    for _ in range(30):
        n = _rng.randint(1, 5)
        m = _rand_matrix(n, n)
        cp = charpoly(m)
        assert len(cp) == n + 1 and cp[-1] == 1
        for x in (-3, -1, 0, 1, 2, 5):
            assert eval_poly(cp, x) == det(matrix_difference(scalar(n, x), m))


def _square_matrix(draw, n):
    """An n x n integer matrix of one of three kinds: any, singular (a
    product through an inner dimension k < n) or a multiple d*A with
    d >= 2, whose determinant is 0 or a multiple of d^n."""
    entries = st.integers(-20, 20)
    kind = draw(st.sampled_from(("any", "singular", "multiple")))
    if kind == "singular" and n:
        k = draw(st.integers(0, n - 1))
        a = draw(st.lists(entries, min_size=n * k, max_size=n * k))
        b = draw(st.lists(entries, min_size=k * n, max_size=k * n))
        return matmul(IntMatrix(n, k, tuple(a)), IntMatrix(k, n, tuple(b)))
    flat = draw(st.lists(entries, min_size=n * n, max_size=n * n))
    d = draw(st.integers(2, 5)) if kind == "multiple" else 1
    return IntMatrix(n, n, tuple(d * x for x in flat))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(0, 6), st.data())
def test_charpoly_matches_both_determinant_routes(n, data):
    # Faddeev-LeVerrier against the Bareiss interpolation of det(x*I - m)
    # and against the cofactor expansion of det(x*I - m) at several x
    m = _square_matrix(data.draw, n)
    cp = charpoly(m)
    assert len(cp) == n + 1 and cp[-1] == 1
    assert cp == interpolated_det_poly(m)
    for x in (-2, 0, 1, 7):
        shifted = [[(x if i == j else 0) - v for j, v in enumerate(r)]
                   for i, r in enumerate(rows(m))]
        assert eval_poly(cp, x) == det_by_cofactors(shifted)


def test_invariants_from_relations():
    rel = IntMatrix.from_rows([[2, 0], [0, 3]]).transpose()
    inv = invariants_from_relations(2, rel)
    assert inv.free_rank == 0 and inv.order == 6
    inv2 = invariants_from_relations(3, IntMatrix.from_rows([[0, 0, 2]]).transpose())
    assert inv2.free_rank == 2 and inv2.factors == (2,)
    assert inv2.order is None
    with pytest.raises(ValueError):
        AbelianGroupInvariants(0, (3, 2))  # violates divisibility order

