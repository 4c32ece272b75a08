"""Exact-arithmetic substrate: primes, matrices, normal forms, charpoly."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tamagawa.exactcore import (
    AbelianGroupInvariants,
    IntMatrix,
    charpoly,
    eval_poly,
    factorize,
    invariants_from_relations,
    is_prime,
    kernel_basis,
    kronecker_symbol,
    primes_up_to,
    row_lattice_index,
    smith_normal_form,
    squarefree_part,
    vstack,
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


def _det_cofactor(m):
    if m.rows == 1:
        return m.get(0, 0)
    total = 0
    for j in range(m.cols):
        minor = IntMatrix.from_rows(
            [[m.get(i, jj) for jj in range(m.cols) if jj != j] for i in range(1, m.rows)]
        )
        total += (-1) ** j * m.get(0, j) * _det_cofactor(minor)
    return total


def test_det_matches_cofactor_expansion():
    for _ in range(40):
        n = _rng.randint(1, 5)
        m = _rand_matrix(n, n)
        assert m.det() == _det_cofactor(m)


def test_matrix_algebra():
    a = _rand_matrix(3, 4)
    b = _rand_matrix(4, 2)
    c = a * b
    for i in range(3):
        for j in range(2):
            assert c.get(i, j) == sum(a.get(i, k) * b.get(k, j) for k in range(4))
    assert (a + a - a).entries == a.entries
    assert (2 * a).entries == a.scale(2).entries
    assert a.transpose().transpose().entries == a.entries
    assert vstack([a, a]).rows == 6


def test_smith_normal_form_properties():
    for _ in range(60):
        m = _rand_matrix(_rng.randint(1, 5), _rng.randint(1, 5))
        res = smith_normal_form(m)
        d = res.u * m * res.v
        for i in range(d.rows):
            for j in range(d.cols):
                want = res.d[i] if i == j and i < len(res.d) else 0
                assert d.get(i, j) == want
        assert abs(res.u.det()) == 1
        assert abs(res.v.det()) == 1
        assert (res.v * res.vinv).entries == IntMatrix.identity(m.cols).entries
        for i in range(res.rank):
            assert res.d[i] > 0
            if i + 1 < res.rank:
                assert res.d[i + 1] % res.d[i] == 0
        assert all(x == 0 for x in res.d[res.rank:])


def test_row_lattice_index_matches_bareiss_det():
    # independent oracle: for square m the row lattice has index |det m|
    rng = random.Random(11)
    for _ in range(80):
        n = rng.randint(1, 6)
        m = _rand_matrix(n, n, rng=rng)
        assert row_lattice_index(m) == abs(m.det())


def test_row_lattice_index():
    m = IntMatrix.from_rows([[2, 0], [0, 3]])
    assert row_lattice_index(m) == 6
    assert row_lattice_index(IntMatrix.from_rows([[1, 1], [2, 2]])) == 0


def test_kernel_basis():
    for _ in range(40):
        m = _rand_matrix(_rng.randint(1, 4), _rng.randint(1, 5))
        k = kernel_basis(m)
        prod = m * k
        assert all(prod.get(i, j) == 0 for i in range(prod.rows) for j in range(prod.cols))
        assert k.cols == m.cols - smith_normal_form(m).rank


def test_charpoly_matches_det():
    # dual route: charpoly coefficients vs det(xI - M) at integer points
    for _ in range(30):
        n = _rng.randint(1, 5)
        m = _rand_matrix(n, n)
        cp = charpoly(m)
        assert len(cp) == n + 1 and cp[-1] == 1
        for x in (-3, -1, 0, 1, 2, 5):
            xi = IntMatrix.identity(n).scale(x)
            assert eval_poly(cp, x) == (xi - m).det()


def test_invariants_from_relations():
    rel = IntMatrix.from_rows([[2, 0], [0, 3]]).transpose()
    inv = invariants_from_relations(2, rel)
    assert inv.free_rank == 0 and inv.order == 6
    inv2 = invariants_from_relations(3, IntMatrix.from_rows([[0, 0, 2]]).transpose())
    assert inv2.free_rank == 2 and inv2.factors == (2,)
    assert inv2.order is None
    with pytest.raises(ValueError):
        AbelianGroupInvariants(0, (3, 2))  # violates divisibility order

