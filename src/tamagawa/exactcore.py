"""Exact arithmetic substrate.

Integer matrices with the Smith normal form, characteristic polynomials,
primes and the Kronecker symbol.

Everything here is immutable and pure; safe to share between threads.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import compress, count
from math import gcd, isqrt, prod
from operator import mul


class Record(tuple):
    """Base of the namedtuple records whose __new__ validates: namedtuple's
    own _make, which _replace calls, skips __new__, and this one does not.
    Derive as class R(Record, namedtuple("R", fields))."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


# ---------------------------------------------------------------------------
# elementary number theory


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# (bound, bases): Miller-Rabin on these bases is proven deterministic for
# n < bound (Jaeschke, Math. Comp. 61, 1993).  Larger n use all of
# _SMALL_PRIMES.
_MR_BASE_SETS = (
    (1_373_653, (2, 3)),
    (3_215_031_751, (2, 3, 5, 7)),
)


def is_prime(n: int) -> bool:
    """Miller-Rabin after trial division by the primes up to 41.

    Deterministic for n < 3,317,044,064,679,887,385,961,981 (psi_13, the
    least strong pseudoprime to all of the bases 2..41; Sorenson-Webster,
    Math. Comp. 86, 2017); above that bound it is a strong probable-prime
    test to those 13 bases.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    bases = next((b for bound, b in _MR_BASE_SETS if n < bound), _SMALL_PRIMES)
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=32)
def primes_up_to(n: int) -> tuple[int, ...]:
    """The primes p <= n, ascending: 2, then an Eratosthenes sieve on the
    odd numbers alone, whose byte i stands for 2i + 1."""
    if n < 2:
        return ()
    half = (n + 1) // 2  # the odd numbers 1, 3, ..., up to n
    sieve = bytearray([1]) * half
    sieve[0] = 0
    for i in range(1, (isqrt(n) + 1) // 2):
        if sieve[i]:
            p = 2 * i + 1
            start = p * p // 2  # p^2 = 2 * start + 1; odd multiples are 2p apart
            sieve[start::p] = bytes(len(range(start, half, p)))
    return (2, *compress(range(1, n + 1, 2), sieve))


# trial division stops here; each prime factor of what is left exceeds it
_TRIAL_BOUND = 2**10


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {p: multiplicity}; n must be nonzero.

    Trial division up to _TRIAL_BOUND, then Brent's rho splits a composite
    cofactor.  Every prime factor left after trial division is at least the
    next trial divisor f, so a part below f^2 is prime untested, and every
    other part is tested for primality once."""
    if n == 0:
        raise ValueError("cannot factor 0")
    n = abs(n)
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    fresh = True  # n has not been tested for primality since it last changed
    while f * f <= n:
        if fresh:
            if is_prime(n):
                break
            fresh = False
        if f > _TRIAL_BOUND:  # n is composite
            composites = [n]
            while composites:
                m = composites.pop()
                g = _brent_split(m)
                for part in (g, m // g):
                    if part < f * f or is_prime(part):
                        out[part] = out.get(part, 0) + 1
                    else:
                        composites.append(part)
            return out
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
                fresh = True
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _brent_split(n: int) -> int:
    """A factor 1 < g < n of the composite n: Brent's cycle search on
    x -> x^2 + c mod n from x = 2, taking gcds of products of 128
    differences, for c = 1, 2, ... until one splits n (Brent, "An improved
    Monte Carlo factorization algorithm", BIT 20, 1980; Cohen, ch. 8.5)."""
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the product passed a multiple of n: retrace its block
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


def squarefree_part(n: int) -> int:
    if n == 0:
        raise ValueError("0 has no squarefree part")
    d = 1
    for p, e in factorize(n).items():
        if e % 2:
            d *= p
    return -d if n < 0 else d


def kronecker_symbol(a: int, n: int) -> int:
    """Kronecker symbol (a|n), the standard extension of Jacobi to all n."""
    if n == 0:
        return 1 if abs(a) == 1 else 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            result = -result
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


# ---------------------------------------------------------------------------
# integer matrices


class IntMatrix(Record, namedtuple("IntMatrix", "rows cols entries")):
    """Immutable integer matrix, row-major flat storage."""

    __slots__ = ()

    def __new__(cls, rows: int, cols: int, entries: tuple[int, ...]):
        if len(entries) != rows * cols:
            raise ValueError("entry count must equal rows*cols")
        return super().__new__(cls, rows, cols, entries)

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        rows = [list(r) for r in rows]
        nr = len(rows)
        nc = len(rows[0]) if rows else 0
        if any(len(r) != nc for r in rows):
            raise ValueError("ragged rows")
        flat = tuple(int(x) for r in rows for x in r)
        return cls(nr, nc, flat)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        entries = [0] * (n * n)
        entries[::n + 1] = [1] * n
        return cls(n, n, tuple(entries))

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def transpose(self) -> "IntMatrix":
        e, nc = self.entries, self.cols
        return IntMatrix(nc, self.rows, tuple([x for j in range(nc) for x in e[j::nc]]))


def smith_normal_form(m: IntMatrix) -> tuple[int, ...]:
    """The nonzero invariant factors d_1 | d_2 | ... of m, all positive.

    Unimodular row and column operations diagonalize m, and the transforms
    are not kept.  Each pivot is an entry of least absolute value; division
    with remainder by it clears its column and row, or leaves a smaller
    entry to pivot on next.  gcd/lcm swaps on the diagonal, which keep the
    cokernel, then make it a divisibility chain.
    """
    rows = [list(m.row(i)) for i in range(m.rows) if any(m.row(i))]
    d = []
    while rows:
        least = None
        for i, r in enumerate(rows):
            x = min(filter(None, map(abs, r)))
            if least is None or x < least:
                least, k = x, i
                if x == 1:
                    break
        prow = rows[k]
        j = list(map(abs, prow)).index(least)
        p = prow[j]
        clean = not any(x % p for x in prow)
        for i, r in enumerate(rows):
            if i != k and r[j]:
                q, rem = divmod(r[j], p)
                rows[i] = [x - q * y for x, y in zip(r, prow)]
                clean = clean and not rem
        if clean:
            # the pivot's row and column are clear: least is a diagonal entry
            d.append(least)
            del rows[k]
        else:
            # clear the pivot row too; the remainders hold the next pivot
            qs = [(c, x // p) for c, x in enumerate(prow) if x and c != j]
            for r in rows:
                x = r[j]
                if x:
                    for c, q in qs:
                        r[c] -= q * x
        rows = [r for r in rows if any(r)]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = gcd(d[i], d[j])
            d[i], d[j] = g, d[i] // g * d[j]
    return tuple(d)


def row_lattice_index(m: IntMatrix) -> int:
    """Index of the row lattice of m inside Z^cols; 0 when not full rank.

    Unimodular row and column operations carry the row lattice of m onto
    that of its Smith form diag(d) by an automorphism of Z^cols: the index
    is the product of the invariants.
    """
    d = smith_normal_form(m)
    return prod(d) if len(d) == m.cols else 0


def charpoly(m: IntMatrix) -> tuple[int, ...]:
    """Coefficients c_0..c_n of det(x*I - m), low degree first.

    Faddeev-LeVerrier (Cohen, A Course in Computational Algebraic Number
    Theory, section 2.2): with M_1 = I and c_n = 1,

        c_{n-k} = -tr(m M_k) / k,    M_{k+1} = m M_k + c_{n-k} I,

    and every division is exact over Z.  Each product m M_k serves both
    its trace and the next M, and m M_1 = m is free: n - 1 products, on
    lists of rows.  M_k is a polynomial in m, so m M_k = M_k m, whose
    entries are dot products of M_k's rows with m's columns, sliced once.
    """
    if m.rows != m.cols:
        raise ValueError("charpoly of non-square matrix")
    n = m.rows
    e = m.entries
    cols = [e[j::n] for j in range(n)]
    c = [0] * (n + 1)
    c[n] = 1
    mk = [list(e[i * n:(i + 1) * n]) for i in range(n)]  # m M_1
    for k in range(1, n + 1):
        c[n - k] = ck = -sum([mk[i][i] for i in range(n)]) // k
        if k < n:
            for i in range(n):
                mk[i][i] += ck  # now M_{k+1}
            mk = [[sum(map(mul, row, col)) for col in cols] for row in mk]
    return tuple(c)


def eval_poly(coeffs, x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


class AbelianGroupInvariants(Record, namedtuple("AbelianGroupInvariants", "free_rank factors")):
    """Invariant-factor presentation Z^free_rank + Z/d_1 + ... (d_i | d_{i+1})."""

    __slots__ = ()

    def __new__(cls, free_rank: int, factors: tuple[int, ...]):
        for a, b in zip(factors, factors[1:]):
            if b % a:
                raise ValueError("factors must form a divisibility chain")
        if any(f < 2 for f in factors):
            raise ValueError("factors must be > 1")
        return super().__new__(cls, free_rank, factors)

    @property
    def order(self) -> int | None:
        """Group order, or None when infinite."""
        if self.free_rank:
            return None
        n = 1
        for f in self.factors:
            n *= f
        return n

    def describe(self) -> str:
        parts = []
        if self.free_rank:
            parts.append(f"Z^{self.free_rank}" if self.free_rank > 1 else "Z")
        parts.extend(f"Z/{f}" for f in self.factors)
        return " + ".join(parts) if parts else "0"

