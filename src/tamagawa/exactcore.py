"""Exact arithmetic substrate.

Integer matrices with the Smith normal form, characteristic polynomials,
primes and the Kronecker symbol.

Everything here is immutable and pure; safe to share between threads.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import compress
from math import isqrt


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
    if n < 2:
        return ()
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytearray(len(range(p * p, n + 1, p)))
    return tuple(compress(range(n + 1), sieve))


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {p: multiplicity}; n must be nonzero."""
    if n == 0:
        raise ValueError("cannot factor 0")
    n = abs(n)
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        if is_prime(n):
            break
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


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


class IntMatrix(namedtuple("IntMatrix", "rows cols entries")):
    """Immutable integer matrix, row-major flat storage."""

    __slots__ = ()

    def __new__(cls, rows: int, cols: int, entries: tuple[int, ...]):
        if len(entries) != rows * cols:
            raise ValueError("entry count must equal rows*cols")
        return super().__new__(cls, rows, cols, entries)

    @classmethod
    def _make(cls, iterable):
        # namedtuple's own _make, which _replace calls, skips __new__
        return cls(*iterable)

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
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, nr: int, nc: int) -> "IntMatrix":
        return cls(nr, nc, (0,) * (nr * nc))

    def get(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(
            self.cols,
            self.rows,
            tuple(self.entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)),
        )

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        self._same_shape(other)
        return IntMatrix(self.rows, self.cols, tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        self._same_shape(other)
        return IntMatrix(self.rows, self.cols, tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, tuple(-a for a in self.entries))

    def _same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def scale(self, k: int) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, tuple(k * a for a in self.entries))

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        n, m, k = self.rows, other.cols, self.cols
        a, b = self.entries, other.entries
        out = []
        for i in range(n):
            arow = a[i * k:(i + 1) * k]
            for j in range(m):
                out.append(sum(arow[t] * b[t * m + j] for t in range(k)))
        return IntMatrix(n, m, tuple(out))

    __rmul__ = scale

    def apply(self, vec) -> tuple[int, ...]:
        """Matrix times column vector."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum(self.row(i)[j] * vec[j] for j in range(self.cols)) for i in range(self.rows))

    def trace(self) -> int:
        if self.rows != self.cols:
            raise ValueError("trace of non-square matrix")
        return sum(self.get(i, i) for i in range(self.rows))

    def det(self) -> int:
        """Fraction-free Bareiss elimination."""
        if self.rows != self.cols:
            raise ValueError("det of non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = self.to_rows()
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k]:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            pivot = a[k][k]
            for i in range(k + 1, n):
                aik = a[i][k]
                rowi = a[i]
                rowk = a[k]
                for j in range(k + 1, n):
                    rowi[j] = (rowi[j] * pivot - aik * rowk[j]) // prev
                rowi[k] = 0
            prev = pivot
        return sign * a[n - 1][n - 1]


def vstack(mats) -> IntMatrix:
    mats = list(mats)
    if not mats:
        raise ValueError("vstack of nothing")
    nc = mats[0].cols
    if any(m.cols != nc for m in mats):
        raise ValueError("column mismatch")
    flat = tuple(x for m in mats for x in m.entries)
    return IntMatrix(sum(m.rows for m in mats), nc, flat)


class SnfResult(namedtuple("SnfResult", "d u v vinv")):
    """u * m * v == diag(d), with d_i | d_{i+1} and d_i >= 0; u is None
    when not wanted.

    vinv is the inverse of v; it comes out of the same reduction for free and
    cohomology presentations need it.
    """

    __slots__ = ()

    @property
    def rank(self) -> int:
        return sum(1 for x in self.d if x)


def smith_normal_form(m: IntMatrix, want_u: bool = True) -> SnfResult:
    """SNF by unimodular row/column operations.

    Pivot choice: minimal absolute value among nonzero entries of the working
    submatrix, ties broken row-major. Deterministic for a given input.
    """
    nr, nc = m.rows, m.cols
    a = m.to_rows()
    u = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)] if want_u else None
    v = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]
    vinv = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]

    def row_sub(i, j, q):
        # R_i -= q * R_j
        ai, aj = a[i], a[j]
        for t in range(nc):
            ai[t] -= q * aj[t]
        if u is not None:
            ui, uj = u[i], u[j]
            for t in range(nr):
                ui[t] -= q * uj[t]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        if u is not None:
            u[i], u[j] = u[j], u[i]

    def row_neg(i):
        a[i] = [-x for x in a[i]]
        if u is not None:
            u[i] = [-x for x in u[i]]

    def col_sub(j, i, q):
        # C_j -= q * C_i ; on vinv this is the inverse op R_i += q * R_j
        for r in a:
            r[j] -= q * r[i]
        for r in v:
            r[j] -= q * r[i]
        vi, vj = vinv[i], vinv[j]
        for t in range(nc):
            vi[t] += q * vj[t]

    def col_swap(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]
        vinv[i], vinv[j] = vinv[j], vinv[i]

    def eliminate(start: int) -> int:
        """Diagonalize the submatrix from (start, start); returns #pivots placed."""
        t = start
        while t < nr and t < nc:
            piv = None
            best = None
            for i in range(t, nr):
                rowi = a[i]
                for j in range(t, nc):
                    x = rowi[j]
                    if x:
                        x = -x if x < 0 else x
                        if best is None or x < best:
                            best = x
                            piv = (i, j)
            if piv is None:
                break
            if piv[0] != t:
                row_swap(t, piv[0])
            if piv[1] != t:
                col_swap(t, piv[1])
            while True:
                if a[t][t] < 0:
                    row_neg(t)
                p = a[t][t]
                restart = False
                for i in range(t + 1, nr):
                    x = a[i][t]
                    if x % p:
                        row_sub(i, t, x // p)
                        row_swap(t, i)
                        restart = True
                        break
                if restart:
                    continue
                for i in range(t + 1, nr):
                    x = a[i][t]
                    if x:
                        row_sub(i, t, x // p)
                restart = False
                for j in range(t + 1, nc):
                    x = a[t][j]
                    if x % p:
                        col_sub(j, t, x // p)
                        col_swap(t, j)
                        restart = True
                        break
                if restart:
                    continue
                for j in range(t + 1, nc):
                    x = a[t][j]
                    if x:
                        col_sub(j, t, x // p)
                break
            t += 1
        return t

    rank = eliminate(0)

    # enforce the divisibility chain
    while True:
        bad = None
        for i in range(rank - 1):
            if a[i + 1][i + 1] % a[i][i]:
                bad = i
                break
        if bad is None:
            break
        col_sub(bad, bad + 1, -1)  # C_bad += C_{bad+1}
        rank = eliminate(bad)

    d = tuple(a[t][t] for t in range(min(nr, nc)))
    umat = IntMatrix.from_rows(u) if want_u and nr else (IntMatrix(0, 0, ()) if want_u else None)
    vmat = IntMatrix.from_rows(v) if nc else IntMatrix(0, 0, ())
    vinvmat = IntMatrix.from_rows(vinv) if nc else IntMatrix(0, 0, ())
    return SnfResult(d, umat, vmat, vinvmat)


def row_lattice_index(m: IntMatrix) -> int:
    """Index of the row lattice of m inside Z^cols; 0 when not full rank.

    u*m*v = diag(d) with u, v unimodular, so the row lattice of m is carried
    onto that of diag(d) by an automorphism of Z^cols: the index is the
    product of the Smith invariants.
    """
    snf = smith_normal_form(m, want_u=False)
    if snf.rank < m.cols:
        return 0
    idx = 1
    for x in snf.d:
        idx *= x
    return idx


def kernel_basis(m: IntMatrix) -> IntMatrix:
    """Basis of {x in Z^cols : m @ x == 0} as the columns of the result."""
    snf = smith_normal_form(m, want_u=False)
    r = snf.rank
    nc = m.cols
    k = nc - r
    cols = []
    for j in range(r, nc):
        cols.append([snf.v.get(i, j) for i in range(nc)])
    if not cols:
        return IntMatrix(nc, 0, ())
    flat = tuple(cols[j][i] for i in range(nc) for j in range(k))
    return IntMatrix(nc, k, flat)


def charpoly(m: IntMatrix) -> tuple[int, ...]:
    """Coefficients c_0..c_n of det(x*I - m), low degree first.

    Faddeev-LeVerrier: all divisions are exact over Z.
    """
    if m.rows != m.cols:
        raise ValueError("charpoly of non-square matrix")
    n = m.rows
    c = [0] * (n + 1)
    c[n] = 1
    mk = IntMatrix.zeros(n, n)
    ident = IntMatrix.identity(n)
    for k in range(1, n + 1):
        mk = m * mk + ident.scale(c[n - k + 1])
        prod = m * mk
        c[n - k] = -prod.trace() // k
    return tuple(c)


def eval_poly(coeffs, x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


class AbelianGroupInvariants(namedtuple("AbelianGroupInvariants", "free_rank factors")):
    """Invariant-factor presentation Z^free_rank + Z/d_1 + ... (d_i | d_{i+1})."""

    __slots__ = ()

    def __new__(cls, free_rank: int, factors: tuple[int, ...]):
        for a, b in zip(factors, factors[1:]):
            if b % a:
                raise ValueError("factors must form a divisibility chain")
        if any(f < 2 for f in factors):
            raise ValueError("factors must be > 1")
        return super().__new__(cls, free_rank, factors)

    @classmethod
    def _make(cls, iterable):
        # namedtuple's own _make, which _replace calls, skips __new__
        return cls(*iterable)

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


def invariants_from_relations(ambient_rank: int, relations: IntMatrix) -> AbelianGroupInvariants:
    """Invariants of Z^ambient_rank / column-span(relations)."""
    if relations.rows != ambient_rank:
        raise ValueError("relation matrix must have ambient_rank rows")
    if relations.cols == 0:
        return AbelianGroupInvariants(ambient_rank, ())
    snf = smith_normal_form(relations, want_u=False)
    nonzero = [x for x in snf.d if x]
    return AbelianGroupInvariants(ambient_rank - len(nonzero), tuple(x for x in nonzero if x > 1))

