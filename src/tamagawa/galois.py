"""Torus families via their character/cocharacter lattices.

Three families over a quadratic or biquadratic field K with G = Gal(K/Q):

  res-scalars     X^* = Z[G], the regular permutation module
  norm-one        X^* = Z[G] / Z*(sum of group elements)
  quotient-by-gm  X^* = augmentation kernel of Z[G]

The norm-one quotient is coordinatized through the unimodular change of
basis U = (e_0; e_1 - e_0; ...; e_{n-1} - e_{n-2}), whose inverse is the
all-ones lower triangle; the sum vector becomes the first coordinate and the
quotient action is the lower-right block of U P_g U^{-1}.

Euler factors and point counts take two deliberately different routes, so
their agreement is a real check, not a tautology.  For each Galois element g,
with B = Fr^{-1} on X_* when Fr = g, once per torus:

  E_p(1) * p^d = charpoly(B)(p), by Faddeev-LeVerrier;
  |T(F_p)|    = det(x*I - B) at x = p, where that polynomial is interpolated
                exactly from fraction-free (Bareiss) determinants at
                x = 0..d.

Each prime then costs a dict lookup of its Frobenius class by its residue
mod the field's conductor (Kronecker symbols once per residue) and two
polynomial evaluations.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm

from .errors import UnsupportedTorusError
from .exactcore import IntMatrix, charpoly, eval_poly, is_prime, kronecker_symbol, smith_normal_form, vstack
from .models import norm_form_model, unit_group_model
from .quadfield import BiquadField, QuadField

INF = "inf"

FAMILIES = ("res-scalars", "norm-one", "quotient-by-gm")
FAMILY_TAGS = {"res-scalars": "res", "norm-one": "norm1", "quotient-by-gm": "quot"}
TAG_FAMILIES = {v: k for k, v in FAMILY_TAGS.items()}


class FiniteGroup(namedtuple("FiniteGroup", "labels table")):
    __slots__ = ()

    def __new__(cls, labels: tuple[str, ...], table: tuple[tuple[int, ...], ...]):
        n = len(labels)
        if len(table) != n or any(len(r) != n for r in table):
            raise ValueError("table shape mismatch")
        if any(x < 0 or x >= n for r in table for x in r):
            raise ValueError("table not closed")
        if any(table[0][j] != j or table[j][0] != j for j in range(n)):
            raise ValueError("element 0 is not an identity")
        for i in range(n):
            if all(table[i][j] != 0 for j in range(n)):
                raise ValueError(f"element {i} has no inverse")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if table[table[i][j]][k] != table[i][table[j][k]]:
                        raise ValueError("table is not associative")
        return super().__new__(cls, labels, table)

    @classmethod
    def _make(cls, iterable):
        # namedtuple's own _make, which _replace calls, skips __new__
        return cls(*iterable)

    @property
    def order(self) -> int:
        return len(self.labels)

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def inv(self, i: int) -> int:
        return next(j for j in range(self.order) if self.table[i][j] == 0)

    def element_order(self, i: int) -> int:
        o, x = 1, i
        while x != 0:
            x = self.table[x][i]
            o += 1
        return o

    def subgroup_closure(self, gens) -> tuple[int, ...]:
        elems = {0}
        frontier = set(gens) | {0}
        while frontier:
            nxt = {self.table[a][b] for a in frontier | elems for b in frontier | elems}
            frontier = nxt - elems
            elems |= nxt
        return tuple(sorted(elems))

    def is_cyclic_subset(self, indices) -> bool:
        s = set(indices)
        return any(set(self._powers(g)) == s for g in s)

    def _powers(self, g: int):
        out, x = [0], self.table[0][g]
        while x != 0:
            out.append(x)
            x = self.table[x][g]
        return out

    @classmethod
    def cyclic(cls, n: int) -> "FiniteGroup":
        labels = tuple("e" if i == 0 else f"g{i}" if n > 2 else "s" for i in range(n))
        table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
        return cls(labels, table)

    @classmethod
    def klein_four(cls) -> "FiniteGroup":
        table = ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))
        return cls(("e", "s1", "s2", "s3"), table)


class GaloisLattice(namedtuple("GaloisLattice", "group rank mats")):
    __slots__ = ()

    def __new__(cls, group: FiniteGroup, rank: int, mats: tuple[IntMatrix, ...]):
        if len(mats) != group.order:
            raise ValueError("one matrix per group element required")
        ident = IntMatrix.identity(rank)
        if mats[0] != ident:
            raise ValueError("identity must act as the identity matrix")
        for m in mats:
            if m.rows != rank or m.cols != rank:
                raise ValueError("rank mismatch")
            if m.det() not in (1, -1):
                raise ValueError("action matrix is not unimodular")
        for i in range(group.order):
            for j in range(group.order):
                if mats[i] * mats[j] != mats[group.table[i][j]]:
                    raise ValueError("action is not a homomorphism")
        return super().__new__(cls, group, rank, mats)

    @classmethod
    def _make(cls, iterable):
        # namedtuple's own _make, which _replace calls, skips __new__
        return cls(*iterable)

    def dual(self) -> "GaloisLattice":
        G = self.group
        return GaloisLattice(G, self.rank,
                             tuple(self.mats[G.inv(g)].transpose() for g in range(G.order)))


def trivial_lattice(group: FiniteGroup, rank: int = 1) -> GaloisLattice:
    ident = IntMatrix.identity(rank)
    return GaloisLattice(group, rank, (ident,) * group.order)


def _perm_matrices(group: FiniteGroup) -> tuple[IntMatrix, ...]:
    """Left translation on Z[G]: P_h[i][j] = 1 iff g_i = h g_j."""
    n = group.order
    out = []
    for h in range(n):
        rows = [[0] * n for _ in range(n)]
        for j in range(n):
            rows[group.table[h][j]][j] = 1
        out.append(IntMatrix.from_rows(rows))
    return tuple(out)


def _norm_one_action(group: FiniteGroup) -> tuple[IntMatrix, ...]:
    n = group.order
    u_rows = [[0] * n for _ in range(n)]
    u_rows[0][0] = 1
    for i in range(1, n):
        u_rows[i][i] = 1
        u_rows[i][i - 1] = -1
    u = IntMatrix.from_rows(u_rows)
    uinv = IntMatrix.from_rows([[1 if j <= i else 0 for j in range(n)] for i in range(n)])
    out = []
    for p in _perm_matrices(group):
        conj = u * p * uinv
        block = [[conj.get(i, j) for j in range(1, n)] for i in range(1, n)]
        if any(conj.get(i, 0) != (1 if i == 0 else 0) for i in range(n)):
            raise ArithmeticError("sum vector is not fixed by the action")
        out.append(IntMatrix.from_rows(block))
    return tuple(out)


def _aug_kernel_action(group: FiniteGroup) -> tuple[IntMatrix, ...]:
    # basis f_i = e_i - e_{n-1}, i < n-1; h.f_i = f_{h i} - f_{h (n-1)}
    n = group.order
    out = []
    for h in range(n):
        rows = [[0] * (n - 1) for _ in range(n - 1)]
        for i in range(n - 1):
            a = group.table[h][i]
            b = group.table[h][n - 1]
            if a != n - 1:
                rows[a][i] += 1
            if b != n - 1:
                rows[b][i] -= 1
        out.append(IntMatrix.from_rows(rows))
    return tuple(out)


class TorusSpec(namedtuple("TorusSpec", "family field dim xstar xcochar model label")):
    """field is a QuadField or BiquadField, xstar and xcochar the
    GaloisLattices X^* and X_*, model an AffineModel or None."""

    __slots__ = ()

    @property
    def group(self) -> FiniteGroup:
        return self.xstar.group

    def splitting_disc(self) -> int:
        if isinstance(self.field, QuadField):
            return self.field.D
        return self.field.D1 * self.field.D2 * self.field.D3

    def ramified_primes(self) -> tuple[int, ...]:
        return self.field.ramified_primes()

    def bad_primes(self) -> tuple[int, ...]:
        return tuple(sorted({2, *self.ramified_primes()}))


@lru_cache(maxsize=512)
def build_torus(family: str, field: QuadField | BiquadField) -> TorusSpec:
    if family not in FAMILIES:
        raise UnsupportedTorusError(f"unknown family {family!r}")
    quad = isinstance(field, QuadField)
    if not quad and not isinstance(field, BiquadField):
        raise UnsupportedTorusError(f"unsupported field descriptor {field!r}")
    group = FiniteGroup.cyclic(2) if quad else FiniteGroup.klein_four()
    n = group.order
    model = None
    if family == "res-scalars":
        xstar = GaloisLattice(group, n, _perm_matrices(group))
        dim = n
        if quad:
            model = unit_group_model(field)
    elif family == "norm-one":
        xstar = GaloisLattice(group, n - 1, _norm_one_action(group))
        dim = n - 1
        if quad:
            model = norm_form_model(field)
    else:
        xstar = GaloisLattice(group, n - 1, _aug_kernel_action(group))
        dim = n - 1
        if quad:
            # over quadratic K this torus is Q-isomorphic to norm-one via
            # t -> t/s(t), so it shares the norm-form model
            model = norm_form_model(field)
    if quad:
        desc = str(field.d)
    else:
        desc = f"{field.d1},{field.d2}"
    label = f"{FAMILY_TAGS[family]}:{desc}"
    return TorusSpec(family, field, dim, xstar, xstar.dual(), model, label)


def q_rank(t: TorusSpec) -> int:
    stacked = vstack([m - IntMatrix.identity(t.xstar.rank) for m in t.xstar.mats])
    return t.xstar.rank - smith_normal_form(stacked, want_u=False).rank


def is_good_prime(t: TorusSpec, p: int) -> bool:
    return is_prime(p) and (2 * t.splitting_disc()) % p != 0


_BIQUAD_FROBENIUS = {(1, 1): 0, (1, -1): 1, (-1, 1): 2, (-1, -1): 3}


def frobenius_element(t: TorusSpec, p: int) -> int:
    """Index of the Frobenius at an unramified prime in Gal(K/Q)."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    field = t.field
    if isinstance(field, QuadField):
        if kronecker_symbol(field.D, p) == 0:
            raise ValueError(f"p = {p} is ramified")
    elif (kronecker_symbol(field.D1, p) == 0 or kronecker_symbol(field.D2, p) == 0
          or kronecker_symbol(field.D3, p) == 0):
        raise ValueError(f"p = {p} is ramified")
    return _frobenius_index(field, p)


def _frobenius_index(field: QuadField | BiquadField, p: int) -> int:
    """Index of the Frobenius at a prime p known to be unramified in K."""
    if isinstance(field, QuadField):
        return 0 if kronecker_symbol(field.D, p) == 1 else 1
    return _BIQUAD_FROBENIUS[kronecker_symbol(field.D1, p), kronecker_symbol(field.D2, p)]


def _interpolated_det_poly(b: IntMatrix) -> tuple[int, ...]:
    """Coefficients of det(x*I - b), low degree first, interpolated exactly
    from its Bareiss values at x = 0..n (Newton's forward differences)."""
    n = b.rows
    diffs = [(IntMatrix.identity(n).scale(x) - b).det() for x in range(n + 1)]
    coeffs = [Fraction(0)] * (n + 1)
    basis = [1]  # x(x-1)...(x-k+1), low degree first
    for k in range(n + 1):
        lead = Fraction(diffs[0], factorial(k))
        for i, c in enumerate(basis):
            coeffs[i] += lead * c
        diffs = [hi - lo for lo, hi in zip(diffs, diffs[1:])]
        basis = [(basis[i - 1] if i else 0) - k * (basis[i] if i < len(basis) else 0)
                 for i in range(len(basis) + 1)]
    if any(c.denominator != 1 for c in coeffs):
        raise ArithmeticError("det(x*I - B) interpolates to non-integer coefficients "
                              f"{', '.join(map(str, coeffs))}")
    return tuple(int(c) for c in coeffs)


@lru_cache(maxsize=512)
def _frobenius_polynomials(t: TorusSpec) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """For each Galois element g, (charpoly(B), det(x*I - B)) of
    B = g^{-1} on X_*: the two routes, each computed once per torus."""
    out = []
    for g in range(t.group.order):
        b = t.xcochar.mats[t.group.inv(g)]
        out.append((charpoly(b), _interpolated_det_poly(b)))
    return tuple(out)


def good_euler_terms(t: TorusSpec, primes):
    """Yield (p, p^d * E_p(1), |T(F_p)|) for each p in `primes` (primes,
    unchecked) that does not divide 2 * disc: the charpoly and the
    determinant polynomial of Frobenius's class, each evaluated at p.

    Frobenius's class is looked up by p mod |D| over a quadratic field and
    by p mod lcm(|D1|, |D2|) over a biquadratic one, so each residue class
    pays for its Kronecker symbols once.  This is exact: for a discriminant
    D, n -> (D|n) is a Dirichlet character mod |D|, so (D|p) = (D|q) for
    positive p = q mod |D|; and the biquadratic class is a function of
    ((D1|p), (D2|p)), each periodic mod its |Di|, hence of p mod their lcm."""
    polys = _frobenius_polynomials(t)
    field = t.field
    two_disc = 2 * t.splitting_disc()
    period = abs(field.D) if isinstance(field, QuadField) else lcm(field.D1, field.D2)
    by_residue = {}
    for p in primes:
        if two_disc % p == 0:
            continue
        r = p % period
        try:
            cp, dp = by_residue[r]
        except KeyError:
            cp, dp = by_residue[r] = polys[_frobenius_index(field, p)]
        count = eval_poly(dp, p)
        if count <= 0:
            raise ArithmeticError("point count must be positive")
        yield p, eval_poly(cp, p), count


def _good_terms(t: TorusSpec, p: int) -> tuple[int, int, int]:
    if not is_good_prime(t, p):
        raise ValueError(f"p = {p} is not a good prime for {t.label}")
    return next(good_euler_terms(t, (p,)))


def euler_factor_at_one(t: TorusSpec, p: int) -> Fraction:
    """det(1 - Fr_p^{-1} p^{-1} | X_* x Q), via the characteristic polynomial."""
    _, factor, _ = _good_terms(t, p)
    return Fraction(factor, p ** t.dim)


def point_count_Fp(t: TorusSpec, p: int) -> int:
    """|T(F_p)| = det(p - Fr_p^{-1} | X_*), via the interpolated determinant."""
    _, _, count = _good_terms(t, p)
    return count


def decomposition_subgroup(t: TorusSpec, place) -> tuple[int, ...]:
    """Element indices of the decomposition subgroup at a place (prime or
    INF), identity first."""
    field = t.field
    if isinstance(field, QuadField):
        if place == INF:
            return (0, 1) if field.d < 0 else (0,)
        chi = kronecker_symbol(field.D, place)
        return (0,) if chi == 1 else (0, 1)
    if place == INF:
        signs = [field.d1 > 0, field.d2 > 0, field.d3 > 0]
        if all(signs):
            return (0,)
        return (0, 1 + signs.index(True))
    chis = [field.chi(i, place) for i in (1, 2, 3)]
    if all(chis):
        g = frobenius_element(t, place)
        return (0,) if g == 0 else (0, g)
    unram = [i for i, c in enumerate(chis) if c != 0]
    if len(unram) == 1 and chis[unram[0]] == 1:
        return (0, 1 + unram[0])
    return (0, 1, 2, 3)
