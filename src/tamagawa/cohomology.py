"""Integral group cohomology on lattices via the (non-normalized) bar complex.

C^n(G, M) = Maps(G^n, M) is coordinatized by pairs (tuple, coord) with index
tupidx*rank + coord, tuples ordered lexicographically (first entry most
significant). H^n = ker d^n / im d^{n-1} is presented by Smith normal form:
if u d^n v = diag, cocycles are the last k = cols - rank coordinates of
v^{-1} x, and the coboundary relations are the same coordinates of the
columns of d^{n-1}.

The knot-group order i(T) of the norm-one family comes from the
decomposition groups and H^3(G, Z) alone; `_knot_group_order` carries the
proof.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import product

from .errors import BudgetExceededError, QRankError, UnsupportedTorusError
from .exactcore import (
    AbelianGroupInvariants,
    IntMatrix,
    invariants_from_relations,
    smith_normal_form,
    vstack,
)
from .galois import (
    INF,
    FiniteGroup,
    GaloisLattice,
    TorusSpec,
    decomposition_subgroup,
    trivial_lattice,
)
from .quadfield import QuadField

_COL_BUDGET = 20000


def _submatrix(m: IntMatrix, r0: int, r1: int, c0: int, c1: int) -> IntMatrix:
    rows = [[m.get(i, j) for j in range(c0, c1)] for i in range(r0, r1)]
    flat = tuple(x for row in rows for x in row)
    return IntMatrix(r1 - r0, c1 - c0, flat)


def _tuple_index(tup, ng: int) -> int:
    idx = 0
    for t in tup:
        idx = idx * ng + t
    return idx


@lru_cache(maxsize=None)
def bar_boundary(lattice: GaloisLattice, n: int) -> IntMatrix:
    """d^n : C^n(G, M) -> C^{n+1}(G, M)."""
    G = lattice.group
    ng = G.order
    rank = lattice.rank
    rows_n = rank * ng ** (n + 1)
    cols_n = rank * ng ** n
    if rows_n > _COL_BUDGET:
        raise BudgetExceededError(f"boundary size {rows_n} exceeds {_COL_BUDGET}")
    if n == 0:
        blocks = [lattice.mats[g] - IntMatrix.identity(rank) for g in range(ng)]
        return vstack(blocks)
    rows = [[0] * cols_n for _ in range(rows_n)]
    for s in product(range(ng), repeat=n + 1):
        rbase = _tuple_index(s, ng) * rank
        a = lattice.mats[s[0]]
        cbase = _tuple_index(s[1:], ng) * rank
        for i in range(rank):
            arow = a.row(i)
            target = rows[rbase + i]
            for m in range(rank):
                target[cbase + m] += arow[m]
        for i in range(1, n + 1):
            merged = s[:i - 1] + (G.table[s[i - 1]][s[i]],) + s[i + 1:]
            cbase = _tuple_index(merged, ng) * rank
            sign = -1 if i % 2 else 1
            for m in range(rank):
                rows[rbase + m][cbase + m] += sign
        cbase = _tuple_index(s[:n], ng) * rank
        sign = -1 if (n + 1) % 2 else 1
        for m in range(rank):
            rows[rbase + m][cbase + m] += sign
    return IntMatrix(rows_n, cols_n, tuple(x for row in rows for x in row))


class _Presentation(namedtuple("_Presentation", "k rel")):
    """H^n as Z^k / column-span(rel)."""

    __slots__ = ()


@lru_cache(maxsize=None)
def _presentation(lattice: GaloisLattice, n: int) -> _Presentation:
    if n < 1:
        raise ValueError("presentations start at degree 1")
    dn = bar_boundary(lattice, n)
    dprev = bar_boundary(lattice, n - 1)
    snf = smith_normal_form(dn, want_u=False)
    r = snf.rank
    k = dn.cols - r
    proj = snf.vinv * dprev
    if any(proj.get(i, j) for i in range(r) for j in range(proj.cols)):
        raise ArithmeticError("d o d != 0 in kernel coordinates")
    rel = _submatrix(proj, r, dn.cols, 0, proj.cols)
    return _Presentation(k, rel)


def cohomology(G: FiniteGroup, M: GaloisLattice, n: int) -> AbelianGroupInvariants:
    if M.group != G:
        raise ValueError("lattice is not over the given group")
    if not 0 <= n <= 3:
        raise ValueError("degree must be 0..3")
    if M.rank * G.order ** (n + 1) > _COL_BUDGET:
        raise BudgetExceededError("cochain complex exceeds column budget")
    if n == 0:
        stacked = bar_boundary(M, 0)
        free = M.rank - smith_normal_form(stacked, want_u=False).rank
        return AbelianGroupInvariants(free, ())
    p = _presentation(M, n)
    return invariants_from_relations(p.k, p.rel)


def h0_torsion_dual(G: FiniteGroup, M: GaloisLattice) -> AbelianGroupInvariants:
    """#((M x Q/Z)^G) as torsion invariants of the stacked (action - id).

    Finite only in Q-rank 0; a rank-deficient stack means a free summand of
    invariants, which this op rejects.
    """
    if M.group != G:
        raise ValueError("lattice is not over the given group")
    stacked = bar_boundary(M, 0)
    snf = smith_normal_form(stacked, want_u=False)
    deficit = M.rank - snf.rank
    if deficit:
        raise QRankError(deficit)
    return AbelianGroupInvariants(0, tuple(x for x in snf.d if x > 1))


def _knot_group_order(t: TorusSpec) -> int:
    """i(T) = #ker(H^3(G, Z) -> prod_v H^3(D_v, Z)) over all places v.

    Proof of the closed form, for |G| <= 4:
      - every proper subgroup of a group of order <= 4 is cyclic;
      - H^3(C_n, Z) = H^2(C_n, Q/Z) = 0, so restriction to a proper subgroup
        is zero;
      - restriction to G itself is the identity.
    So the kernel is all of H^3(G, Z) unless some D_v is G, and trivial then.
    Unramified D_v are cyclic, so only infinity and the ramified primes can
    give D_v = G.
    """
    G = t.group
    subs = {decomposition_subgroup(t, v) for v in (INF, *t.ramified_primes())}
    if tuple(range(G.order)) in subs:
        return 1
    return cohomology(G, trivial_lattice(G), 3).order


def sha_order(t: TorusSpec) -> int:
    if t.family != "norm-one":
        raise UnsupportedTorusError("knot-group description applies to the norm-one family")
    return _knot_group_order(t)


def ono_constant(t: TorusSpec) -> int:
    if t.family == "norm-one":
        return _knot_group_order(t)
    if t.family == "quotient-by-gm" and isinstance(t.field, QuadField):
        # Q-isomorphic to the norm-one torus via t -> t/s(t)
        return _knot_group_order(t)
    raise UnsupportedTorusError(f"no Sha evaluator for {t.label}")
