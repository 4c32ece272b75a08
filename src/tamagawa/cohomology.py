"""Integral group cohomology on lattices via the (non-normalized) bar complex.

C^n(G, M) = Maps(G^n, M) is coordinatized by pairs (tuple, coord) with index
tupidx*rank + coord, tuples ordered lexicographically (first entry most
significant).  Every d^n, d^0 = stack(g - 1) included, comes from the one
loop in `bar_boundary`.  H^n = ker d^n / im d^{n-1} is read off the Smith
invariants of d^n and d^{n-1} alone: C^n / ker d^n embeds in the free module
C^{n+1}, so ker d^n is a direct summand of C^n, and

    coker d^{n-1} = C^n / im d^{n-1} = H^n + Z^(rank d^n).

So H^n has free rank cols d^n - rank d^n - rank d^{n-1}, and its torsion is
the invariants of d^{n-1} above 1.  The Q-rank is the free rank of H^0, and
the H_0 torsion dual is the torsion of coker d^0, which H^1 shares.

The knot-group order i(T) of the norm-one family comes from the
decomposition groups and H^3(G, Z) alone; `_knot_group_order` carries the
proof.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from .errors import BudgetExceededError, QRankError, UnsupportedTorusError
from .exactcore import AbelianGroupInvariants, IntMatrix, smith_normal_form
from .galois import (
    INF,
    GaloisLattice,
    TorusSpec,
    decomposition_subgroup,
    trivial_lattice,
)
from .quadfield import QuadField

_COL_BUDGET = 20000


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


@lru_cache(maxsize=None)
def _cohomology(lattice: GaloisLattice, n: int) -> AbelianGroupInvariants:
    dn = bar_boundary(lattice, n)
    prev = smith_normal_form(bar_boundary(lattice, n - 1)) if n else ()
    free = dn.cols - len(prev) - len(smith_normal_form(dn))
    if free < 0:
        # rank d^n + rank d^{n-1} <= cols d^n holds whenever d o d = 0
        raise ArithmeticError("d o d != 0: rank d^n + rank d^{n-1} exceeds cols d^n")
    return AbelianGroupInvariants(free, tuple(x for x in prev if x > 1))


def cohomology(M: GaloisLattice, n: int) -> AbelianGroupInvariants:
    if not 0 <= n <= 3:
        raise ValueError("degree must be 0..3")
    return _cohomology(M, n)


def q_rank(t: TorusSpec) -> int:
    """Rank of (X^*)^G: the free rank of H^0(G, X^*)."""
    return _cohomology(t.xstar, 0).free_rank


def h0_torsion_dual(M: GaloisLattice) -> AbelianGroupInvariants:
    """#((M x Q/Z)^G) as the torsion of coker d^0, the stacked (action - id).

    Finite only in Q-rank 0; a free summand of invariants, which this op
    rejects, shows as a free rank of H^0.  The torsion of coker d^0 is also
    that of H^1, so this reads the same cached Smith invariants.
    """
    rank = _cohomology(M, 0).free_rank
    if rank:
        raise QRankError(rank)
    return AbelianGroupInvariants(0, _cohomology(M, 1).factors)


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
    return cohomology(trivial_lattice(G), 3).order


def sha_order(t: TorusSpec) -> int:
    if t.family != "norm-one":
        raise UnsupportedTorusError("knot-group description applies to the norm-one family")
    return _knot_group_order(t)


@lru_cache(maxsize=64)
def ono_constant(t: TorusSpec) -> int:
    # quotient-by-gm over a quadratic field is Q-isomorphic to the norm-one
    # torus via t -> t/s(t)
    if t.family == "norm-one" or (t.family == "quotient-by-gm"
                                  and isinstance(t.field, QuadField)):
        return _knot_group_order(t)
    raise UnsupportedTorusError(f"no Sha evaluator for {t.label}")
