"""Integral group cohomology on lattices via the (non-normalized) bar complex.

C^n(G, M) = Maps(G^n, M) is coordinatized by pairs (tuple, coord) with index
tupidx*rank + coord, tuples ordered lexicographically (first entry most
significant). H^n = ker d^n / im d^{n-1} is presented by Smith normal form:
if u d^n v = diag, cocycles are the last k = cols - rank coordinates of
v^{-1} x, and the coboundary relations are the same coordinates of the
columns of d^{n-1}.

Restriction to a subgroup is the cochain selection matrix descended to these
presentations. The knot-group order (for the norm-one family) is the kernel
of the stacked restrictions of H^3(G, Z) to all decomposition subgroups.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .errors import BudgetExceededError, QRankError, UnsupportedTorusError
from .exactcore import (
    AbelianGroupInvariants,
    IntMatrix,
    in_row_lattice,
    invariants_from_relations,
    kernel_basis,
    row_lattice_index,
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


def _block_diag(mats: list[IntMatrix]) -> IntMatrix:
    nr = sum(m.rows for m in mats)
    nc = sum(m.cols for m in mats)
    rows = [[0] * nc for _ in range(nr)]
    r0 = c0 = 0
    for m in mats:
        for i in range(m.rows):
            row = m.row(i)
            for j in range(m.cols):
                rows[r0 + i][c0 + j] = row[j]
        r0 += m.rows
        c0 += m.cols
    return IntMatrix(nr, nc, tuple(x for row in rows for x in row))


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


@dataclass(frozen=True)
class _Presentation:
    """H^n as Z^k / column-span(rel), plus the SNF change of basis that maps
    cocycles to the k kernel coordinates."""

    k: int
    rel: IntMatrix
    v: IntMatrix
    vinv: IntMatrix
    r: int


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
    return _Presentation(k, rel, snf.v, snf.vinv, r)


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


@dataclass(frozen=True)
class CohomologyMap:
    """Map H^n(G, M) -> H^n(H, M) in kernel coordinates: y -> matrix.y,
    source presented by src_rel, target by tgt_rel (relations as columns)."""

    matrix: IntMatrix
    src_rel: IntMatrix
    tgt_rel: IntMatrix

    def is_zero(self) -> bool:
        tgt_rows = self.tgt_rel.transpose()
        return all(
            in_row_lattice(tgt_rows, [self.matrix.get(i, j) for i in range(self.matrix.rows)])
            for j in range(self.matrix.cols)
        )

    def kernel_order(self) -> int:
        return stacked_kernel_order([self])


def _selection_matrix(emb: tuple[int, ...], ng: int, nh: int, rank: int, n: int) -> IntMatrix:
    rows_cnt = rank * nh ** n
    cols_cnt = rank * ng ** n
    rows = [[0] * cols_cnt for _ in range(rows_cnt)]
    for tup in product(range(nh), repeat=n):
        gtup = tuple(emb[h] for h in tup)
        rbase = _tuple_index(tup, nh) * rank
        cbase = _tuple_index(gtup, ng) * rank
        for m in range(rank):
            rows[rbase + m][cbase + m] = 1
    return IntMatrix(rows_cnt, cols_cnt, tuple(x for row in rows for x in row))


def restriction(G: FiniteGroup, H, M: GaloisLattice, n: int) -> CohomologyMap:
    """Cochain restriction along a subgroup inclusion, on H^n, n >= 1."""
    if M.group != G:
        raise ValueError("lattice is not over the given group")
    if n < 1:
        raise ValueError("degree must be >= 1")
    h_idx = tuple(sorted(set(H)))
    if not G.is_subgroup(h_idx):
        raise ValueError(f"{h_idx} is not a subgroup")
    sub, emb = G.subgroup(h_idx)
    subl = M.restrict(sub, emb)
    pg = _presentation(M, n)
    ph = _presentation(subl, n)
    sel = _selection_matrix(emb, G.order, sub.order, M.rank, n)
    big = ph.vinv * sel * _submatrix(pg.v, 0, pg.v.rows, pg.r, pg.v.cols)
    if any(big.get(i, j) for i in range(ph.r) for j in range(big.cols)):
        raise ArithmeticError("restriction did not preserve cocycles")
    mat = _submatrix(big, ph.r, big.rows, 0, big.cols)
    return CohomologyMap(mat, pg.rel, ph.rel)


def group_order_from_relations(rel: IntMatrix, k: int) -> int:
    if k == 0:
        return 1
    idx = row_lattice_index(rel.transpose())
    if idx == 0:
        raise ArithmeticError("presentation has a free part")
    return idx


def stacked_kernel_order(maps: list[CohomologyMap]) -> int:
    """Order of ker(H^n(G) -> prod over maps of their targets)."""
    if not maps:
        raise ValueError("need at least one map")
    src_rel = maps[0].src_rel
    if any(m.src_rel != src_rel for m in maps):
        raise ValueError("maps have different sources")
    kg = maps[0].matrix.cols
    if kg == 0:
        return 1
    src_order = group_order_from_relations(src_rel, kg)
    big = vstack([m.matrix for m in maps])
    if big.rows == 0:
        return src_order
    rel = _block_diag([m.tgt_rel for m in maps])
    combined = IntMatrix.from_rows(
        [list(big.row(i)) + list(rel.row(i)) for i in range(big.rows)])
    ker = kernel_basis(combined)
    proj_rows = [[ker.get(i, j) for i in range(kg)] for j in range(ker.cols)]
    if not proj_rows:
        raise ArithmeticError("kernel projection is empty but source is finite")
    l_idx = row_lattice_index(IntMatrix.from_rows(proj_rows))
    if l_idx == 0 or src_order % l_idx:
        raise ArithmeticError("kernel lattice index inconsistent")
    return src_order // l_idx


def _knot_group_order(t: TorusSpec) -> int:
    """ker(H^3(G, Z) -> prod_v H^3(D_v, Z)) over ramified v, infinity, and the
    unramified places, whose decomposition groups are by Chebotarev exactly the
    cyclic subgroups of G."""
    G = t.group
    lat = trivial_lattice(G)
    subs = {decomposition_subgroup(t, INF)}
    for p in t.ramified_primes():
        subs.add(decomposition_subgroup(t, p))
    subs |= {G.subgroup_closure((g,)) for g in range(G.order)}
    maps = [restriction(G, s, lat, 3) for s in sorted(subs)]
    return stacked_kernel_order(maps)


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


def sha_bk_order(t: TorusSpec, c_gamma: int) -> int:
    if c_gamma < 1:
        raise ValueError("c_gamma must be a positive integer")
    return c_gamma * ono_constant(t)
