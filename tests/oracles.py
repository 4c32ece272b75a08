"""Reference routes the tests check the package against, kept out of the
package because no product code reads them: the Smith normal form with its
unimodular transforms, kernel bases, group cohomology in kernel coordinates,
the invariants of Z^k modulo the columns of a relation matrix
(`invariants_from_relations`), the matrix difference (`matrix_difference`)
and the vertical stack (`vstack`), class numbers from L(1, chi_D),
factorization by trial division, the Frobenius element and the decomposition
groups by cases over the field type, the good-prime density, the partial
L-value and the Tamagawa product over a larger set of places, the norm form,
the affine models' point counts mod p^k from a table of squares mod 4p^k at
every p (`count_points_mod_4m`), the matrix product from rows and columns
sliced once (`matmul`) and by the triple loop, the determinant by Bareiss
elimination (`det`) and by cofactor expansion, det(x*I - B) interpolated
from Bareiss determinants, the norm-one lattice by conjugation, and small
helpers on group tables and matrices."""

import math
from collections import namedtuple
from fractions import Fraction
from operator import add, mul as times, sub

from tamagawa.cohomology import bar_boundary
from tamagawa.exactcore import (
    AbelianGroupInvariants,
    IntMatrix,
    is_prime,
    kronecker_symbol,
)
from tamagawa.galois import INF, _perm_matrices, is_good_prime, point_count_Fp
from tamagawa.globalasm import archimedean_volume, l_value, torsion_unit_order
from tamagawa.localmeasure import LocalDensity, bad_prime_density
from tamagawa.quadfield import QuadField, fundamental_unit, is_fundamental_discriminant
from tamagawa.report import Real


class SnfResult(namedtuple("SnfResult", "d u v vinv")):
    """u * m * v == diag(d), with d_i | d_{i+1} and d_i >= 0; vinv is the
    inverse of v."""

    __slots__ = ()

    @property
    def rank(self) -> int:
        return sum(1 for x in self.d if x)


def snf_with_transforms(m: IntMatrix) -> SnfResult:
    """SNF by unimodular row/column operations, each recorded in u, v and
    v^-1.

    Pivot choice: minimal absolute value among nonzero entries of the working
    submatrix, ties broken row-major. Deterministic for a given input.
    """
    nr, nc = m.rows, m.cols
    a = rows(m)
    u = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    v = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]
    vinv = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]

    def row_sub(i, j, q):
        # R_i -= q * R_j
        ai, aj = a[i], a[j]
        for t in range(nc):
            ai[t] -= q * aj[t]
        ui, uj = u[i], u[j]
        for t in range(nr):
            ui[t] -= q * uj[t]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def row_neg(i):
        a[i] = [-x for x in a[i]]
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
    umat = IntMatrix.from_rows(u) if nr else IntMatrix(0, 0, ())
    vmat = IntMatrix.from_rows(v) if nc else IntMatrix(0, 0, ())
    vinvmat = IntMatrix.from_rows(vinv) if nc else IntMatrix(0, 0, ())
    return SnfResult(d, umat, vmat, vinvmat)


def kernel_basis(m: IntMatrix) -> IntMatrix:
    """Basis of {x in Z^cols : m @ x == 0} as the columns of the result: the
    last cols - rank columns of v."""
    snf = snf_with_transforms(m)
    r, nc = snf.rank, m.cols
    return IntMatrix(nc, nc - r, tuple(entry(snf.v, i, j) for i in range(nc) for j in range(r, nc)))


def cohomology_in_kernel_coordinates(lattice, n: int) -> AbelianGroupInvariants:
    """H^n(G, M) as Z^k / column-span(rel): if u d^n v = diag, the cocycles
    are the last k = cols - rank coordinates of v^-1 x, and the coboundary
    relations are the same coordinates of the columns of d^{n-1}."""
    dn = bar_boundary(lattice, n)
    snf = snf_with_transforms(dn)
    r = snf.rank
    k = dn.cols - r
    if n == 0:
        return AbelianGroupInvariants(k, ())
    proj = matmul(snf.vinv, bar_boundary(lattice, n - 1))
    assert not any(proj.entries[:r * proj.cols]), "d o d != 0 in kernel coordinates"
    return invariants_from_relations(k, IntMatrix(k, proj.cols, proj.entries[r * proj.cols:]))


def apply(m: IntMatrix, vec) -> tuple[int, ...]:
    """Matrix times column vector."""
    if len(vec) != m.cols:
        raise ValueError("vector length mismatch")
    return tuple(sum(m.row(i)[j] * vec[j] for j in range(m.cols)) for i in range(m.rows))


def entry(m: IntMatrix, i: int, j: int) -> int:
    """The entry of m in row i and column j."""
    return m.entries[i * m.cols + j]


def rows(m: IntMatrix) -> list[list[int]]:
    """The rows of m, as lists."""
    return [list(m.row(i)) for i in range(m.rows)]


def zeros(nr: int, nc: int) -> IntMatrix:
    return IntMatrix(nr, nc, (0,) * (nr * nc))


def scalar(n: int, x: int) -> IntMatrix:
    """x times the n x n identity."""
    return IntMatrix(n, n, tuple(x if i == j else 0 for i in range(n) for j in range(n)))


def matrix_sum(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ValueError("shape mismatch")
    return IntMatrix(a.rows, a.cols, tuple(map(add, a.entries, b.entries)))


def matrix_difference(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ValueError("shape mismatch")
    return IntMatrix(a.rows, a.cols, tuple(map(sub, a.entries, b.entries)))


def vstack(mats) -> IntMatrix:
    mats = list(mats)
    if not mats:
        raise ValueError("vstack of nothing")
    nc = mats[0].cols
    if any(m.cols != nc for m in mats):
        raise ValueError("column mismatch")
    flat = tuple(x for m in mats for x in m.entries)
    return IntMatrix(sum(m.rows for m in mats), nc, flat)


def invariants_from_relations(ambient_rank: int, relations: IntMatrix) -> AbelianGroupInvariants:
    """Invariants of Z^ambient_rank / column-span(relations), from the
    transform-tracking SNF, so that no route here shares the package's."""
    if relations.rows != ambient_rank:
        raise ValueError("relation matrix must have ambient_rank rows")
    if relations.cols == 0:
        return AbelianGroupInvariants(ambient_rank, ())
    nonzero = [x for x in snf_with_transforms(relations).d if x]
    return AbelianGroupInvariants(ambient_rank - len(nonzero), tuple(x for x in nonzero if x > 1))


def interpolated_det_poly(b: IntMatrix) -> tuple[int, ...]:
    """Coefficients of det(x*I - b), low degree first, interpolated exactly
    from its Bareiss values at x = 0..n (Newton's forward differences).

    The k-th difference over k! is the coefficient of x(x-1)...(x-k+1).
    Monomials and these falling factorials are related by integer
    unitriangular matrices (Stirling numbers of both kinds), so the
    polynomial has integer coefficients if and only if every k! divides
    its k-th difference: the sums stay in integers."""
    n = b.rows
    diffs = [det(matrix_difference(scalar(n, x), b)) for x in range(n + 1)]
    coeffs = [0] * (n + 1)
    basis = [1]  # x(x-1)...(x-k+1), low degree first
    for k in range(n + 1):
        lead, rem = divmod(diffs[0], math.factorial(k))
        if rem:
            raise ArithmeticError("det(x*I - B) interpolates to non-integer coefficients: "
                                  f"forward difference {k} is {diffs[0]}, "
                                  f"not a multiple of {math.factorial(k)}")
        for i, c in enumerate(basis):
            coeffs[i] += lead * c
        diffs = [hi - lo for lo, hi in zip(diffs, diffs[1:])]
        basis = [(basis[i - 1] if i else 0) - k * (basis[i] if i < len(basis) else 0)
                 for i in range(len(basis) + 1)]
    return tuple(coeffs)


def matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """a * b, each entry a dot product of a row of a with a column of b,
    both sliced once."""
    if a.cols != b.rows:
        raise ValueError("shape mismatch in product")
    n, m, k = a.rows, b.cols, a.cols
    a_rows = [a.entries[i * k:(i + 1) * k] for i in range(n)]
    b_cols = [b.entries[j::m] for j in range(m)]
    return IntMatrix(n, m, tuple([sum(map(times, row, col)) for row in a_rows for col in b_cols]))


def det(m: IntMatrix) -> int:
    """Determinant by fraction-free Bareiss elimination."""
    if m.rows != m.cols:
        raise ValueError("det of non-square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = rows(m)
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
        rowk = a[k]
        for i in range(k + 1, n):
            rowi = a[i]
            aik = rowi[k]
            for j in range(k + 1, n):
                rowi[j] = (rowi[j] * pivot - aik * rowk[j]) // prev
            rowi[k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def det_by_cofactors(rows) -> int:
    """Determinant of a square list of rows by Laplace expansion along the
    first row: no division, no pivoting, n! terms."""
    if not rows:
        return 1
    return sum((-1) ** j * x * det_by_cofactors([r[:j] + r[j + 1:] for r in rows[1:]])
               for j, x in enumerate(rows[0]) if x)


def matmul_naive(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """a * b by the triple loop over rows, columns and the inner index."""
    if a.cols != b.rows:
        raise ValueError("shape mismatch in product")
    return IntMatrix(a.rows, b.cols, tuple(
        sum(entry(a, i, t) * entry(b, t, j) for t in range(a.cols))
        for i in range(a.rows) for j in range(b.cols)))


def norm_one_action_by_conjugation(group) -> tuple[IntMatrix, ...]:
    """The action on Z[G] / Z*(sum of group elements), coordinatized through
    the unimodular change of basis U = (e_0; e_1 - e_0; ...; e_{n-1} -
    e_{n-2}), whose inverse is the all-ones lower triangle: the sum vector
    becomes the first coordinate, and the quotient action is the lower-right
    block of U P_h U^{-1}."""
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
        conj = matmul(matmul(u, p), uinv)
        assert all(entry(conj, i, 0) == (1 if i == 0 else 0) for i in range(n)), \
            "sum vector is not fixed by the action"
        out.append(IntMatrix.from_rows([[entry(conj, i, j) for j in range(1, n)]
                                        for i in range(1, n)]))
    return tuple(out)


def mul(G, i: int, j: int) -> int:
    return G.table[i][j]


def element_order(G, i: int) -> int:
    o, x = 1, i
    while x != 0:
        x = G.table[x][i]
        o += 1
    return o


def subgroup_closure(G, gens) -> tuple[int, ...]:
    elems = {0}
    frontier = set(gens) | {0}
    while frontier:
        nxt = {G.table[a][b] for a in frontier | elems for b in frontier | elems}
        frontier = nxt - elems
        elems |= nxt
    return tuple(sorted(elems))


def is_cyclic_subset(G, indices) -> bool:
    s = set(indices)
    return any(set(_powers(G, g)) == s for g in s)


def _powers(G, g: int):
    out, x = [0], G.table[0][g]
    while x != 0:
        out.append(x)
        x = G.table[x][g]
    return out


def factorize_by_trial_division(n: int) -> dict[int, int]:
    """Prime factorization of |n| by trial division up to the square root of
    the cofactor, which is tested for primality each time it changes."""
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
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
                fresh = True
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def norm(field: QuadField, a: int, b: int) -> int:
    """N(a + b*w) for the ring basis (1, w) of the field's integers."""
    D = field.D
    return a * a + D * a * b + ((D * D - D) // 4) * b * b


def count_points_mod_4m(model, p: int, k: int) -> int:
    """`count_points_mod` with no budget and no fold: every fibre counted
    as #{u mod 2m : u^2 = Dy^2 + 4c mod 4m}, the route valid at every p,
    where the package counts mod m itself at odd p."""
    q = p ** k

    def fibre_sum(m, c):
        n = 4 * m
        table = [0] * n
        for u in range(2 * m):
            table[u * u % n] += 1
        return sum(table[(model.D * y * y + 4 * c) % n] for y in range(m))

    if model.kind == "unit-group":
        return q * q - (q // p) ** 2 * fibre_sum(p, 0)
    return fibre_sum(q, 1)


_BIQUAD_FROBENIUS = {(1, 1): 0, (1, -1): 1, (-1, 1): 2, (-1, -1): 3}


def frobenius_index_by_cases(field, p: int) -> int:
    """Index of the Frobenius at a prime p unramified in K, from (D|p) over
    a quadratic field and ((D1|p), (D2|p)) over a biquadratic one."""
    if isinstance(field, QuadField):
        return 0 if kronecker_symbol(field.D, p) == 1 else 1
    return _BIQUAD_FROBENIUS[kronecker_symbol(field.D1, p), kronecker_symbol(field.D2, p)]


def decomposition_subgroup_by_cases(t, place) -> tuple[int, ...]:
    """The decomposition subgroup at a place, identity first, by cases: the
    field type, infinity or a prime, and over a biquadratic field whether p
    is unramified, ramified with one unramified subfield in which it splits,
    or neither."""
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
    chis = [kronecker_symbol(D, place) for D in field.subfield_discs]
    if all(chis):
        g = frobenius_index_by_cases(field, place)
        return (0,) if g == 0 else (0, g)
    unram = [i for i, c in enumerate(chis) if c != 0]
    if len(unram) == 1 and chis[unram[0]] == 1:
        return (0, 1 + unram[0])
    return (0, 1, 2, 3)


def frobenius_element(t, p: int) -> int:
    """Index of the Frobenius at an unramified prime in Gal(K/Q), by cases;
    a ValueError at a non-prime or a ramified p."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    field = t.field
    if any(kronecker_symbol(D, p) == 0 for D in field.subfield_discs):
        raise ValueError(f"p = {p} is ramified")
    return frobenius_index_by_cases(field, p)


def local_density_good(torus, p: int) -> LocalDensity:
    """Density at a good prime from the Frobenius charpoly count."""
    if not is_good_prime(torus, p):
        raise ValueError(f"p={p} is not a good prime for {torus.label}")
    return LocalDensity(Fraction(point_count_Fp(torus, p), p ** torus.dim), ())


def partial_l_value(torus, finite) -> Real:
    """L_S(1) over S = the infinite place and the primes in `finite`: the
    L-value with their Euler factors removed, scaled as the tnc row scales
    it."""
    D = torus.field.D
    lv = l_value(D)
    fac = float(math.prod(1 - Fraction(kronecker_symbol(D, p), p) for p in finite))
    return Real(lv.value * fac, lv.abs_err * fac)


def tau_over(torus, extra) -> Real:
    """L_S(1)^-1 * prod_{p in S} dens_p * vol over S = the infinite place,
    the bad primes and the primes in `extra`: the densities at good p by
    the Frobenius count, at bad p by brute force.  The float operations and
    the error bound are those of the tnc row, so with no extra primes this
    is tau_tam / c_gamma to the bit."""
    s_finite = sorted({*torus.bad_primes(), *extra})
    dens_prod = Fraction(1)
    for p in s_finite:
        route = local_density_good if is_good_prime(torus, p) else bad_prime_density
        dens_prod *= route(torus, p).value
    l_s = partial_l_value(torus, s_finite)
    vol = archimedean_volume(torus)
    value = float(dens_prod) * vol.value / l_s.value
    err = (
        abs(value) * (l_s.abs_err / l_s.value)
        + float(dens_prod) * vol.abs_err / l_s.value
        + 1e-14 * abs(value)
    )
    return Real(value, err)


def analytic_class_number(D: int) -> int:
    """Class number from L(1, chi_D): the Dirichlet formula with the
    torsion correction (w = 4, 6 at D = -4, -3), or the regulator
    quotient for real fields.  Independent of the form enumeration."""
    if not is_fundamental_discriminant(D):
        raise ValueError(f"{D} is not a fundamental discriminant")
    lv = l_value(D)
    if D < 0:
        w = torsion_unit_order(QuadField(D if D % 4 == 1 else D // 4, D))
        h_float = w * lv.value * math.sqrt(abs(D)) / (2.0 * math.pi)
    else:
        reg = fundamental_unit(D).regulator
        h_float = lv.value * math.sqrt(D) / (2.0 * reg)
    h = round(h_float)
    if h < 1 or abs(h_float - h) > 1e-3:
        raise ArithmeticError(f"analytic class number {h_float} is not near an integer")
    return h
