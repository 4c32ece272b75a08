"""Torus families via their character lattices.

Three families over a quadratic or biquadratic field K with G = Gal(K/Q):

  res-scalars     X^* = Z[G], the regular permutation module
  norm-one        X^* = Z[G] / Z*(sum of group elements)
  quotient-by-gm  X^* = augmentation kernel I_G of Z[G]

A torus is named by the tag of its family (res, norm1, quot) and its field:
`tag:d` over Q(sqrt(d)) and `tag:d1,d2` over Q(sqrt(d1), sqrt(d2)), each d
squarefree and in ASCII decimal with an optional sign, [+-]?[0-9]+.
build_torus writes this label and parse_torus reads it; --torus takes it.

Under the G-invariant pairing <g, h> = [g = h] on Z[G], Z[G] is its own dual
(P_h^T = P_{h^{-1}}), and Z[G] / Z*(sum) is the dual of I_G: the norm-one
torus and the quotient by G_m are dual tori.  So norm-one's X^* is built as
the dual of I_G.  A torus stores X^* alone; its cocharacter lattice X_* is
xstar.dual().

K is described by the discriminants D_i of its quadratic subfields, and G
by one table of their characters chi_i(g) = +-1.  Two rules read it: the
Frobenius at an unramified p is the row equal to the Kronecker symbols
(D_i | p); the decomposition group D_v is the set of g with chi(g) = 1 for
every subfield character chi that splits at v ((D | p) = 1 at a prime p,
D > 0 at infinity), so its fixed field is the largest subfield in which v
splits completely.

Euler factors and point counts read one polynomial per Galois element g:
charpoly(g | X^*) by Faddeev-LeVerrier, once per torus.  In the dual basis
g^{-1} acts on X_* by the transpose of g on X^*, so this is also
charpoly(Fr^{-1} | X_*) when Fr = g.  At a good p of class g, its value at
p is both p^d * E_p(1) and |T(F_p)| (Ono, "Arithmetic of algebraic tori",
Ann. of Math. 74, 1961), so an euler row needs a second side that is not
this polynomial: for a torus with an affine model, the model's count of
points mod p at the first d + 1 good primes of each class that a sweep
meets.  d + 1 values pin a polynomial of degree d, so the rows of class g
check a polynomial whose values were counted.  Biquadratic tori have no
model, and their rows evaluate the polynomial alone.

The setup, once per torus, is |G| charpolys of d x d matrices (d - 1
products each, on lists of rows, no IntMatrix).  Each prime then costs a
dict lookup of its Frobenius class by its residue mod the field's
conductor (each subfield character once per residue mod its |D_i|) and
one polynomial evaluation; the first d + 1 of each class also cost one
count in O(p).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import lcm, prod
from operator import mul

from .errors import ConfigError, UnsupportedTorusError
from .exactcore import IntMatrix, Record, charpoly, eval_poly, is_prime, kronecker_symbol
from .models import COUNT_BUDGET, cached_point_count, norm_form_model, unit_group_model
from .quadfield import BiquadField, QuadField

INF = "inf"

FAMILIES = ("res-scalars", "norm-one", "quotient-by-gm")
FAMILY_TAGS = {"res-scalars": "res", "norm-one": "norm1", "quotient-by-gm": "quot"}
TAG_FAMILIES = {v: k for k, v in FAMILY_TAGS.items()}


class FiniteGroup(Record, namedtuple("FiniteGroup", "labels table")):
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
        # a product with element 0 in it holds by the identity check above
        for i in range(1, n):
            for j in range(1, n):
                for k in range(1, n):
                    if table[table[i][j]][k] != table[i][table[j][k]]:
                        raise ValueError("table is not associative")
        return super().__new__(cls, labels, table)

    @property
    def order(self) -> int:
        return len(self.labels)

    def inv(self, i: int) -> int:
        return next(j for j in range(self.order) if self.table[i][j] == 0)

    @classmethod
    def cyclic(cls, n: int) -> "FiniteGroup":
        labels = tuple("e" if i == 0 else f"g{i}" if n > 2 else "s" for i in range(n))
        table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
        return cls(labels, table)

    @classmethod
    def klein_four(cls) -> "FiniteGroup":
        table = ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))
        return cls(("e", "s1", "s2", "s3"), table)


# chi_i(g) for field.subfield_discs, keyed by their number, in the element
# numbering of FiniteGroup.cyclic(2) and klein_four()
_CHARACTERS = {
    1: ((1,), (-1,)),
    3: ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)),
}


class GaloisLattice(Record, namedtuple("GaloisLattice", "group rank mats")):
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
        # each product mats[i] * mats[j], entry by entry, from rows and
        # columns sliced once per matrix
        rows = [[m.entries[r * rank:(r + 1) * rank] for r in range(rank)] for m in mats]
        cols = [[m.entries[c::rank] for c in range(rank)] for m in mats]
        # each g has an h with g h = e, so mats[g] mats[h] = I: det(mats[g]) = +-1;
        # a product with mats[0] = I in it holds by the identity check above
        for i in range(1, group.order):
            for j in range(1, group.order):
                product = tuple([sum(map(mul, row, col)) for row in rows[i] for col in cols[j]])
                if product != mats[group.table[i][j]].entries:
                    raise ValueError("action is not a homomorphism")
        return super().__new__(cls, group, rank, mats)

    def dual(self) -> "GaloisLattice":
        """The contragredient lattice: g acts by the transpose of g^{-1}.
        Its group law is not checked again: it holds by construction, as
        rho((gh)^{-1})^T = (rho(h^{-1}) rho(g^{-1}))^T = rho(g^{-1})^T rho(h^{-1})^T."""
        G = self.group
        mats = tuple(self.mats[G.inv(g)].transpose() for g in range(G.order))
        return super().__new__(GaloisLattice, G, self.rank, mats)


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


class TorusSpec(namedtuple("TorusSpec", "family field dim xstar model label")):
    """field is a QuadField or BiquadField, xstar the GaloisLattice X^*
    (X_* is xstar.dual()), model an AffineModel or None."""

    __slots__ = ()

    @property
    def group(self) -> FiniteGroup:
        return self.xstar.group

    def splitting_disc(self) -> int:
        return prod(self.field.subfield_discs)

    def ramified_primes(self) -> tuple[int, ...]:
        return self.field.ramified_primes()

    def bad_primes(self) -> tuple[int, ...]:
        """2 and the ramified primes, checked a second way: dividing each
        subfield discriminant by every ramified prime, as often as it
        divides, must leave +-1.  A prime missing from the set leaves a
        cofactor, an internal error."""
        ramified = self.ramified_primes()
        for D in self.field.subfield_discs:
            m = D
            for p in ramified:
                while m % p == 0:
                    m //= p
            if abs(m) != 1:
                raise ArithmeticError(
                    f"the ramified primes {ramified} of {self.label} leave "
                    f"{abs(m)} of its subfield discriminant {D}")
        return tuple(sorted({2, *ramified}))


@lru_cache(maxsize=512)
def build_torus(family: str, field: QuadField | BiquadField) -> TorusSpec:
    if family not in FAMILIES:
        raise UnsupportedTorusError(f"unknown family {family!r}")
    quad = isinstance(field, QuadField)
    if not quad and not isinstance(field, BiquadField):
        raise UnsupportedTorusError(f"unsupported field descriptor {field!r}")
    group = FiniteGroup.cyclic(2) if quad else FiniteGroup.klein_four()
    if family == "res-scalars":
        xstar = GaloisLattice(group, group.order, _perm_matrices(group))
    else:
        xstar = GaloisLattice(group, group.order - 1, _aug_kernel_action(group))
        if family == "norm-one":
            xstar = xstar.dual()
    if quad:
        # over quadratic K the quotient is Q-isomorphic to norm-one via
        # t -> t/s(t), so it shares the norm-form model
        model = unit_group_model(field) if family == "res-scalars" else norm_form_model(field)
        desc = str(field.d)
    else:
        model, desc = None, f"{field.d1},{field.d2}"
    label = f"{FAMILY_TAGS[family]}:{desc}"
    return TorusSpec(family, field, xstar.rank, xstar, model, label)


def _decimal(s: str) -> int:
    """`s` as an int if it is [+-]?[0-9]+: int() alone also reads "1_3",
    " +13 " and the digits of other scripts."""
    digits = s[1:] if s[:1] in ("+", "-") else s
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"d must be ASCII decimal, not {s!r}")
    return int(s)


def parse_torus(spec: str) -> TorusSpec:
    """The torus of the label `spec`; a ConfigError if it names none."""
    try:
        tag, _, ds = spec.partition(":")
        if tag not in TAG_FAMILIES:
            raise ValueError(f"unknown family tag {tag!r}, expected one of "
                             f"{sorted(TAG_FAMILIES)}")
        parts = [_decimal(x) for x in ds.split(",")] if ds else []
        if len(parts) == 1:
            field = QuadField.from_d(parts[0])
        elif len(parts) == 2:
            field = BiquadField.from_pair(parts[0], parts[1])
        else:
            raise ValueError("expected family:d or family:d1,d2")
        return build_torus(TAG_FAMILIES[tag], field)
    except (ValueError, UnsupportedTorusError) as exc:
        raise ConfigError(f"torus: cannot parse {spec!r}: {exc}") from exc


def is_good_prime(t: TorusSpec, p: int) -> bool:
    return is_prime(p) and (2 * t.splitting_disc()) % p != 0


# each Galois element by the values of the first two subfield characters,
# which fix it: over a biquadratic field D1 D2 / D3 is the square of a
# product of ramified primes, so (D3|p) = (D1|p)(D2|p) at an unramified p
_CLASSES = {n: {row[:2]: g for g, row in enumerate(rows)} for n, rows in _CHARACTERS.items()}


@lru_cache(maxsize=4096)
def _character(D: int, r: int) -> int:
    """(D|p) for every prime p = r mod |D|, 0 < r < |D|: for a fundamental
    discriminant D, n -> (D|n) is a Dirichlet character mod |D|, so it is
    computed once per residue class."""
    return kronecker_symbol(D, r)


def _frobenius_index(field: QuadField | BiquadField, p: int) -> int:
    """Index of the Frobenius at a prime p known to be unramified in K: the
    element whose characters are the (D_i|p), each read from p mod |D_i|."""
    discs = field.subfield_discs
    # from a list: tuple() of a generator resizes its result, and each
    # call would leave a tuple on the interpreter's free list
    return _CLASSES[len(discs)][tuple([_character(D, p % abs(D)) for D in discs[:2]])]


@lru_cache(maxsize=512)
def _frobenius_polynomials(t: TorusSpec) -> tuple[tuple[int, ...], ...]:
    """For each Galois element g, charpoly(g | X^*), low degree first,
    computed once per torus."""
    return tuple(charpoly(m) for m in t.xstar.mats)


def good_euler_terms(t: TorusSpec, primes, budget: int = COUNT_BUDGET, short=None):
    """Yield (p, p^d * E_p(1), |T(F_p)|) for each p in `primes` (primes,
    unchecked) that does not divide 2 * disc.  The second value is the
    charpoly of Frobenius's class at p.  The third is the affine model's
    count of points mod p at the first d + 1 primes of each class that the
    sweep meets, where p^nvars is within `budget`, and that polynomial's
    value everywhere else.

    Frobenius's class, with its polynomial's coefficients, is looked up by
    p mod the lcm of the |D_i|, which is |D| over a quadratic field and
    lcm(|D1|, |D2|) over a biquadratic one.  A residue met for the first
    time reads each character (D_i|p) by p mod |D_i|, so each Kronecker
    symbol is computed once per residue class mod its |D_i|, and only D1's
    and D2's: their product is D3's.  This is exact: for a discriminant D,
    n -> (D|n) is a Dirichlet character mod |D|, so (D|p) = (D|q) for
    positive p = q mod |D|, and the class is a function of the (D_i|p).

    A class whose count stops short of d + 1 at the budget leaves the rows
    of its later primes on the polynomial alone: each appends (p, g, n) to
    the list `short`, if one is given, with n the counts class g lacks."""
    polys = _frobenius_polynomials(t)
    model = t.model
    # per class, how many of its primes are still to be counted
    uncounted = [0 if model is None else t.dim + 1] * len(polys)
    field = t.field
    two_disc = 2 * t.splitting_disc()
    period = lcm(*field.subfield_discs)
    by_residue = {}
    for p in primes:
        if two_disc % p == 0:
            continue
        try:
            g, coeffs = by_residue[p % period]
        except KeyError:
            g = _frobenius_index(field, p)
            g, coeffs = by_residue[p % period] = g, polys[g][::-1]
        # the class's polynomial at p by Horner's rule, high degree first,
        # inline: it saves a call of eval_poly per row
        value = 0
        for c in coeffs:
            value = value * p + c
        if value <= 0:
            raise ArithmeticError("point count must be positive")
        if uncounted[g]:
            if p ** model.nvars <= budget:
                uncounted[g] -= 1
                yield p, value, cached_point_count(model, p, 1, budget)
                continue
            if short is not None:
                short.append((p, g, uncounted[g]))
        yield p, value, value


def counting_budget(t: TorusSpec, short) -> int:
    """The least budget under which no row of `short`, as good_euler_terms
    fills it, rests on the polynomial alone: each short class counts the
    primes it lacks, or every prime of it that the sweep met."""
    need = {}
    for p, g, lacking in short:
        n = need.get(g, (0,))[0]
        if n < lacking:
            need[g] = n + 1, p
    return max(p for _, p in need.values()) ** t.model.nvars


def _class_polynomial_at(t: TorusSpec, p: int) -> int:
    """charpoly(Fr_p | X^*) at p, with no count of points."""
    if not is_good_prime(t, p):
        raise ValueError(f"p = {p} is not a good prime for {t.label}")
    return eval_poly(_frobenius_polynomials(t)[_frobenius_index(t.field, p)], p)


def euler_factor_at_one(t: TorusSpec, p: int) -> Fraction:
    """det(1 - Fr_p p^{-1} | X^* x Q), via the characteristic polynomial."""
    return Fraction(_class_polynomial_at(t, p), p ** t.dim)


def point_count_Fp(t: TorusSpec, p: int) -> int:
    """|T(F_p)| = det(p - Fr_p | X^*): the characteristic polynomial at
    p, not a count, so the density cross-check compares it with one."""
    return _class_polynomial_at(t, p)


def decomposition_subgroup(t: TorusSpec, place) -> tuple[int, ...]:
    """Element indices of the decomposition subgroup at a place (prime or
    INF), identity first: the g on which every subfield character that
    splits at the place is 1."""
    discs = t.field.subfield_discs
    split = [D > 0 if place == INF else kronecker_symbol(D, place) == 1 for D in discs]
    return tuple(g for g, row in enumerate(_CHARACTERS[len(discs)])
                 if all(c == 1 for c, s in zip(row, split) if s))
