"""Integral affine models of the quadratic torus families.

Two models, both built from the norm form of the ring basis (1, w):

  norm-one:   N(x, y) = 1                        (2 vars, dim 1)
  unit-group: N(x, y) * z = 1                    (3 vars, dim 2)

The local density lim count(p^k) / p^(k*dim) that localmeasure reads off
these counts is the volume of the model's Z_p-points under the gauge form
dx/(dF/dy) (resp. dx^dy/(dF/dz) for unit-group); no code builds the form.

Point counting mod p^k is the only numeric work: one pass over the fibres
y in Z/p^k, each counted from a table of squares mod p^k at odd p and mod
2^(k+2) at p = 2 (count_points_mod proves the fibre formulas).
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .errors import BudgetExceededError
from .exactcore import is_prime
from .quadfield import QuadField

COUNT_BUDGET = 10 ** 8


class AffineModel(namedtuple("AffineModel", "kind nvars dim D")):
    """kind is "norm-one" or "unit-group"."""

    __slots__ = ()


def norm_form_model(field: QuadField) -> AffineModel:
    return AffineModel("norm-one", 2, 1, field.D)


def unit_group_model(field: QuadField) -> AffineModel:
    return AffineModel("unit-group", 3, 2, field.D)


def count_points_mod(model: AffineModel, p: int, k: int,
                     budget: int = COUNT_BUDGET) -> int:
    """Number of solutions of the model's equation mod q = p^k.

    norm-one: pairs (x, y) with N = 1 mod q.
    unit-group: triples (x, y, z) with N*z = 1; z is determined by (x, y), so
    this equals the number of pairs with N a unit mod p.

    Counted fibre by fibre over y, in O(q).  With u = 2x + Dy,
    4N(x, y) = u^2 - Dy^2, so for any modulus m and integers y, c

        #{x mod m : N(x, y) = c mod m} = #{u mod 2m : u^2 = Dy^2 + 4c mod 4m}.

    Proof: N = c mod m iff 4N = 4c mod 4m iff u^2 = Dy^2 + 4c mod 4m.  The
    map x -> 2x + Dy is a bijection from Z/m onto the u mod 2m with
    u = Dy mod 2, and u^2 mod 4m depends only on u mod 2m.  Every u with
    u^2 = Dy^2 mod 2 has u = Dy mod 2, since u^2 = u and y^2 = y mod 2, so
    no u is counted outside the image.  This holds for every p, 2 included.

    For odd m, which is every m = p^k with p odd, the same holds mod m:

        #{x mod m : N(x, y) = c mod m} = #{u mod m : u^2 = Dy^2 + 4c mod m}.

    Proof: 2 and 4 are units mod m, so N = c mod m iff 4N = 4c mod m iff
    u^2 = Dy^2 + 4c mod m, and x -> 2x + Dy is a bijection of Z/m.

    So let (n, s) = (m, m) for odd m and (4m, 2m) for even m, and
    T_m[r] = #{u mod s : u^2 = r mod n}: the norm-one fibre over y has
    T_q[(Dy^2 + 4) mod n] points.  For the unit-group model, whether
    p | N depends only on (x, y) mod p, so the fibre over y has
    q - (q/p) * T_p[Dy^2 mod n] points with N a unit, n taken at m = p.
    T_p[Dy^2 mod n] counts x mod p, so it depends only on y mod p; each
    residue mod p has q/p lifts mod q, so its sum over y mod q is q/p
    times its sum over y mod p: O(p), not O(q).

    Both sums fold in half under negation: u and s - u have the same square
    mod n, and y and m - y the same fibre (it depends only on y mod m, and
    y^2 = (-y)^2).  So each runs over 0..t/2 for t = s (u) or t = m (y),
    with weight 2 except at the fixed points of x -> -x on Z/t: 0, and t/2
    when t is even.  One list of u^2 mod n for u in 0..s/2 serves both
    sweeps: it fills T_m, and since m/2 <= s/2 its first m/2 + 1 entries
    are the y^2 mod n that the fibre sweep reads.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if k < 1:
        raise ValueError("k must be >= 1")
    # p >= 2, so p^e > budget once e reaches budget's bit length: no power
    # that large is built
    e = k * model.nvars
    if e >= budget.bit_length() or p ** e > budget:
        raise BudgetExceededError(f"p^(k*vars) = {p}^{e} exceeds budget {budget}")
    q = p ** k
    D = model.D

    def fibre_sum(m: int, c: int) -> int:
        """Sum over y in Z/m of T_m[(Dy^2 + 4c) mod n]."""
        even = m % 2 == 0  # s is even exactly when m is
        n, s = (4 * m, 2 * m) if even else (m, m)
        squares = [u * u % n for u in range(s // 2 + 1)]
        table = [0] * n
        for r in squares:
            table[r] += 2
        table[0] -= 1
        if even:
            table[squares[-1]] -= 1
        shift = 4 * c
        half = [table[(D * r + shift) % n] for r in squares[:m // 2 + 1]]
        total = 2 * sum(half) - half[0]
        return total - half[-1] if even else total

    if model.kind == "unit-group":
        return q * q - (q // p) ** 2 * fibre_sum(p, 0)
    return fibre_sum(q, 1)


@lru_cache(maxsize=256)
def cached_point_count(model: AffineModel, p: int, k: int, budget: int) -> int:
    """`count_points_mod(model, p, k)`, counted once per process: `verify
    all` reads the same levels for its euler rows and its tnc row's good
    factors (k = 1 at good p), its lifting rows and its density
    cross-checks (good p <= 13), and its density rows and tau (bad p).
    Callers pass all four arguments by position, so one level is one key."""
    return count_points_mod(model, p, k, budget=budget)
