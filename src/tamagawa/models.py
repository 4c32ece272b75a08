"""Integral affine models of the quadratic torus families.

Two models, both built from the norm form of the ring basis (1, w):

  norm-one:   N(x, y) = 1                        (2 vars, dim 1)
  unit-group: N(x, y) * z = 1                    (3 vars, dim 2)

The local density lim count(p^k) / p^(k*dim) that localmeasure reads off
these counts is the volume of the model's Z_p-points under the gauge form
dx/(dF/dy) (resp. dx^dy/(dF/dz) for unit-group); no code builds the form.

Point counting mod p^k is the only numeric work: one pass over the fibres
y in Z/p^k, each counted from a table of squares (count_points_mod proves
the fibre formula).
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

    So with T_m[r] = #{u mod 2m : u^2 = r mod 4m}, the norm-one fibre over
    y has T_q[(Dy^2 + 4) mod 4q] points.  For the unit-group model, whether
    p | N depends only on (x, y) mod p, so the fibre over y has
    q - (q/p) * T_p[Dy^2 mod 4p] points with N a unit.  T_p[Dy^2 mod 4p]
    counts x mod p, so it depends only on y mod p; each residue mod p has
    q/p lifts mod q, so its sum over y mod q is q/p times its sum over
    y mod p: O(p), not O(q).

    Both sums fold in half under negation: u and 2m - u have the same square
    mod 4m, and y and m - y the same fibre (it depends only on y mod m, and
    y^2 = (-y)^2).  So each runs over 0..s/2 for s = 2m (u) or s = m (y),
    with weight 2 except at the fixed points of x -> -x on Z/s: 0, and s/2
    when s is even.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if k < 1:
        raise ValueError("k must be >= 1")
    if p ** (k * model.nvars) > budget:
        raise BudgetExceededError(
            f"p^(k*vars) = {p ** (k * model.nvars)} exceeds budget {budget}")
    q = p ** k
    D = model.D

    def fibre_sum(m: int, c: int) -> int:
        """Sum over y in Z/m of T_m[(Dy^2 + 4c) mod 4m]."""
        n = 4 * m
        table = [0] * n
        for u in range(m + 1):
            table[u * u % n] += 2
        table[0] -= 1
        table[m * m % n] -= 1
        half = [table[(D * y * y + 4 * c) % n] for y in range(m // 2 + 1)]
        total = 2 * sum(half) - half[0]
        return total - half[-1] if m % 2 == 0 else total

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
