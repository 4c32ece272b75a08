"""Integral affine models of the quadratic torus families.

Two models, both built from the norm form of the ring basis (1, w):

  norm-one:   N(x, y) = 1                        (2 vars, dim 1)
  unit-group: N(x, y) * z = 1                    (3 vars, dim 2)

The gauge form is dx/(dF/dy) (resp. with the z-chart for unit-group); only
its denominator choice matters downstream, and it is fixed here once.

Point counting mod p^k is the only numeric work; it is chunked over the
first coordinate and may fan out over threads. Chunk sums are exact ints,
so the total is independent of chunk order and of the worker count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError
from .exactcore import is_prime
from .quadfield import QuadField

COUNT_BUDGET = 10 ** 8


@dataclass(frozen=True)
class AffineModel:
    kind: str  # "norm-one" | "unit-group"
    nvars: int
    dim: int
    D: int
    base_point: tuple[int, ...]
    gauge: str

    def jacobian_at_base(self) -> tuple[int, ...]:
        D = self.D
        if self.kind == "norm-one":
            x, y = self.base_point
            return (2 * x + D * y, D * x + ((D * D - D) // 2) * y)
        x, y, z = self.base_point
        n = x * x + D * x * y + ((D * D - D) // 4) * y * y
        return ((2 * x + D * y) * z, (D * x + ((D * D - D) // 2) * y) * z, n)


def _checked(model: AffineModel) -> AffineModel:
    if all(c == 0 for c in model.jacobian_at_base()):
        raise ValueError("model is singular at its base point")
    return model


def norm_form_model(field: QuadField) -> AffineModel:
    return _checked(AffineModel("norm-one", 2, 1, field.D, (1, 0), "dx/(dF/dy)"))


def unit_group_model(field: QuadField) -> AffineModel:
    return _checked(AffineModel("unit-group", 3, 2, field.D, (1, 0, 1), "dx^dy/(dF/dz)"))


def count_points_mod(model: AffineModel, p: int, k: int, jobs: int = 1,
                     budget: int = COUNT_BUDGET) -> int:
    """Number of solutions of the model's equation mod p^k.

    norm-one: pairs (x, y) with N = 1 mod p^k.
    unit-group: triples (x, y, z) with N*z = 1; z is determined by (x, y), so
    this equals the number of pairs with N a unit mod p.
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
    nw = (D * D - D) // 4
    b = np.arange(q, dtype=np.int64)
    b_sq = (nw % q) * ((b * b) % q) % q
    b_lin = (D % q) * b % q
    want_unit = model.kind == "unit-group"
    target = 1 % q

    def work(start: int) -> int:
        a = np.arange(start, min(start + step, q), dtype=np.int64)[:, None]
        vals = ((a * a) % q + a * b_lin[None, :] + b_sq[None, :]) % q
        if want_unit:
            return int(np.count_nonzero(vals % p != 0))
        return int(np.count_nonzero(vals == target))

    step = max(1, 10 ** 7 // q)
    starts = range(0, q, step)
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as ex:
            return sum(ex.map(work, starts))
    return sum(map(work, starts))
