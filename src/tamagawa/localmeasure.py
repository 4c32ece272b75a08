"""Local p-adic densities of torus models.

Two independent routes, kept deliberately separate:

  * good primes: the closed-form density |T(F_p)| / p^d from the
    Frobenius action on cocharacters (galois module),
  * any prime: brute-force point counts of the affine model over
    Z/p^k for increasing k, with the density read off the stabilized
    ratio count / p^{k d}.

A count that fails to stabilize within the level budget raises
NotStabilizedError with the full (k, count, ratio) trace attached;
callers such as the CLI turn it into an INCONCLUSIVE row.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .errors import BudgetExceededError, NotStabilizedError, UnsupportedTorusError
from .galois import TorusSpec, is_good_prime, point_count_Fp
from .models import COUNT_BUDGET, AffineModel, count_points_mod
from .report import FAIL, INCONCLUSIVE, PASS, VerificationReport


class LocalDensity(namedtuple("LocalDensity", "p value method trace stabilized")):
    """method is "good-formula" or "brute-force"; trace is
    ((k, count, ratio), ...) for the brute-force route."""

    __slots__ = ()


def local_density_good(torus: TorusSpec, p: int) -> LocalDensity:
    """Density at a good prime from the Frobenius charpoly count."""
    if not is_good_prime(torus, p):
        raise ValueError(f"p={p} is not a good prime for {torus.label}")
    value = Fraction(point_count_Fp(torus, p), p ** torus.dim)
    return LocalDensity(p, value, "good-formula", (), True)


def max_feasible_level(model: AffineModel, p: int, budget: int = COUNT_BUDGET) -> int:
    """Largest k with p^(k * nvars) within the enumeration budget."""
    k = 0
    while p ** ((k + 1) * model.nvars) <= budget:
        k += 1
    return k


@lru_cache(maxsize=256)
def cached_point_count(model: AffineModel, p: int, k: int, budget: int) -> int:
    """`count_points_mod(model, p, k)`, counted once per process: at good
    p <= 13, `verify all` needs the same levels for its lifting rows and
    for its density cross-checks."""
    return count_points_mod(model, p, k, budget=budget)


def _stabilized_density(model, p, budget, confirm=True):
    """Raise levels until the ratio repeats (three in a row when the
    budget allows a confirming level), else raise NotStabilizedError."""
    k_cap = max_feasible_level(model, p, budget)
    if k_cap < 1:
        raise BudgetExceededError(
            f"cannot afford even k=1 at p={p} within budget {budget}"
        )
    trace = []
    for k in range(1, k_cap + 1):
        count = cached_point_count(model, p, k, budget)
        trace.append((k, count, Fraction(count, p ** (k * model.dim))))
        if (
            confirm
            and len(trace) >= 3
            and trace[-1][2] == trace[-2][2] == trace[-3][2]
        ):
            break
        if not confirm and len(trace) >= 2 and trace[-1][2] == trace[-2][2]:
            break
    if len(trace) < 2 or trace[-1][2] != trace[-2][2]:
        raise NotStabilizedError(
            f"density at p={p} did not stabilize within k <= {k_cap}",
            trace=tuple(trace),
        )
    return LocalDensity(p, trace[-1][2], "brute-force", tuple(trace), True)


@lru_cache(maxsize=64)
def bad_prime_density(
    torus: TorusSpec,
    p: int,
    budget: int = COUNT_BUDGET,
) -> LocalDensity:
    """Density at a ramified prime or p=2 by stabilized brute force.

    Cached, so `verify all` counts each bad prime once for its density
    rows and for tau; a NotStabilizedError is not cached.
    """
    if torus.model is None:
        raise UnsupportedTorusError(
            f"no affine model attached to {torus.label}; cannot count points"
        )
    if p != 2 and p not in torus.bad_primes():
        raise ValueError(f"p={p} is neither ramified nor 2 for {torus.label}")
    return _stabilized_density(torus.model, p, budget, confirm=True)


def local_density(
    torus: TorusSpec,
    p: int,
    budget: int = COUNT_BUDGET,
) -> LocalDensity:
    """Good-formula density at good primes, brute force at bad ones."""
    if is_good_prime(torus, p):
        return local_density_good(torus, p)
    return bad_prime_density(torus, p, budget=budget)


def cross_validate_density(
    torus: TorusSpec,
    p: int,
    budget: int = COUNT_BUDGET,
) -> VerificationReport:
    """Exact equality check of the two density routes at a good prime.

    Restricted to p <= 13 so the affine enumeration stays cheap enough
    to run at least two levels.
    """
    if p > 13:
        raise ValueError("brute-force cross-validation is limited to p <= 13")
    good = local_density_good(torus, p)
    if torus.model is None:
        raise UnsupportedTorusError(
            f"no affine model attached to {torus.label}; cannot count points"
        )
    inputs = {"torus": torus.label, "p": p}
    try:
        brute = _stabilized_density(torus.model, p, budget, confirm=False)
    except NotStabilizedError as exc:
        return VerificationReport(
            identity="local-density",
            inputs=inputs,
            values={"good_formula": good.value, "trace": exc.trace},
            verdict=INCONCLUSIVE,
            cause=str(exc),
        )
    values = {
        "good_formula": good.value,
        "brute_force": brute.value,
        "trace": brute.trace,
    }
    if good.value == brute.value:
        return VerificationReport("local-density", inputs, values, PASS)
    return VerificationReport(
        identity="local-density",
        inputs=inputs,
        values=values,
        verdict=FAIL,
        cause=f"good-prime formula {good.value} != brute force {brute.value}",
    )
