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

from .errors import BudgetExceededError, NotStabilizedError, UnsupportedTorusError
from .galois import TorusSpec, is_good_prime, point_count_Fp
from .models import COUNT_BUDGET, AffineModel, cached_point_count
from .report import FAIL, INCONCLUSIVE, PASS, VerificationReport


# the largest good prime at which the brute-force route cross-checks the
# closed form: the affine enumeration stays cheap enough for two levels
CROSS_CHECK_PMAX = 13


class LocalDensity(namedtuple("LocalDensity", "value trace")):
    """trace is ((k, count, ratio), ...), the levels of the brute-force
    route."""

    __slots__ = ()


def affine_model(torus: TorusSpec) -> AffineModel:
    """The torus's affine model; UnsupportedTorusError if it has none."""
    if torus.model is None:
        raise UnsupportedTorusError(
            f"no affine model attached to {torus.label}; cannot count points"
        )
    return torus.model


def level_counts(model: AffineModel, p: int, budget: int = COUNT_BUDGET):
    """(k, count mod p^k) for k = 1, 2, ... while p^(k * nvars) <= budget:
    the levels the enumeration budget admits, each counted once."""
    k = 1
    while p ** (k * model.nvars) <= budget:
        yield k, cached_point_count(model, p, k, budget)
        k += 1


def _stabilized_density(model, p, budget, repeats):
    """Climb the level ladder until `repeats` ratios in a row agree; if the
    ladder ends first, accept its last two ratios if they agree, else raise
    NotStabilizedError."""
    trace = []
    for k, count in level_counts(model, p, budget):
        ratio = Fraction(count, p ** (k * model.dim))
        trace.append((k, count, ratio))
        if len(trace) >= repeats and all(r == ratio for _, _, r in trace[-repeats:]):
            break
    if not trace:
        raise BudgetExceededError(
            f"cannot afford even k=1 at p={p} within budget {budget}"
        )
    if len(trace) < 2 or trace[-1][2] != trace[-2][2]:
        raise NotStabilizedError(
            f"density at p={p} did not stabilize within k <= {len(trace)}",
            trace=tuple(trace),
        )
    return LocalDensity(trace[-1][2], tuple(trace))


def bad_prime_density(
    torus: TorusSpec,
    p: int,
    budget: int = COUNT_BUDGET,
) -> LocalDensity:
    """Density at a ramified prime or p=2 by stabilized brute force: three
    equal ratios in a row, or two at the top of the level ladder."""
    model = affine_model(torus)
    if p not in torus.bad_primes():
        raise ValueError(f"p={p} is neither ramified nor 2 for {torus.label}")
    return _stabilized_density(model, p, budget, 3)


def cross_validate_density(
    torus: TorusSpec,
    p: int,
    budget: int = COUNT_BUDGET,
) -> VerificationReport:
    """Exact equality check of the two density routes at a good prime
    p <= CROSS_CHECK_PMAX."""
    if p > CROSS_CHECK_PMAX:
        raise ValueError(f"brute-force cross-validation is limited to p <= {CROSS_CHECK_PMAX}")
    if not is_good_prime(torus, p):
        raise ValueError(f"p={p} is not a good prime for {torus.label}")
    good = Fraction(point_count_Fp(torus, p), p ** torus.dim)
    model = affine_model(torus)
    inputs = {"torus": torus.label, "p": p}
    try:
        brute = _stabilized_density(model, p, budget, 2)
    except NotStabilizedError as exc:
        return VerificationReport(
            identity="local-density",
            inputs=inputs,
            values={"good_formula": good, "trace": exc.trace},
            verdict=INCONCLUSIVE,
            cause=str(exc),
        )
    values = {
        "good_formula": good,
        "brute_force": brute.value,
        "trace": brute.trace,
    }
    if good == brute.value:
        return VerificationReport("local-density", inputs, values, PASS)
    return VerificationReport(
        identity="local-density",
        inputs=inputs,
        values=values,
        verdict=FAIL,
        cause=f"good-prime formula {good} != brute force {brute.value}",
    )
