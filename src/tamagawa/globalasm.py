"""Global assembly: archimedean volumes, L-values, the class-group
constant c_gamma (exact, by genus theory from the narrow class number),
and the tnc row that checks the Tamagawa number against Ono's prediction.

Everything rational stays a Fraction until the final assembly; the only
floating-point inputs are the archimedean volume and L(1, chi_D), both in
closed form with error bounds that count every float rounding.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .cohomology import cohomology, h0_torsion_dual, ono_constant, q_rank
from .errors import (
    ConfigError,
    NotStabilizedError,
    QRankError,
    UnsupportedTorusError,
)
from .exactcore import kronecker_symbol, primes_up_to
from .galois import TorusSpec, good_euler_terms
from .localmeasure import bad_prime_density
from .models import COUNT_BUDGET
from .quadfield import (
    QuadField,
    class_group,
    is_fundamental_discriminant,
    norm_one_unit,
)
from .report import FAIL, INCONCLUSIVE, PASS, Real, VerificationReport

GOOD_FACTOR_BOUND = 97


# ---------------------------------------------------------------------------
# archimedean volume


class ArchVolume(namedtuple("ArchVolume", "value abs_err evaluations")):
    """evaluations is always 0 (closed forms); perfbench/tracing.py reads it."""

    __slots__ = ()


def torsion_unit_order(field: QuadField) -> int:
    """Order w of the group of roots of unity of the field: 6 for Q(sqrt(-3)),
    4 for Q(i), 2 otherwise."""
    return 6 if field.D == -3 else 4 if field.D == -4 else 2


def archimedean_volume(torus: TorusSpec) -> ArchVolume:
    """Volume of T(R)/T(Z) for the invariant 1-form, in closed form:
    2*pi/(w*sqrt|D|) for D < 0, log(lambda)/sqrt(D) for D > 0, with w the
    number of roots of unity and lambda the least norm-one unit > 1.

    T is the conic F(x, y) = N(x + y*omega) = x^2 + D*x*y + (D^2 - D)/4*y^2
    = 1, omega = (D + sqrt(D))/2, and its invariant form is dx/F_y (Weil,
    Adeles and Algebraic Groups, ch. 2).  In u = x + D*y/2, v = sqrt|D|*y/2
    the conic is u^2 + v^2 = 1 (D < 0) or u^2 - v^2 = 1 (D > 0), and
    F_y = D*u + sqrt|D|*v, resp. D*u - sqrt(D)*v.

    D < 0: theta -> (x, y) = (cos theta - (D/sqrt|D|) sin theta,
    2 sin theta/sqrt|D|) is (u, v) = (cos theta, sin theta).  As
    D/sqrt|D| = -sqrt|D|, dx/dtheta = sqrt|D| cos theta - sin theta and
    F_y = -sqrt|D| (sqrt|D| cos theta - sin theta), so
    dx/F_y = -dtheta/sqrt|D|: T(R) has volume 2*pi/sqrt|D|, and T(Z), the
    w roots of unity, acts freely on it.

    D > 0: t -> u + v = t, u - v = 1/t, i.e. y = (t - 1/t)/sqrt(D) and
    x = (t + 1/t - D*y)/2, is the identity component, and t is the image of
    x + y*omega under the embedding with sqrt(D) > 0, so T(Z) = +-lambda^Z
    acts by t -> +-lambda*t and [1, lambda) is a fundamental domain.  With
    E = sqrt(D) (t + 1/t) - (t - 1/t) > 0, dx/dt = -E/(2t) and
    F_y = sqrt(D) E/2, so dx/F_y = -dt/(t sqrt(D)), with integral
    log(lambda)/sqrt(D) over [1, lambda].

    abs_err counts the float roundings, each at most u = 2^-53 relative
    (libm's log, at most 1 ulp, is 2u); u*|value| is below 1 ulp of value:

    - D < 0: math.pi is 0.35u off pi; sqrt, w*sqrt (exact for w = 2, 4)
      and the division round once each, and float(|D|) at most once, which
      sqrt halves: under 4u relative, bounded by 8 ulps.
    - D > 0: norm_one_unit(D).regulator computes log(lambda) as
      log(hx) + log(g), with hx = lambda + 1/lambda >= 3 and
      g = (1 + sqrt(1 - 4/hx^2))/2 in (0.87, 1).  Python's log of the int
      hx is off by at most 3u + 4.1u*log(hx); log(g) by 2.3u, as 4/hx^2 is
      correctly rounded and three roundings and the log follow; the sum
      rounds once.  log(hx) <= 1.15 log(lambda) and log(lambda) >=
      log((3 + sqrt 5)/2) > 0.96 make that 11.2u relative, and sqrt(D) and
      the division add 2u: 13.2u, bounded by 16 ulps.
    """
    if not isinstance(torus.field, QuadField):
        raise UnsupportedTorusError("archimedean volume needs a quadratic field")
    if torus.family not in ("norm-one", "quotient-by-gm"):
        raise UnsupportedTorusError(f"no volume normalization for {torus.family}")
    D = torus.field.D
    if D < 0:
        w = torsion_unit_order(torus.field)
        value = 2.0 * math.pi / (w * math.sqrt(-D))
        return ArchVolume(value, 8 * math.ulp(value), 0)
    value = norm_one_unit(D).regulator / math.sqrt(D)
    return ArchVolume(value, 16 * math.ulp(value), 0)


# ---------------------------------------------------------------------------
# L-values


def l_value(D: int) -> Real:
    """L(1, chi_D) by its closed-form character sum, with abs_err a count
    of the float roundings (u = 2^-53; libm's sin and log, at most 1 ulp,
    are 2u relative)."""
    if not is_fundamental_discriminant(D):
        raise ValueError(f"{D} is not a fundamental discriminant")
    m = abs(D)
    if D < 0:
        s = sum(a * kronecker_symbol(D, a) for a in range(1, m))
        value = -math.pi * s / (m * math.sqrt(m))
        # math.pi is 3.9e-17 off pi, relative; pi*s, sqrt, m*sqrt and the
        # division round by 2^-53 each (m and s convert exactly): 4.83e-16
        abs_err = 4.9e-16 * abs(value)
        return Real(value, abs_err)
    # L = -(1/sqrt m) sum_{0<a<m} chi(a) log sin(pi a/m), and chi(m - a) =
    # chi(a) as chi(-1) = +1, so L = -(2/sqrt m) S with S the sum of
    # t_a = chi(a) log sin(x_a), x_a = pi a/m, over 0 < a < m/2.  There
    # x_a < pi/2, so 0 <= x cot x <= 1.  Per term with chi(a) != 0:
    # - math.pi is 0.352u off pi and pi*a and /m round once each (a and m
    #   convert exactly): x_a carries 2.352u relative, which sin passes on
    #   scaled by x cot x <= 1; sin's own ulp adds 2u: 4.352u relative;
    # - log turns that into 4.352u absolute, plus its own ulp, 2u |t_a|:
    #   4.36u + 2u |t_a| with the second-order terms.
    # fsum is correctly rounded: u |S|.  sqrt(m) and the division add 2u
    # relative, -2.0*S is exact.  The constants below are rounded up, which
    # also covers |t_a| against its computed value and the float
    # evaluation of the bound itself.
    terms = [
        chi * math.log(math.sin(math.pi * a / m))
        for a in range(1, (m + 1) // 2)
        if (chi := kronecker_symbol(D, a))
    ]
    s = math.fsum(terms)
    root = math.sqrt(m)
    value = -2.0 * s / root
    u = 2.0**-53
    sum_err = u * (4.4 * len(terms) + 2.1 * math.fsum(map(abs, terms)) + 1.1 * abs(s))
    abs_err = 2.0 * sum_err / root + 2.1 * u * abs(value)
    return Real(value, abs_err)


# ---------------------------------------------------------------------------
# c_gamma: the class-group constant


class CGammaResult(namedtuple("CGammaResult", "value trace")):
    """trace is always (), as every route below is exact;
    perfbench/tracing.py reads it."""

    __slots__ = ()


@lru_cache(maxsize=64)
def c_gamma(torus: TorusSpec) -> CGammaResult:
    """The class-group constant of the torus, exact, computed once per torus.

    res-scalars over an imaginary field: the class number h.

    norm-one over Q(sqrt(d)), and quotient-by-gm, which is Q-isomorphic to
    it: |(Cl+)^2| = h+ / 2^(t-1), with h+ the narrow class number and t the
    number of ramified primes (Ono, Ann. of Math. 78, 1963).  The constant
    is the index in Z^split, over the split primes p in a set S of primes
    that contains the ramified ones, of the relation lattice of vectors
    (v_P(alpha) - v_Pbar(alpha))_p, alpha running over the elements whose
    norm is supported on S and P a fixed prime above p.  That lattice is
    the kernel of phi: Z^split -> Cl+/Cl+[2], e_p -> [P]:

    - alpha/alphabar = alpha^2/N(alpha) is totally positive up to sign, so
      prod P^(2 n_p) / p^(n_p) = (alpha/alphabar) is trivial in Cl+: the
      lattice lies in ker phi.
    - If a = prod P^(n_p) has [a] in Cl+[2], then a^2 = (beta) with beta
      totally positive, and a/abar = (gamma) with gamma = beta/N(a) of
      norm 1.  Hilbert 90 gives gamma = alpha/alphabar, and alpha divided
      by a rational number has norm supported on S and vector n.

    So the index is the order of the image of phi.  Chebotarev makes the
    classes of the split primes generate Cl+ once S is large enough, so
    phi is onto, and genus theory gives |Cl+[2]| = 2^(t-1).
    """
    field = torus.field
    if not isinstance(field, QuadField):
        raise UnsupportedTorusError("c_gamma implemented for quadratic fields")
    if torus.family == "res-scalars":
        if not field.is_imaginary:
            raise UnsupportedTorusError(
                "c_gamma for res-scalars needs an imaginary field (unit rank 0)"
            )
        return CGammaResult(class_group(field.D).h, ())
    t = len(field.ramified_primes())
    return CGammaResult(class_group(field.D).h >> (t - 1), ())


# ---------------------------------------------------------------------------
# the tnc row


def assert_good_factors(torus: TorusSpec, budget: int = COUNT_BUDGET):
    """Assert that the good Euler factors at p <= GOOD_FACTOR_BOUND cancel
    their densities, where good_euler_terms counts the points.

    tau drops these factors on the strength of a theorem, not of this
    check: at a good p the smooth model's density is |T(F_p)|/p^d =
    L_p(1, X^*)^-1 (Ono, "Arithmetic of algebraic tori", Ann. of Math. 74,
    1961).  The check compares the Frobenius class's polynomial with the
    model's point count at the first d + 1 good primes of each class, so a
    wrong class or polynomial is an internal error.  good_euler_terms skips
    every p | 2 * disc, the bad primes.
    """
    for p, scaled, count in good_euler_terms(torus, primes_up_to(GOOD_FACTOR_BOUND), budget):
        if scaled != count:
            pd = p ** torus.dim
            raise ArithmeticError(
                f"good factor mismatch at p={p} for {torus.label}: "
                f"density {Fraction(count, pd)} vs Euler factor {Fraction(scaled, pd)}"
            )


def verify_tnc(
    torus: TorusSpec,
    tol: float = 1e-3,
    budget: int = COUNT_BUDGET,
) -> VerificationReport:
    """The tnc row: the Tamagawa number against Ono's prediction
    #H^1(G, X^*) / i(T).

    tau = c_gamma * L_S(1)^-1 * prod_{p in S} dens_p * vol, with S the
    infinite place and the bad primes {2} u ramified: at a good p the
    density is L_p(1, X^*)^-1 and cancels its Euler factor (Ono), so S
    needs no other prime; assert_good_factors checks that cancellation
    against counted points.  tau's float error bound must stay below
    tol/2, and its gap to the prediction below tol.

    PASS needs both |tau - prediction| < tol and the finite global
    invariant #H^1(G, X^*) = #torsion(H_0(G, X^*)).  A non-stabilized
    density is INCONCLUSIVE, never silently dropped.
    """
    # a tol of 1 or more is as coarse as the predictions #H^1/i(T) (2 on
    # norm1:-1), so a wrong tau could PASS: a doubled c_gamma's 4 does at tol 5
    if not tol < 1:
        raise ConfigError(f"tol: {tol:g} must be below 1")
    rank = q_rank(torus)
    if rank != 0:
        raise QRankError(rank)
    h1_order = cohomology(torus.xstar, 1).order
    h0_order = h0_torsion_dual(torus.xstar).order
    # c_gamma first: it rejects the tori it has no route for before i(T)
    # computes H^3(G, Z) for nothing
    c = c_gamma(torus)
    # tau / c_gamma gets half of tol, which L(1, chi_D) must be able to meet
    tau_tol = tol / (2 * c.value)
    if tau_tol < 1e-12:
        raise ConfigError(
            f"tol: {tau_tol:g} is below the closed-form accuracy 1e-12 of L(1, chi_D)"
        )
    if h1_order is None:
        raise ArithmeticError(f"H^1 of {torus.label} is infinite")
    i_t = ono_constant(torus)
    rhs = Fraction(h1_order, i_t)
    inputs = {"torus": torus.label, "tol": tol}
    values = {"ono_rhs": rhs, "h1_order": h1_order, "h0_dual_order": h0_order}
    assert_good_factors(torus, budget)
    bad = torus.bad_primes()
    dens_prod = Fraction(1)
    try:
        for p in bad:
            dens_prod *= bad_prime_density(torus, p, budget).value
    except NotStabilizedError as exc:
        return VerificationReport("tnc", inputs, values, INCONCLUSIVE, str(exc))
    # L_S(1): L(1, chi_D) without its Euler factors at the bad primes
    D = torus.field.D
    lv = l_value(D)
    fac = float(math.prod(1 - Fraction(kronecker_symbol(D, p), p) for p in bad))
    l_s = Real(lv.value * fac, lv.abs_err * fac)
    vol = archimedean_volume(torus)
    value = float(dens_prod) * vol.value / l_s.value
    err = (
        abs(value) * (l_s.abs_err / l_s.value)
        + float(dens_prod) * vol.abs_err / l_s.value
        + 1e-14 * abs(value)
    )
    if err >= tau_tol:
        raise ArithmeticError(f"tau error bound {err} exceeds tolerance {tau_tol}")
    tau = c.value * value
    values.update(tau_tam=Real(tau, c.value * err), c_gamma=c.value,
                  c_gamma_heuristic=False, sha_bk=c.value * i_t)
    if h1_order != h0_order:
        return VerificationReport("tnc", inputs, values, FAIL,
                                  f"#H^1 = {h1_order} != {h0_order} = #H_0 torsion")
    delta = abs(tau - float(rhs))
    if delta >= tol:
        return VerificationReport("tnc", inputs, values, FAIL,
                                  f"|tau - prediction| = {delta:.3e} >= {tol}")
    return VerificationReport("tnc", inputs, values, PASS)
