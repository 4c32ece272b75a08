"""Global assembly: archimedean volumes, L-values, the class-group
constant c_gamma (exact, by genus theory from the narrow class number),
and the Tamagawa-number identities.

Everything rational stays a Fraction until the final assembly; the only
floating-point inputs are the archimedean volume and L(1, chi_D), both in
closed form with error bounds that count every float rounding.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .cohomology import cohomology, h0_torsion_dual, ono_constant
from .errors import (
    ConfigError,
    NotStabilizedError,
    QRankError,
    UnsupportedTorusError,
)
from .exactcore import is_prime, kronecker_symbol, primes_up_to
from .galois import INF, TorusSpec, good_euler_terms, q_rank
from .localmeasure import local_density
from .models import COUNT_BUDGET
from .quadfield import (
    QuadField,
    class_group,
    fundamental_unit,
    is_fundamental_discriminant,
    norm_one_unit,
)
from .report import Real

GOOD_FACTOR_BOUND = 97


# ---------------------------------------------------------------------------
# archimedean volume


class ArchVolume(namedtuple("ArchVolume", "value abs_err torsion_order evaluations")):
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
        return ArchVolume(value, 8 * math.ulp(value), w, 0)
    value = norm_one_unit(D).regulator / math.sqrt(D)
    return ArchVolume(value, 16 * math.ulp(value), 2, 0)


# ---------------------------------------------------------------------------
# L-values


class LValue(namedtuple("LValue", "D value abs_err")):
    __slots__ = ()


def l_value(D: int, tol: float = 1e-9) -> LValue:
    """L(1, chi_D) by its closed-form character sum, with abs_err a count
    of the float roundings (u = 2^-53; libm's sin and log, at most 1 ulp,
    are 2u relative)."""
    if not is_fundamental_discriminant(D):
        raise ValueError(f"{D} is not a fundamental discriminant")
    if tol < 1e-12:
        raise ConfigError(
            f"tol: {tol:g} is below the closed-form accuracy 1e-12 of L(1, chi_D)"
        )
    m = abs(D)
    if D < 0:
        s = sum(a * kronecker_symbol(D, a) for a in range(1, m))
        value = -math.pi * s / (m * math.sqrt(m))
        # math.pi is 3.9e-17 off pi, relative; pi*s, sqrt, m*sqrt and the
        # division round by 2^-53 each (m and s convert exactly): 4.83e-16
        abs_err = 4.9e-16 * abs(value)
        return LValue(D, value, abs_err)
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
    return LValue(D, value, abs_err)


def partial_l_value(torus: TorusSpec, places, tol: float = 1e-9) -> Real:
    """L_S(1): the L-value with the Euler factors at finite places of S
    removed.  S must contain the infinite place and every bad prime."""
    if not isinstance(torus.field, QuadField):
        raise UnsupportedTorusError("partial L-values implemented for quadratic fields")
    pl = set(places)
    if INF not in pl:
        raise ValueError("S must contain the infinite place")
    finite = sorted(pl - {INF})
    for p in finite:
        if not is_prime(p):
            raise ValueError(f"finite place {p} is not prime")
    missing = set(torus.bad_primes()) - set(finite)
    if missing:
        raise ValueError(f"S is missing bad primes {sorted(missing)}")
    D = torus.field.D
    lv = l_value(D, tol)
    fac = Fraction(1)
    for p in finite:
        fac *= 1 - Fraction(kronecker_symbol(D, p), p)
    return Real(lv.value * float(fac), lv.abs_err * float(fac))


# ---------------------------------------------------------------------------
# c_gamma: the class-group constant


class CGammaResult(namedtuple("CGammaResult", "value heuristic trace")):
    """heuristic is always False, as every route below is exact; trace is
    always (), and perfbench/tracing.py reads it."""

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
        return CGammaResult(class_group(field.D).h, False, ())
    t = len(field.ramified_primes())
    return CGammaResult(class_group(field.D).h >> (t - 1), False, ())


# ---------------------------------------------------------------------------
# tau assembly


def assert_good_factors(torus: TorusSpec, pmax: int = GOOD_FACTOR_BOUND, exclude=()):
    """Assert the good Euler factors cancel the good densities exactly.

    These factors never enter the product below; this check is what
    licenses dropping them.
    """
    skip = set(exclude)
    primes = (p for p in primes_up_to(pmax) if p not in skip)
    for p, scaled, count in good_euler_terms(torus, primes):
        if scaled != count:
            pd = p ** torus.dim
            raise ArithmeticError(
                f"good factor mismatch at p={p} for {torus.label}: "
                f"density {Fraction(count, pd)} vs Euler factor {Fraction(scaled, pd)}"
            )


class TauValue(namedtuple("TauValue", "label value abs_err l_s densities volume s_finite")):
    """l_s is a Real, densities ((p, Fraction), ...), volume an ArchVolume."""

    __slots__ = ()


def tau_coh(
    torus: TorusSpec,
    tol: float = 1e-6,
    extra_s=(),
    budget: int = COUNT_BUDGET,
) -> TauValue:
    """The cohomological Tamagawa number: L_S(1)^-1 times the product of
    local densities over S times the archimedean volume.

    S is the bad set {2} u ramified plus any extra good primes; the
    result is S-independent, which tests exercise directly.
    """
    rank = q_rank(torus)
    if rank != 0:
        raise QRankError(rank)
    if not isinstance(torus.field, QuadField):
        raise UnsupportedTorusError("tau assembly implemented for quadratic fields")
    for p in extra_s:
        if not is_prime(p):
            raise ValueError(f"extra place {p} is not prime")
    s_finite = tuple(sorted({*torus.bad_primes(), *extra_s}))
    assert_good_factors(torus, exclude=s_finite)
    densities = []
    for p in s_finite:
        densities.append((p, local_density(torus, p, budget=budget).value))
    dens_prod = Fraction(1)
    for _, val in densities:
        dens_prod *= val
    l_s = partial_l_value(torus, (INF, *s_finite), tol=min(1e-9, tol))
    vol = archimedean_volume(torus)
    value = float(dens_prod) * vol.value / l_s.value
    err = (
        abs(value) * (l_s.abs_err / l_s.value)
        + float(dens_prod) * vol.abs_err / l_s.value
        + 1e-14 * abs(value)
    )
    if err >= tol:
        raise ArithmeticError(f"tau error bound {err} exceeds tolerance {tol}")
    return TauValue(torus.label, value, err, l_s, tuple(densities), vol, s_finite)


def tau_tam(
    torus: TorusSpec,
    tol: float = 1e-6,
    budget: int = COUNT_BUDGET,
):
    """The Tamagawa number: c_gamma times the cohomological tau.
    Returns (TauValue, CGammaResult)."""
    c = c_gamma(torus)
    base = tau_coh(torus, tol=tol / (2 * c.value), budget=budget)
    scaled = TauValue(
        base.label,
        c.value * base.value,
        c.value * base.abs_err,
        base.l_s,
        base.densities,
        base.volume,
        base.s_finite,
    )
    return scaled, c


def ono_rhs(torus: TorusSpec) -> Fraction:
    """#H^1(G, X^*) / i(T), the predicted value of tau."""
    h1 = cohomology(torus.group, torus.xstar, 1)
    if h1.order is None:
        raise ArithmeticError(f"H^1 of {torus.label} is infinite")
    return Fraction(h1.order, ono_constant(torus))


# ---------------------------------------------------------------------------
# verdicts


class GlobalReport(namedtuple(
        "GlobalReport",
        "torus verdict cause tau_tam ono c_gamma c_gamma_heuristic sha_bk h1_order h0_dual_order",
        defaults=(None,) * 7)):
    __slots__ = ()


def verify_tnc(
    torus: TorusSpec,
    tol: float = 1e-3,
    budget: int = COUNT_BUDGET,
) -> GlobalReport:
    """End-to-end check of tau against the cohomological prediction.

    PASS needs both |tau_tam - ono_rhs| < tol and the finite global
    invariant #H^1(G, X^*) = #torsion(H_0(G, X^*)).  A non-stabilized
    density is INCONCLUSIVE, never silently dropped.
    """
    rank = q_rank(torus)
    if rank != 0:
        raise QRankError(rank)
    h1 = cohomology(torus.group, torus.xstar, 1)
    h0d = h0_torsion_dual(torus.group, torus.xstar)
    h1_order = h1.order
    h0_order = h0d.order
    rhs = ono_rhs(torus)
    try:
        tau, c = tau_tam(torus, tol=tol, budget=budget)
        shabk = c.value * ono_constant(torus)
    except NotStabilizedError as exc:
        return GlobalReport(
            torus=torus.label,
            verdict="INCONCLUSIVE",
            cause=str(exc),
            ono=rhs,
            h1_order=h1_order,
            h0_dual_order=h0_order,
        )
    globalinv_ok = h1_order == h0_order
    delta = abs(tau.value - float(rhs))
    ok = globalinv_ok and delta < tol
    cause = None
    if not globalinv_ok:
        cause = f"#H^1 = {h1_order} != {h0_order} = #H_0 torsion"
    elif delta >= tol:
        cause = f"|tau - prediction| = {delta:.3e} >= {tol}"
    return GlobalReport(
        torus=torus.label,
        verdict="PASS" if ok else "FAIL",
        cause=cause,
        tau_tam=Real(tau.value, tau.abs_err),
        ono=rhs,
        c_gamma=c.value,
        c_gamma_heuristic=c.heuristic,
        sha_bk=shabk,
        h1_order=h1_order,
        h0_dual_order=h0_order,
    )


def analytic_class_number(D: int, tol: float = 1e-6) -> int:
    """Class number from L(1, chi_D): the Dirichlet formula with the
    torsion correction (w = 4, 6 at D = -4, -3), or the regulator
    quotient for real fields.  Independent of the form enumeration."""
    if not is_fundamental_discriminant(D):
        raise ValueError(f"{D} is not a fundamental discriminant")
    lv = l_value(D, min(tol, 1e-9))
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
