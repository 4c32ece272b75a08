"""Global assembly: archimedean volumes, L-values, the class-group
constant c_gamma (exact, by genus theory from the narrow class number),
and the Tamagawa-number identities.

Everything rational stays a Fraction until the final assembly; the only
floating-point inputs are the archimedean volume (adaptive quadrature
with a tracked error bound) and L(1, chi_D) (closed-form character sum,
cross-checked against a truncated Euler product whose tail bound is
heuristic and labeled as such).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .cohomology import cohomology, h0_torsion_dual, ono_constant, sha_bk_order
from .errors import (
    BudgetExceededError,
    ConfigError,
    NotStabilizedError,
    QRankError,
    UnsupportedTorusError,
)
from .exactcore import is_prime, kronecker_symbol, primes_up_to
from .galois import INF, TorusSpec, euler_factor_at_one, is_good_prime, point_count_Fp, q_rank
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

EULER_CUTOFF = 10**6

GOOD_FACTOR_BOUND = 97


# ---------------------------------------------------------------------------
# quadrature


def adaptive_simpson(f, a, b, tol, max_depth=40, max_evals=200000):
    """Adaptive Simpson with the standard |S2-S1|/15 error estimate.

    Returns (value, error_bound, evaluations).  Deterministic: the
    recursion tree and accumulation order depend only on f and tol.
    """
    if not (b > a):
        raise ValueError("need b > a")
    if tol <= 0:
        raise ValueError("tol must be positive")
    evals = [0]

    def ev(x):
        evals[0] += 1
        if evals[0] > max_evals:
            raise BudgetExceededError("quadrature evaluation budget exhausted")
        return f(x)

    def simpson(lo, hi, flo, fmid, fhi):
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def recurse(lo, hi, flo, fmid, fhi, whole, tol_here, depth):
        mid = 0.5 * (lo + hi)
        lm = 0.5 * (lo + mid)
        rm = 0.5 * (mid + hi)
        flm = ev(lm)
        frm = ev(rm)
        left = simpson(lo, mid, flo, flm, fmid)
        right = simpson(mid, hi, fmid, frm, fhi)
        delta = left + right - whole
        if abs(delta) <= 15.0 * tol_here or depth >= max_depth:
            return left + right + delta / 15.0, abs(delta) / 15.0
        lv, le = recurse(lo, mid, flo, flm, fmid, left, tol_here / 2.0, depth + 1)
        rv, re = recurse(mid, hi, fmid, frm, fhi, right, tol_here / 2.0, depth + 1)
        return lv + rv, le + re

    fa, fm, fb = ev(a), ev(0.5 * (a + b)), ev(b)
    whole = simpson(a, b, fa, fm, fb)
    value, err = recurse(a, b, fa, fm, fb, whole, tol, 0)
    return value, err, evals[0]


# ---------------------------------------------------------------------------
# archimedean volume


@dataclass(frozen=True)
class ArchVolume:
    value: float
    abs_err: float
    torsion_order: int
    evaluations: int


def torsion_unit_order(field: QuadField) -> int:
    """Order w of the group of roots of unity of the field: 6 for Q(sqrt(-3)),
    4 for Q(i), 2 otherwise."""
    return 6 if field.D == -3 else 4 if field.D == -4 else 2


def _curve_integrand(field: QuadField):
    """Max-denominator chart of the invariant 1-form on N(x,y)=1.

    Charts are |x'(t)/F_y| and |y'(t)/F_x|; on the curve they agree
    wherever both denominators are nonzero, which we assert.
    """
    D = field.D
    nw2 = (D * D - D) / 2.0

    def from_point(x, y, dx, dy):
        fy = D * x + nw2 * y
        fx = 2.0 * x + D * y
        g_y = abs(dx / fy) if fy != 0.0 else None
        g_x = abs(dy / fx) if fx != 0.0 else None
        if g_y is not None and g_x is not None and min(abs(fx), abs(fy)) > 0.1:
            if abs(g_y - g_x) > 1e-9 * (1.0 + abs(g_y)):
                raise ArithmeticError("chart disagreement on the norm curve")
        if g_y is None and g_x is None:
            raise ArithmeticError("singular point on the norm curve")
        if g_x is None or (g_y is not None and abs(fy) >= abs(fx)):
            return g_y
        return g_x

    return from_point


def archimedean_volume(torus: TorusSpec, tol: float = 1e-9) -> ArchVolume:
    """Volume of the norm-one real points for the invariant 1-form.

    Imaginary field: the compact circle group, volume divided by the
    torsion unit order.  Real field: one period of the identity
    component, t from 1 to the fundamental norm-one unit > 1.
    """
    if not isinstance(torus.field, QuadField):
        raise UnsupportedTorusError("archimedean volume needs a quadratic field")
    if torus.family not in ("norm-one", "quotient-by-gm"):
        raise UnsupportedTorusError(f"no volume normalization for {torus.family}")
    field = torus.field
    D = field.D
    chart = _curve_integrand(field)

    if field.is_imaginary:
        s = math.sqrt(abs(D))
        w = torsion_unit_order(field)

        def integrand(theta):
            x = math.cos(theta) - (D / s) * math.sin(theta)
            y = 2.0 * math.sin(theta) / s
            dx = -math.sin(theta) - (D / s) * math.cos(theta)
            dy = 2.0 * math.cos(theta) / s
            return chart(x, y, dx, dy)

        raw, err, n = adaptive_simpson(integrand, 0.0, 2.0 * math.pi, tol * w * 0.5)
        value = raw / w
        bound = err / w + 1e-15 * abs(value)
        if bound >= tol:
            raise ArithmeticError("quadrature error bound exceeds requested tolerance")
        return ArchVolume(value, bound, w, n)

    sq = math.sqrt(D)
    unit = norm_one_unit(D)
    lam = (unit.hx + unit.hy * sq) / 2.0
    if not lam > 1.0:
        raise ArithmeticError(f"fundamental norm-one unit {lam} is not > 1")

    def integrand(t):
        y = (t - 1.0 / t) / sq
        x = (t + 1.0 / t - D * y) / 2.0
        dy = (1.0 + 1.0 / (t * t)) / sq
        dx = (1.0 - 1.0 / (t * t) - D * dy) / 2.0
        return chart(x, y, dx, dy)

    raw, err, n = adaptive_simpson(integrand, 1.0, lam, tol * 0.5)
    bound = err + 1e-15 * abs(raw)
    if bound >= tol:
        raise ArithmeticError("quadrature error bound exceeds requested tolerance")
    return ArchVolume(raw, bound, 2, n)


# ---------------------------------------------------------------------------
# L-values


@lru_cache(maxsize=1)
def _prime_array():
    return np.fromiter(primes_up_to(EULER_CUTOFF), dtype=np.int64)


def _euler_product(D: int):
    """Truncated Euler product for L(1, chi_D) with a fluctuation-based
    tail bound.  The bound is heuristic (no unconditional tail estimate
    at this cutoff): four times the largest swing of the partial
    log-products over the top octave and a 5e-5 relative floor."""
    P = _prime_array()
    table = np.array([kronecker_symbol(D, r) for r in range(abs(D))], dtype=np.int8)
    chi = table[P % abs(D)]
    nz = chi != 0
    nzP = P[nz].astype(np.float64)
    terms = np.log1p(-chi[nz].astype(np.float64) / nzP)
    cums = np.cumsum(terms)
    log_l = -cums[-1]
    fluct = 0.0
    for num in (1, 2, 3, 4, 5, 6):
        i = int(np.searchsorted(nzP, num * EULER_CUTOFF // 8, side="right"))
        if i >= 1:
            fluct = max(fluct, abs(-cums[i - 1] - log_l))
    value = math.exp(log_l)
    err = abs(value) * math.expm1(4.0 * fluct + 5e-5)
    return value, err


@dataclass(frozen=True)
class LValue:
    D: int
    value: float
    abs_err: float
    euler_value: float
    euler_abs_err: float  # heuristic tail bound, see _euler_product


def l_value(D: int, tol: float = 1e-9) -> LValue:
    """L(1, chi_D) by the closed-form character sum, cross-checked
    against the truncated Euler product."""
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
        abs_err = 4e-16 * abs(value) + 1e-18
    else:
        s = sum(
            kronecker_symbol(D, a) * math.log(math.sin(math.pi * a / m))
            for a in range(1, m)
        )
        value = -s / math.sqrt(m)
        abs_err = 1e-13 * (1.0 + abs(value))
    ev, eerr = _euler_product(D)
    if abs(value - ev) > abs_err + eerr:
        raise ArithmeticError(
            f"L(1) methods disagree at D={D}: closed form {value}, "
            f"Euler product {ev} +/- {eerr}"
        )
    return LValue(D, value, abs_err, ev, eerr)


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


@dataclass(frozen=True)
class CGammaResult:
    value: int
    heuristic: bool  # always False: every route below is exact
    trace: tuple  # always (); perfbench/tracing.py reads it


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
    for p in primes_up_to(pmax):
        if p in skip or not is_good_prime(torus, p):
            continue
        density = Fraction(point_count_Fp(torus, p), p ** torus.dim)
        if density != euler_factor_at_one(torus, p):
            raise ArithmeticError(
                f"good factor mismatch at p={p} for {torus.label}: "
                f"density {density} vs Euler factor {euler_factor_at_one(torus, p)}"
            )


@dataclass(frozen=True)
class TauValue:
    label: str
    value: float
    abs_err: float
    l_s: Real
    densities: tuple  # ((p, Fraction), ...)
    volume: ArchVolume
    s_finite: tuple


def tau_coh(
    torus: TorusSpec,
    tol: float = 1e-6,
    extra_s=(),
    jobs: int = 1,
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
        densities.append((p, local_density(torus, p, jobs=jobs, budget=budget).value))
    dens_prod = Fraction(1)
    for _, val in densities:
        dens_prod *= val
    l_s = partial_l_value(torus, (INF, *s_finite), tol=min(1e-9, tol))
    vol_tol = tol * l_s.value / (4.0 * float(dens_prod))
    vol = archimedean_volume(torus, vol_tol)
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
    jobs: int = 1,
    budget: int = COUNT_BUDGET,
):
    """The Tamagawa number: c_gamma times the cohomological tau.
    Returns (TauValue, CGammaResult)."""
    c = c_gamma(torus)
    base = tau_coh(torus, tol=tol / (2 * c.value), jobs=jobs, budget=budget)
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


@dataclass(frozen=True)
class GlobalReport:
    torus: str
    verdict: str
    cause: str | None
    tau_tam: Real | None = None
    ono: Fraction | None = None
    c_gamma: int | None = None
    c_gamma_heuristic: bool | None = None
    sha_bk: int | None = None
    h1_order: int | None = None
    h0_dual_order: int | None = None


def verify_tnc(
    torus: TorusSpec,
    tol: float = 1e-3,
    jobs: int = 1,
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
        tau, c = tau_tam(torus, tol=tol, jobs=jobs, budget=budget)
        shabk = sha_bk_order(torus, c.value)
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
