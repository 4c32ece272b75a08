"""Archimedean volumes, L-values, the class-group constant, and the
assembled Tamagawa identities, each checked against closed forms or a
second route."""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from tamagawa import globalasm
from tamagawa.errors import ConfigError, QRankError, UnsupportedTorusError
from tamagawa.exactcore import (
    IntMatrix,
    factorize,
    kronecker_symbol,
    primes_up_to,
    row_lattice_index,
    squarefree_part,
)
from tamagawa.galois import build_torus
from tamagawa.globalasm import (
    archimedean_volume,
    assert_good_factors,
    c_gamma,
    l_value,
    torsion_unit_order,
    verify_tnc,
)
from tamagawa.quadfield import BiquadField, QuadField, class_group, norm_one_unit
from tamagawa.report import Real
from oracles import analytic_class_number, partial_l_value, tau_over


def norm_one(d):
    return build_torus("norm-one", QuadField.from_d(d))


# pi to 40 digits: the oracles below compute at 40 digits, far past a double
PI_40 = Decimal("3.141592653589793238462643383279502884197")

SQUAREFREE_600 = [d for d in range(-600, 601)
                  if d not in (0, 1) and squarefree_part(d) == d]


def within_bound(got, abs_err, exact):
    """|got - exact| <= abs_err, decided at 40 digits (Decimal(float) is exact)."""
    with localcontext() as ctx:
        ctx.prec = 40
        return abs(Decimal(got) - exact) <= Decimal(abs_err)


def real_volume_40(D):
    """log(lambda)/sqrt(D) at 40 digits, lambda = (hx + hy*sqrt(D))/2."""
    u = norm_one_unit(D)
    with localcontext() as ctx:
        ctx.prec = 40
        root = Decimal(D).sqrt()
        return ((u.hx + u.hy * root) / 2).ln() / root


# ---------------------------------------------------------------------------
# archimedean volume


def test_torsion_unit_orders():
    assert torsion_unit_order(QuadField.from_d(-1)) == 4
    assert torsion_unit_order(QuadField.from_d(-3)) == 6
    for d in (-5, -7, -23, 5, 13):
        assert torsion_unit_order(QuadField.from_d(d)) == 2


def test_imaginary_volume_closed_form():
    # circle volume is 2*pi / (sqrt|D| * w)
    for d in SQUAREFREE_600:
        if d > 0:
            continue
        t = norm_one(d)
        w = {-1: 4, -3: 6}.get(d, 2)
        vol = archimedean_volume(t)
        with localcontext() as ctx:
            ctx.prec = 40
            exact = 2 * PI_40 / (w * Decimal(-t.field.D).sqrt())
        assert torsion_unit_order(t.field) == w
        assert within_bound(vol.value, vol.abs_err, exact), (d, vol)


def test_flagship_volume_is_quarter_pi():
    vol = archimedean_volume(norm_one(-1))
    assert within_bound(vol.value, vol.abs_err, PI_40 / 4)


def test_real_volume_is_log_of_norm_one_unit():
    for d in SQUAREFREE_600:
        if d < 0:
            continue
        t = norm_one(d)
        vol = archimedean_volume(t)
        assert torsion_unit_order(t.field) == 2
        assert within_bound(vol.value, vol.abs_err, real_volume_40(t.field.D)), (d, vol)


def test_real_volume_past_the_float_range():
    # over Q(sqrt(999953)) the norm-one unit is about e^1203
    assert norm_one_unit(999953).hx.bit_length() > 1024
    vol = archimedean_volume(norm_one(999953))
    assert within_bound(vol.value, vol.abs_err, real_volume_40(999953)), vol


def test_volume_unsupported_families():
    with pytest.raises(UnsupportedTorusError):
        archimedean_volume(build_torus("res-scalars", QuadField.from_d(-1)))
    with pytest.raises(UnsupportedTorusError):
        archimedean_volume(build_torus("norm-one", BiquadField.from_pair(13, 17)))


# ---------------------------------------------------------------------------
# L-values


def test_l_value_leibniz():
    # L(1, chi_-4) = pi/4
    lv = l_value(-4)
    assert abs(lv.value - math.pi / 4.0) < 1e-12


def test_l_value_closed_forms():
    assert abs(l_value(-3).value - math.pi / (3.0 * math.sqrt(3.0))) < 1e-12
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    assert abs(l_value(5).value - 2.0 * math.log(phi) / math.sqrt(5.0)) < 1e-12


def test_l_value_imaginary_bound():
    # L(1, chi_D) = -pi * sum(a * chi(a)) / |D|^(3/2) for D < 0
    for d in SQUAREFREE_600:
        if d > 0:
            continue
        D = QuadField.from_d(d).D
        m = -D
        s = sum(a * kronecker_symbol(D, a) for a in range(1, m))
        lv = l_value(D)
        with localcontext() as ctx:
            ctx.prec = 40
            exact = -PI_40 * s / (m * Decimal(m).sqrt())
        assert within_bound(lv.value, lv.abs_err, exact), (D, lv)


def test_l_value_real_bound():
    # Dirichlet's class number formula, L(1, chi_D) = h+ log(eps+)/sqrt(D)
    # with eps+ the least totally positive unit > 1, i.e. the least
    # norm-one unit lambda: exact integers from the form cycles and the
    # continued fraction, independent of the character sum
    for d in (*(d for d in SQUAREFREE_600 if d > 0), 99991):
        D = QuadField.from_d(d).D
        lv = l_value(D)
        exact = class_group(D).h * real_volume_40(D)
        assert within_bound(lv.value, lv.abs_err, exact), (D, lv)


def test_l_value_validation():
    for bad in (-12, 45, 0):
        with pytest.raises(ValueError):
            l_value(bad)
    # the tnc row refuses a tolerance for tau / c_gamma below L(1)'s
    # accuracy: 5e-12 / (2 * 3) is, 1e-11 / 6 is not
    with pytest.raises(ConfigError) as info:
        verify_tnc(norm_one(-23), tol=5e-12)
    assert str(info.value) == (
        "tol: 8.33333e-13 is below the closed-form accuracy 1e-12 of L(1, chi_D)")
    assert verify_tnc(norm_one(-23), tol=1e-11).verdict == "PASS"


def test_analytic_class_number_vs_form_count():
    # two fully independent routes to h(D)
    for D in range(-3, -101, -1):
        try:
            forms = class_group(D).h
        except ValueError:
            continue
        assert analytic_class_number(D) == forms, D


def test_analytic_class_number_real():
    for D, h in ((5, 1), (8, 1), (12, 1), (13, 1), (40, 2), (60, 2)):
        assert analytic_class_number(D) == h


def test_partial_l_value():
    # the oracle's L_S(1), S = {inf} + the given primes, which tau_over
    # uses and whose bad-prime case is the tnc row's to the bit
    t = norm_one(-1)
    ls = partial_l_value(t, (2,))
    assert abs(ls.value - math.pi / 4.0) < 1e-10  # chi_-4(2) = 0: no correction
    bigger = partial_l_value(t, (2, 5))
    assert abs(bigger.value - (4.0 / 5.0) * math.pi / 4.0) < 1e-10  # 5 splits


# ---------------------------------------------------------------------------
# c_gamma


def test_c_gamma_norm_one_suite():
    for d in (-1, -3, -5, -7, 5, 13):
        res = c_gamma(norm_one(d))
        assert res.value == 1, (d, res)


def test_c_gamma_minus_23_heuristic():
    # h = 3, one ramified prime: the closed form is certified, not heuristic
    res = c_gamma(norm_one(-23))
    assert res.value == 3
    assert res.trace == ()


def test_c_gamma_res_scalars_is_class_number():
    assert c_gamma(build_torus("res-scalars", QuadField.from_d(-1))).value == 1
    assert c_gamma(build_torus("res-scalars", QuadField.from_d(-5))).value == 2
    assert c_gamma(build_torus("res-scalars", QuadField.from_d(-23))).value == 3
    with pytest.raises(UnsupportedTorusError):
        c_gamma(build_torus("res-scalars", QuadField.from_d(5)))
    with pytest.raises(UnsupportedTorusError):
        c_gamma(build_torus("norm-one", BiquadField.from_pair(13, 17)))


def test_c_gamma_quotient_matches_norm_one():
    assert c_gamma(build_torus("quotient-by-gm", QuadField.from_d(-1))).value == 1


def _window_vectors_oracle(D, prime_bound, box):
    """The nonzero valuation vectors (2 v_P - v_p(N)) over split
    p <= prime_bound of the x + y*w, |x|, |y| <= box, whose norm is
    supported on the primes <= prime_bound and the ramified primes, point by
    point: v_P(x + y*w) is the largest j <= e with x + y*r_j = 0 mod p^j,
    where r_j lifts the least root of w's minimal polynomial mod p one
    p-adic digit at a time."""
    nw = (D * D - D) // 4
    small = primes_up_to(prime_bound)
    split = [p for p in small if kronecker_symbol(D, p) == 1]
    lifts = {}
    for p in split:
        r = min(r for r in range(p) if (r * r - D * r + nw) % p == 0)
        roots = [0, r]
        for j in range(1, 40):
            step = [r + t * p**j for t in range(p)]
            (r,) = [c for c in step if (c * c - D * c + nw) % p ** (j + 1) == 0]
            roots.append(r)
        lifts[p] = roots
    smooth = set(small) | set(factorize(D))
    vectors = set()
    for x in range(-box, box + 1):
        for y in range(-box, box + 1):
            n = abs(x * x + D * x * y + nw * y * y)
            if n == 0:
                continue
            exps = {}
            for p in smooth:
                while n % p == 0:
                    n //= p
                    exps[p] = exps.get(p, 0) + 1
            if n != 1:
                continue
            vec = []
            for p in split:
                e = exps.get(p, 0)
                roots = lifts[p]
                vp = max(j for j in range(e + 1) if (x + y * roots[j]) % p**j == 0)
                vec.append(2 * vp - e)
            if any(vec):
                vectors.add(tuple(vec))
    return sorted(vectors)


# (D, prime bound, box) where the lattice index has stabilized; 328 and 568
# need the larger window
LATTICE_WINDOWS = [(D, 20, 120) for D in (-4, -7, -23, -47, -56, -71, -104,
                                          5, 13, 17, 136, 316)]
LATTICE_WINDOWS += [(328, 32, 192), (568, 32, 192)]


@pytest.mark.parametrize(
    "D, prime_bound, box", LATTICE_WINDOWS, ids=[str(w[0]) for w in LATTICE_WINDOWS]
)
def test_c_gamma_matches_lattice_oracle(D, prime_bound, box):
    # the index of the norm-smooth valuation lattice is h+/2^(t-1), for
    # norm-one and for quot
    vectors = _window_vectors_oracle(D, prime_bound, box)
    index = row_lattice_index(IntMatrix.from_rows(vectors))
    field = QuadField.from_d(D if D % 4 == 1 else D // 4)
    for family in ("norm-one", "quotient-by-gm"):
        res = c_gamma(build_torus(family, field))
        assert res.value == index, (family, res)


# ---------------------------------------------------------------------------
# tau


def test_good_factor_cancellation():
    for d in (-1, -7, 5):
        assert_good_factors(norm_one(d))


@pytest.mark.parametrize("d", [-1, -23])
def test_tau_is_s_independent(d):
    # the row takes S = {inf} u bad primes; a good prime added to S brings
    # its density and its Euler factor, which cancel
    values = verify_tnc(norm_one(d), tol=1e-6).values
    c = values["c_gamma"]
    tau = values["tau_tam"]
    for extra in ((3,), (5,), (5, 13)):
        other = tau_over(norm_one(d), extra)
        assert abs(other.value - tau.value / c) <= tau.abs_err / c + other.abs_err, extra
        assert abs(other.value - 2.0 / c) < 1e-6


@pytest.mark.parametrize("d", [-399, -390, -385, -377, -374])
def test_tau_tam_error_bar_covers_ono_prediction(d):
    # the row's tau_tam = #H^1/i(T) exactly (Ono), so the reported abs_err
    # must cover the gap
    values = verify_tnc(norm_one(d), tol=1e-6).values
    tau = values["tau_tam"]
    assert abs(Fraction(tau.value) - values["ono_rhs"]) <= Fraction(tau.abs_err)


def test_tau_tam_scales_by_c_gamma():
    values = verify_tnc(norm_one(-23), tol=1e-3).values
    assert values["c_gamma"] == 3 and values["c_gamma_heuristic"] is False
    base = tau_over(norm_one(-23), ())
    assert values["tau_tam"] == Real(3 * base.value, 3 * base.abs_err)
    assert abs(values["tau_tam"].value - 2.0) < 1e-3
    assert values["ono_rhs"] == Fraction(2)


def test_ono_rhs_flagship():
    assert verify_tnc(norm_one(-1)).values["ono_rhs"] == Fraction(2)


# ---------------------------------------------------------------------------
# the end-to-end verdict


def test_verify_tnc_flagship():
    rep = verify_tnc(norm_one(-1), tol=1e-3)
    assert rep.identity == "tnc" and rep.inputs == {"torus": "norm1:-1", "tol": 1e-3}
    assert rep.verdict == "PASS" and rep.cause is None
    values = rep.values
    assert abs(values["tau_tam"].value - 2.0) < 1e-3
    assert values["ono_rhs"] == Fraction(2)
    assert values["c_gamma"] == 1 and values["c_gamma_heuristic"] is False
    assert values["sha_bk"] == 1
    assert values["h1_order"] == values["h0_dual_order"] == 2


def test_verify_tnc_minus_23():
    rep = verify_tnc(norm_one(-23), tol=1e-3)
    assert rep.verdict == "PASS"
    assert rep.values["c_gamma"] == 3 and rep.values["c_gamma_heuristic"] is False
    assert rep.values["sha_bk"] == 3


def test_verify_tnc_real_field():
    rep = verify_tnc(norm_one(5), tol=1e-3)
    assert rep.verdict == "PASS"
    assert abs(rep.values["tau_tam"].value - 2.0) < 1e-3


@pytest.mark.parametrize("tol", [1, 5.0, 1e300, math.inf, math.nan])
def test_verify_tnc_rejects_a_tol_of_one_or_more(monkeypatch, tol):
    # at tol 5 a doubled c_gamma's tau = 4 would PASS against the prediction 2
    with pytest.raises(ConfigError, match="^tol: .* must be below 1$"):
        verify_tnc(norm_one(-1), tol=tol)
    real = globalasm.c_gamma
    monkeypatch.setattr(globalasm, "c_gamma", lambda t: real(t)._replace(value=2))
    assert verify_tnc(norm_one(-1), tol=0.999).verdict == "FAIL"


def test_verify_tnc_rank_gate():
    with pytest.raises(QRankError):
        verify_tnc(build_torus("res-scalars", QuadField.from_d(-1)))


def test_verify_tnc_budget_starved_is_inconclusive():
    rep = verify_tnc(norm_one(-23), tol=1e-3, budget=10**4)
    assert rep.verdict == "INCONCLUSIVE"
    assert rep.cause and "stabilize" in rep.cause
    assert rep.values == {"ono_rhs": Fraction(2), "h1_order": 2, "h0_dual_order": 2}
    # the tolerance floor comes before the densities: it needs only c_gamma
    with pytest.raises(ConfigError, match="below the closed-form accuracy"):
        verify_tnc(norm_one(-23), tol=1e-12, budget=10**4)
