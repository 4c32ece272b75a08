"""Acceptance gate: nine end-to-end criteria, one test (and one printed
pass/fail line) each.  Everything rational is checked exactly; the two
analytic quantities carry explicit tolerances.  Each criterion also pins
its wall-clock budget so regressions in the exact kernels show up here."""

import math
import time
from fractions import Fraction

from tamagawa.cli import run_sha
from tamagawa.cohomology import cohomology, h0_torsion_dual, ono_constant
from tamagawa.galois import (
    INF,
    build_torus,
    decomposition_subgroup,
    euler_factor_at_one,
    is_good_prime,
    point_count_Fp,
    trivial_lattice,
)
from tamagawa.globalasm import (
    archimedean_volume,
    c_gamma,
    l_value,
    verify_tnc,
)
from tamagawa.localmeasure import bad_prime_density
from tamagawa.models import count_points_mod
from tamagawa.options import RunConfig
from tamagawa.quadfield import BiquadField, QuadField, reduced_forms
from oracles import is_cyclic_subset, local_density_good, partial_l_value

FIELDS = (-1, -2, -3, -5, -6, -7, -10, -11, -13, -14, -15, -17, -19, -23,
          2, 3, 5, 6, 7, 11, 13, 17, 19, 21)

FAMILIES = ("norm-one", "res-scalars", "quotient-by-gm")

SUITE = (-1, -3, -5, -7, -23, 5, 13)

PRIMES_97 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
             59, 61, 67, 71, 73, 79, 83, 89, 97)


def _finish(name, t0, limit, detail):
    elapsed = time.monotonic() - t0
    print(f"{name}: PASS in {elapsed:.2f}s ({detail})")
    if limit is not None:
        assert elapsed < limit, f"{name} took {elapsed:.2f}s, budget {limit}s"


def test_criterion_1_euler_factor_equals_point_count():
    # p^d * E_p(1) = |T(F_p)| exactly, all families, 24 fields, good p <= 97,
    # with an independent affine enumeration cross-check for p <= 13
    t0 = time.monotonic()
    checked = crossed = 0
    for d in FIELDS:
        field = QuadField.from_d(d)
        for family in FAMILIES:
            t = build_torus(family, field)
            for p in PRIMES_97:
                if not is_good_prime(t, p):
                    continue
                factor = euler_factor_at_one(t, p)
                count = point_count_Fp(t, p)
                assert factor * p**t.dim == count, (d, family, p)
                checked += 1
                if p <= 13:
                    assert count_points_mod(t.model, p, 1) == count
                    crossed += 1
    assert len(FIELDS) >= 20 and checked > 1500
    _finish("criterion 1", t0, 10.0,
            f"{checked} exact identities, {crossed} enumeration cross-checks")


def test_criterion_2_density_and_smooth_lifting():
    # at good p <= 13: brute density = p^-d |T(F_p)|, and counts lift by a
    # factor p^d per level for k <= 3 wherever the enumeration budget admits
    t0 = time.monotonic()
    budget = 10**7
    lifted = matched = 0
    for d in SUITE:
        field = QuadField.from_d(d)
        for family in FAMILIES:
            t = build_torus(family, field)
            for p in (3, 5, 7, 11, 13):
                if not is_good_prime(t, p):
                    continue
                counts = [count_points_mod(t.model, p, k)
                          for k in range(1, 5)
                          if p ** (k * t.model.nvars) <= budget]
                assert len(counts) >= 2
                density = local_density_good(t, p).value
                assert density == Fraction(counts[0], p**t.dim)
                matched += 1
                for a, b in zip(counts, counts[1:]):
                    assert b == p**t.dim * a, (d, family, p, counts)
                    lifted += 1
    _finish("criterion 2", t0, 60.0,
            f"{matched} density matches, {lifted} lifting steps")


def test_criterion_3_flagship_two_adic_stabilization():
    t0 = time.monotonic()
    t = build_torus("norm-one", QuadField.from_d(-1))
    assert count_points_mod(t.model, 2, 3) == 16
    assert count_points_mod(t.model, 2, 4) == 32
    dens = bad_prime_density(t, 2)
    assert dens.value == Fraction(2) and dens.trace[-1][2] == dens.trace[-2][2]
    _finish("criterion 3", t0, 1.0, "counts 16/32, density 2 stabilized")


def test_criterion_4_h1_order_equals_h0_torsion_dual():
    # both sides are read from the Smith invariants of the one map d^0
    # (H^1's torsion is that of coker d^0), so this pins the two orders
    # but cannot catch a wrong Smith form
    t0 = time.monotonic()
    tori = [build_torus(f, QuadField.from_d(d))
            for d in (-1, -2, -3, -5, -7, -11, -23, 5, 13)
            for f in ("norm-one", "quotient-by-gm")]
    tori += [build_torus("norm-one", BiquadField.from_pair(13, 17)),
             build_torus("norm-one", BiquadField.from_pair(2, 3))]
    assert len(tori) >= 10
    for t in tori:
        h1 = cohomology(t.xstar, 1)
        h0d = h0_torsion_dual(t.xstar)
        assert h1.order is not None
        assert h1.order == h0d.order, (t.label, h1, h0d)
    _finish("criterion 4", t0, 10.0, f"{len(tori)} lattices incl. biquadratic")


def test_criterion_5_flagship_assembly():
    # tau = (pi/4)^-1 * 2 * (pi/4) = 2 over Q(i), with every component pinned
    t0 = time.monotonic()
    t = build_torus("norm-one", QuadField.from_d(-1))
    rep = verify_tnc(t, tol=1e-6)
    tau = rep.values["tau_tam"]
    assert rep.verdict == "PASS" and abs(tau.value - 2.0) < 1e-6
    assert t.bad_primes() == (2,)
    assert abs(partial_l_value(t, (2,)).value - math.pi / 4.0) < 1e-9
    assert bad_prime_density(t, 2).value == Fraction(2)
    assert abs(archimedean_volume(t).value - math.pi / 4.0) < 1e-6
    c = c_gamma(t)
    assert c.value == 1 and rep.values["c_gamma_heuristic"] is False
    assert rep.values["ono_rhs"] == Fraction(2, 1)
    _finish("criterion 5", t0, 10.0,
            f"tau = {tau.value:.9f}, L_S = vol = pi/4, c = 1, rhs = 2")


def test_criterion_6_tamagawa_suite():
    t0 = time.monotonic()
    worst = 0.0
    for d in SUITE:
        t = build_torus("norm-one", QuadField.from_d(d))
        rep = verify_tnc(t, tol=1e-3)
        assert rep.verdict == "PASS", (d, rep.cause)
        worst = max(worst, abs(rep.values["tau_tam"].value - float(rep.values["ono_rhs"])))
    _finish("criterion 6", t0, 300.0,
            f"7 tori PASS at 1e-3, max deviation {worst:.2e}")


def test_criterion_7_knot_group_orders():
    t0 = time.monotonic()
    for d in SUITE:
        t = build_torus("norm-one", QuadField.from_d(d))
        # H^3 of the cyclic group is computed trivial, so no obstruction
        assert cohomology(trivial_lattice(t.group), 3).order == 1
        assert ono_constant(t) == 1
    bq = build_torus("norm-one", BiquadField.from_pair(13, 17))
    h3 = cohomology(trivial_lattice(bq.group), 3)
    assert h3.factors == (2,)  # H^3((Z/2)^2, Z) = Z/2 by the bar resolution
    for place in (INF, 2, 13, 17, 3, 5, 7, 11, 19, 23):
        sub = decomposition_subgroup(bq, place)
        assert is_cyclic_subset(bq.group, sub), (place, sub)
    assert not is_cyclic_subset(bq.group, (0, 1, 2, 3))
    assert ono_constant(bq) == 2
    # contrast: ramified 2 over Q(sqrt2, sqrt3) has the full Klein group
    bq2 = build_torus("norm-one", BiquadField.from_pair(2, 3))
    assert decomposition_subgroup(bq2, 2) == (0, 1, 2, 3)
    assert ono_constant(bq2) == 1
    _finish("criterion 7", t0, 60.0,
            "i(T) = 1 quadratic, 2 over the (13,17) field, H^3 = Z/2")


def test_criterion_8_sha_consistency():
    t0 = time.monotonic()
    for d in SUITE:
        t = build_torus("norm-one", QuadField.from_d(d))
        c = c_gamma(t)
        (row,) = run_sha(t, RunConfig("sha", (f"norm1:{d}",)))
        assert row.values["sha_bk"] == c.value * ono_constant(t), d
    _finish("criterion 8", t0, None, "sha_bk = c * i(T) across the suite")


def test_criterion_9_analytic_class_number_consistency():
    # L(1)·sqrt|D|/pi against the count of reduced forms; the lone
    # torsion correction is D = -4 where w = 4 doubles the literal value
    t0 = time.monotonic()
    for D in (-8, -20, -23, -47):
        h = len(reduced_forms(D))
        lv = l_value(D)
        assert abs(lv.value * math.sqrt(abs(D)) / math.pi - h) < 1e-6, D
    lv = l_value(-4)
    assert abs(2.0 * lv.value * math.sqrt(4) / math.pi - len(reduced_forms(-4))) < 1e-6
    _finish("criterion 9", t0, 10.0, "h(D) from L(1) matches form counts")
