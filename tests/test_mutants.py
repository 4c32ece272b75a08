"""The mutant matrix: for a deliberate fault in one kernel, which verify
rows catch it.  Each cell runs one argv with the mutant installed and pins
the exit code and either the verdict counts or, for a run that writes no
report, its stderr; a blind cell (exit 0 under a fault) names the ROADMAP
item that would make it catch.

A mutant replaces the function at every binding, the defining module's and
each `from ... import` copy, so no caller keeps the real one, and the
caches that could hold a result of the real one are cleared."""

import json
import sys
from collections import Counter

import pytest

from tamagawa import cohomology, exactcore, galois, globalasm, localmeasure, models
from tamagawa.cli import main
from tamagawa.quadfield import QuadField, _Subfields

CACHES = (galois._frobenius_polynomials, models.cached_point_count,
          cohomology._cohomology, cohomology.ono_constant, globalasm.c_gamma)


@pytest.fixture(autouse=True)
def _fresh_caches():
    # a cache filled under a mutant must not outlive its cell
    yield
    for cache in CACHES:
        cache.cache_clear()


def _patch_every_binding(monkeypatch, real, fake):
    for cache in CACHES:
        cache.cache_clear()
    for name, module in list(sys.modules.items()):
        if name.startswith("tamagawa"):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, fake)


def swap_quadratic_frobenius(monkeypatch):
    # split primes get the inert class and inert primes the split one
    real = galois._frobenius_index

    def swapped(field, p):
        g = real(field, p)
        return 1 - g if isinstance(field, QuadField) else g

    _patch_every_binding(monkeypatch, real, swapped)


def bump_class_one_constant(monkeypatch):
    # class 1's charpoly, x + 1 on norm-one over a quadratic field, gains 2
    # in its constant term
    real = galois._frobenius_polynomials

    def bumped(t):
        polys = list(real(t))
        polys[1] = (polys[1][0] + 2, *polys[1][1:])
        return tuple(polys)

    _patch_every_binding(monkeypatch, real, bumped)


def _doubled_smith(real):
    def doubled(m):
        return tuple(2 * x if x > 1 else x for x in real(m))

    return doubled


def double_smith_invariants(monkeypatch):
    # every invariant factor > 1 doubled: 1 | 2 | 4 becomes 1 | 4 | 8
    real = exactcore.smith_normal_form
    _patch_every_binding(monkeypatch, real, _doubled_smith(real))


def double_c_gamma(monkeypatch):
    real = globalasm.c_gamma

    def doubled(torus):
        c = real(torus)
        return c._replace(value=2 * c.value)

    _patch_every_binding(monkeypatch, real, doubled)


def double_ono_constant(monkeypatch):
    real = cohomology.ono_constant
    _patch_every_binding(monkeypatch, real, lambda t: 2 * real(t))


def _doubled_value_and_error(real):
    def doubled(arg):
        r = real(arg)
        return r._replace(value=2 * r.value, abs_err=2 * r.abs_err)

    return doubled


def double_archimedean_volume(monkeypatch):
    real = globalasm.archimedean_volume
    _patch_every_binding(monkeypatch, real, _doubled_value_and_error(real))


def double_l_value(monkeypatch):
    real = globalasm.l_value
    _patch_every_binding(monkeypatch, real, _doubled_value_and_error(real))


def bump_deep_counts(monkeypatch):
    # every count mod p^k with k >= 2 gains one point
    real = models.count_points_mod

    def bumped(model, p, k, budget=models.COUNT_BUDGET):
        return real(model, p, k, budget) + (k >= 2)

    _patch_every_binding(monkeypatch, real, bumped)


def double_bad_prime_density(monkeypatch):
    real = localmeasure.bad_prime_density

    def doubled(torus, p, budget=models.COUNT_BUDGET):
        d = real(torus, p, budget)
        return d._replace(value=2 * d.value)

    _patch_every_binding(monkeypatch, real, doubled)


def drop_largest_ramified_prime(monkeypatch):
    # a field with two or more ramified primes loses its largest.  One with
    # a single ramified prime keeps it: t = 0 would make c_gamma's
    # h >> (t - 1) raise, a state no quadratic field reaches.  The method is
    # patched on the class, which no module attribute binds
    real = _Subfields.ramified_primes

    def dropped(field):
        primes = real(field)
        return primes[:-1] if len(primes) > 1 else primes

    for cache in CACHES:
        cache.cache_clear()
    monkeypatch.setattr(_Subfields, "ramified_primes", dropped)


MUTANTS = {"frobenius-swap": swap_quadratic_frobenius,
           "charpoly-constant": bump_class_one_constant,
           "smith-doubled": double_smith_invariants,
           "c-gamma-doubled": double_c_gamma,
           "ono-constant-doubled": double_ono_constant,
           "volume-doubled": double_archimedean_volume,
           "l-value-doubled": double_l_value,
           "count-off-by-one": bump_deep_counts,
           "density-doubled": double_bad_prime_density,
           "ramified-dropped": drop_largest_ramified_prime}

NORM_ONE_TORI = ("norm1:-23", "norm1:13")
# fields with two or three ramified primes, imaginary and real
RAMIFIED_TORI = ("norm1:-5", "quot:-5", "norm1:-21", "norm1:21")

# (mutant, argv, exit code, verdict counts or stderr)
CELLS = [
    # the good-prime cross-checks compare the Frobenius count with the
    # affine model's count at p <= 13
    ("frobenius-swap", ("density", "--torus", "norm1:-1"), 1, {"PASS": 1, "FAIL": 5}),
    # the model's counts at the first two primes of each class, 3, 5, 7
    # and 13, miss the swapped classes' polynomials
    ("frobenius-swap", ("euler", "--torus", "norm1:-1", "--pmax", "97"), 1,
     {"PASS": 20, "FAIL": 4}),
    # tau reads only the bad primes, but its good-factor check counts
    # points at 3 first
    ("frobenius-swap", ("tnc", "--torus", "norm1:-1"), 70,
     "internal error: good factor mismatch at p=3 for norm1:-1: "
     "density 4/3 vs Euler factor 2/3\n"),
    # class 1 holds 3 and 7 among the counted primes
    ("charpoly-constant", ("euler", "--torus", "norm1:-1", "--pmax", "97"), 1,
     {"PASS": 22, "FAIL": 2}),
    ("charpoly-constant", ("density", "--torus", "norm1:-1"), 1, {"PASS": 3, "FAIL": 3}),
    # the good-factor check counts points at 3, of class 1, first
    ("charpoly-constant", ("tnc", "--torus", "norm1:-1"), 70,
     "internal error: good factor mismatch at p=3 for norm1:-1: "
     "density 4/3 vs Euler factor 2\n"),
    # H^1 = Z/4 on both sides of the row, which read one Smith form: blind
    # until a second count of (X^* x Q/Z)^G (ROADMAP item 4)
    ("smith-doubled", ("globalinv", "--torus", "norm1:-23"), 0, {"PASS": 1}),
    # the sha row reports c_gamma * i(T) and compares it with itself:
    # blind until genus theory counts c_gamma a second way (ROADMAP item 5)
    ("smith-doubled", ("sha", "--torus", "norm1:-23"), 0, {"PASS": 1}),
    # #H^1 = 4 against a tau of 2
    ("smith-doubled", ("tnc", "--torus", "norm1:-23"), 1, {"FAIL": 1}),
    # c_gamma = 3 on norm1:-23 and 1 on norm1:13, i(T) = 1 on both; the sha
    # row compares c_gamma * i(T) with itself: blind until genus theory
    # counts c_gamma a second way (ROADMAP item 5)
    *((mutant, ("sha", "--torus", spec), 0, {"PASS": 1})
      for mutant in ("c-gamma-doubled", "ono-constant-doubled")
      for spec in NORM_ONE_TORI),
    # tau, or the prediction #H^1 / i(T), off by a factor of 2
    *((mutant, ("tnc", "--torus", spec), 1, {"FAIL": 1})
      for mutant in ("c-gamma-doubled", "ono-constant-doubled", "volume-doubled",
                     "l-value-doubled")
      for spec in NORM_ONE_TORI),
    # count(2) = p^d * count(1) + 1 at every good p <= 13
    ("count-off-by-one", ("lifting", "--torus", "norm1:-1"), 1, {"FAIL": 5}),
    # the ratios count(k) / p^(k*d) never repeat, so no density
    # stabilizes, at the bad prime 2 or at the cross-checked good primes
    ("count-off-by-one", ("density", "--torus", "norm1:-1"), 2, {"INCONCLUSIVE": 6}),
    # tau needs the density at 2
    ("count-off-by-one", ("tnc", "--torus", "norm1:-1"), 2, {"INCONCLUSIVE": 1}),
    # the density row reports the brute-force density and compares it with
    # nothing: blind until the local period checks it (ROADMAP item 6).  The
    # good-prime rows do not call bad_prime_density
    ("density-doubled", ("density", "--torus", "norm1:-1"), 0, {"PASS": 6}),
    # tau doubles against #H^1 / i(T) = 2
    *(("density-doubled", ("tnc", "--torus", spec), 1, {"FAIL": 1})
      for spec in ("norm1:-1", "norm1:-23")),
    # the tnc row fails, and every other row of all passes
    ("density-doubled", ("all", "--torus", "norm1:-1"), 1, {"PASS": 37, "FAIL": 1}),
    # the sha row reports c_gamma = h+ / 2^(t-1), doubled, and compares it
    # with itself; tau would be blind too: c_gamma doubles, the product of
    # the densities loses the dropped prime's, which is 2, and chi_D(p) = 0
    # leaves L_S(1) as it was.  Blind until genus theory counts c_gamma a
    # second way (ROADMAP item 5)
    *(("ramified-dropped", ("sha", "--torus", spec), 0, {"PASS": 1})
      for spec in RAMIFIED_TORI),
    # bad_primes() divides each subfield discriminant by the ramified
    # primes, and the dropped one is left over: density and tnc read the
    # bad primes, and all reaches its density rows first
    *(("ramified-dropped", (identity, "--torus", spec), 70,
       f"internal error: the ramified primes {kept} of {spec} leave {left} "
       f"of its subfield discriminant {D}\n")
      for identity in ("density", "tnc", "all")
      for spec, kept, left, D in zip(RAMIFIED_TORI, ((2,), (2,), (2, 3), (3,)),
                                     (5, 5, 7, 7), (-20, -20, -84, 21))),
]


def _verify(capsys, argv):
    code = main(["verify", *argv])
    captured = capsys.readouterr()
    if not captured.out:
        return code, captured.err
    rows = json.loads(captured.out)["reports"]
    return code, dict(Counter(row["verdict"] for row in rows))


def _cell_id(mutant, argv):
    # the torus joins the id where a mutant runs one identity on several
    tori = {a[2] for m, a, _, _ in CELLS if (m, a[0]) == (mutant, argv[0])}
    return f"{mutant}-{argv[0]}" + (f"-{argv[2]}" if len(tori) > 1 else "")


@pytest.mark.parametrize("mutant,argv,code,outcome", CELLS,
                         ids=[_cell_id(m, a) for m, a, _, _ in CELLS])
def test_mutant_cell(capsys, monkeypatch, mutant, argv, code, outcome):
    assert _verify(capsys, argv)[0] == 0  # the real code passes
    MUTANTS[mutant](monkeypatch)
    assert _verify(capsys, argv) == (code, outcome)


def test_smith_mutant_at_the_cohomology_binding_alone(capsys, monkeypatch):
    # H^n is read off the Smith invariants through cohomology's own
    # binding, so a fault there reaches the tnc row with no other binding
    # patched
    for cache in CACHES:
        cache.cache_clear()
    monkeypatch.setattr(cohomology, "smith_normal_form",
                        _doubled_smith(exactcore.smith_normal_form))
    assert _verify(capsys, ("tnc", "--torus", "norm1:-23")) == (1, {"FAIL": 1})
