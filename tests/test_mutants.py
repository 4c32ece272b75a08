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

from tamagawa import galois, models
from tamagawa.cli import main
from tamagawa.quadfield import QuadField

CACHES = (galois._frobenius_polynomials, models.cached_point_count)


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


MUTANTS = {"frobenius-swap": swap_quadratic_frobenius,
           "charpoly-constant": bump_class_one_constant}

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
]


def _verify(capsys, argv):
    code = main(["verify", *argv])
    captured = capsys.readouterr()
    if not captured.out:
        return code, captured.err
    rows = json.loads(captured.out)["reports"]
    return code, dict(Counter(row["verdict"] for row in rows))


@pytest.mark.parametrize("mutant,argv,code,outcome", CELLS,
                         ids=[f"{m}-{a[0]}" for m, a, _, _ in CELLS])
def test_mutant_cell(capsys, monkeypatch, mutant, argv, code, outcome):
    assert _verify(capsys, argv)[0] == 0  # the real code passes
    MUTANTS[mutant](monkeypatch)
    assert _verify(capsys, argv) == (code, outcome)
