"""The mutant matrix: for a deliberate fault in one kernel, which verify
rows catch it.  Each cell runs one argv with the mutant installed and pins
the exit code and the verdict counts; a blind cell (exit 0 under a fault)
names the ROADMAP item that would make it catch.

A mutant replaces the function at every binding, the defining module's and
each `from ... import` copy, so no caller keeps the real one."""

import json
import sys
from collections import Counter

import pytest

from tamagawa import galois
from tamagawa.cli import main
from tamagawa.quadfield import QuadField


def _patch_every_binding(monkeypatch, real, fake):
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


MUTANTS = {"frobenius-swap": swap_quadratic_frobenius}

# (mutant, argv, exit code, verdict counts)
CELLS = [
    # the good-prime cross-checks compare the Frobenius count with the
    # affine model's count at p <= 13
    ("frobenius-swap", ("density", "--torus", "norm1:-1"), 1, {"PASS": 1, "FAIL": 5}),
    # blind: both sides of an euler row are polynomials of the same wrong
    # class; ROADMAP item 3 (euler rows that count points) would catch it
    ("frobenius-swap", ("euler", "--torus", "norm1:-1", "--pmax", "97"), 0, {"PASS": 24}),
    # blind: tau reads only the bad primes, and its good-factor check
    # compares the same two polynomials of the class; ROADMAP item 3
    ("frobenius-swap", ("tnc", "--torus", "norm1:-1"), 0, {"PASS": 1}),
]


def _verify(capsys, argv):
    code = main(["verify", *argv])
    rows = json.loads(capsys.readouterr().out)["reports"]
    return code, dict(Counter(row["verdict"] for row in rows))


@pytest.mark.parametrize("mutant,argv,code,verdicts", CELLS,
                         ids=[f"{m}-{a[0]}" for m, a, _, _ in CELLS])
def test_mutant_cell(capsys, monkeypatch, mutant, argv, code, verdicts):
    assert _verify(capsys, argv)[0] == 0  # the real code passes
    MUTANTS[mutant](monkeypatch)
    assert _verify(capsys, argv) == (code, verdicts)
