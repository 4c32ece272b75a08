"""The package's 21 immutable records: construction, defaults, validators,
immutability and hashing, one parametrized case per record."""

import re
from fractions import Fraction

import pytest

from tamagawa.cli import RunConfig
from tamagawa.cohomology import _Presentation
from tamagawa.exactcore import AbelianGroupInvariants, IntMatrix, SnfResult
from tamagawa.galois import FiniteGroup, GaloisLattice, TorusSpec
from tamagawa.globalasm import ArchVolume, CGammaResult, GlobalReport, LValue, TauValue
from tamagawa.localmeasure import LocalDensity
from tamagawa.models import AffineModel
from tamagawa.quadfield import BiquadField, ClassGroupData, QuadField, UnitData
from tamagawa.report import FAIL, PASS, Real, VerificationReport

I1 = IntMatrix(1, 1, (1,))
NEG1 = IntMatrix(1, 1, (-1,))
C2 = FiniteGroup(("e", "s"), ((0, 1), (1, 0)))
C3 = FiniteGroup.cyclic(3)
SIGN = GaloisLattice(C2, 1, (I1, NEG1))
MODEL_FIELDS = ("norm-one", 2, 1, -4, (1, 0), "dx/(dF/dy)")
MODEL = AffineModel(*MODEL_FIELDS)
VOLUME_FIELDS = (1.5707963267948966, 1.8e-15, 4, 0)
VOLUME = ArchVolume(*VOLUME_FIELDS)

# record -> (one value per field, in field order; defaults of the trailing
# fields, which a construction from the leading fields alone must give)
RECORDS = {
    IntMatrix: ((2, 2, (1, 0, 0, 1)), {}),
    SnfResult: (((1, 2), None, IntMatrix.identity(2), IntMatrix.identity(2)), {}),
    AbelianGroupInvariants: ((1, (2, 4)), {}),
    Real: ((1.5, 1e-9), {}),
    VerificationReport: (("euler", {"p": 3}, {"x": 1}, FAIL, "why"),
                         {"inputs": {}, "values": {}, "verdict": PASS, "cause": None}),
    RunConfig: (("euler", ("norm1:-1",), 7, 2, 1e-3, 10**5, 2, "r.json"),
                {"pmax": 97, "kmax": 3, "tol": 1e-6, "budget": 10**8, "jobs": 1, "out": None}),
    _Presentation: ((1, IntMatrix(1, 1, (2,))), {}),
    QuadField: ((-1, -4), {}),
    ClassGroupData: ((-4, 1, ((1, 0, 1),)), {}),
    UnitData: ((5, 0, 1, 1, 1, -1, 0.4812118250596034), {}),
    BiquadField: ((-1, 5, -5, -4, 5, -20), {}),
    AffineModel: (MODEL_FIELDS, {}),
    FiniteGroup: ((("e", "s"), ((0, 1), (1, 0))), {}),
    GaloisLattice: ((C2, 1, (I1, NEG1)), {}),
    TorusSpec: (("norm-one", QuadField(-1, -4), 1, SIGN, SIGN.dual(), MODEL, "norm1:-1"), {}),
    LocalDensity: ((2, Fraction(2), "brute-force", ((1, 2, Fraction(2)),), True), {}),
    ArchVolume: (VOLUME_FIELDS, {}),
    LValue: ((-4, 0.7853981633974483, 1e-15), {}),
    CGammaResult: ((1, False, ()), {}),
    TauValue: (("norm1:-1", 2.0, 1e-9, Real(0.5, 1e-12), ((2, Fraction(2)),), VOLUME, (2,)), {}),
    GlobalReport: (("norm1:-1", "PASS", None, Real(2.0, 1e-9), Fraction(2), 1, False, 2, 2, 2),
                   dict.fromkeys(("tau_tam", "ono", "c_gamma", "c_gamma_heuristic", "sha_bk",
                                  "h1_order", "h0_dual_order"))),
}

# record -> [(field values, the ValueError message)]
INVALID = {
    IntMatrix: [((2, 2, (1,)), "entry count must equal rows*cols")],
    AbelianGroupInvariants: [((0, (2, 3)), "factors must form a divisibility chain"),
                             ((0, (1,)), "factors must be > 1")],
    VerificationReport: [(("bogus",), "unknown identity 'bogus'"),
                         (("euler", {}, {}, "MAYBE"), "unknown verdict 'MAYBE'"),
                         (("euler", {}, {}, FAIL), "FAIL/INCONCLUSIVE reports need a cause"),
                         (("euler", {}, {}, FAIL, ""), "FAIL/INCONCLUSIVE reports need a cause")],
    QuadField: [((4, 16), "d = 4 is not squarefree != 1"),
                ((1, 1), "d = 1 is not squarefree != 1"),
                ((-1, -1), "disc does not match d")],
    FiniteGroup: [((("e", "s"), ((0, 1),)), "table shape mismatch"),
                  ((("e", "s"), ((0, 1), (1, 2))), "table not closed"),
                  ((("e", "s"), ((1, 0), (0, 1))), "element 0 is not an identity"),
                  ((("e", "s"), ((0, 1), (1, 1))), "element 1 has no inverse"),
                  ((("e", "a", "b"), ((0, 1, 2), (1, 0, 0), (2, 0, 0))),
                   "table is not associative")],
    GaloisLattice: [((C2, 1, (I1,)), "one matrix per group element required"),
                    ((C2, 1, (NEG1, I1)), "identity must act as the identity matrix"),
                    ((C2, 1, (I1, IntMatrix.identity(2))), "rank mismatch"),
                    ((C2, 1, (I1, IntMatrix(1, 1, (2,)))), "action matrix is not unimodular"),
                    ((C3, 1, (I1, NEG1, NEG1)), "action is not a homomorphism")],
}


def test_every_record_is_covered():
    assert len(RECORDS) == 21
    assert set(INVALID) <= set(RECORDS)


@pytest.mark.parametrize("record", list(RECORDS), ids=lambda r: r.__name__)
def test_record_semantics(record):
    values, defaults = RECORDS[record]
    fields = record._fields
    assert len(fields) == len(values)

    # positional and keyword construction
    r = record(*values)
    assert r == record(**dict(zip(fields, values)))
    assert all(getattr(r, f) is v for f, v in zip(fields, values))
    assert type(r) is record and repr(r).startswith(f"{record.__name__}(")

    # defaults: the trailing fields may be left out, and a default dict is
    # fresh per instance
    required = len(fields) - len(defaults)
    assert tuple(defaults) == fields[required:]
    a, b = record(*values[:required]), record(*values[:required])
    assert tuple(a) == values[:required] + tuple(defaults.values())
    for name, value in defaults.items():
        if isinstance(value, dict):
            assert getattr(a, name) is not getattr(b, name)
    with pytest.raises(TypeError):
        record(*values[:required - 1])

    # the validators, message for message
    for bad, message in INVALID.get(record, []):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            record(*bad)

    # immutable, with no room for new attributes
    with pytest.raises(AttributeError):
        setattr(r, fields[0], values[0])
    with pytest.raises(AttributeError):
        r.extra = 1

    # the hash of the frozen dataclass each record was: that of its field tuple
    try:
        expected = hash(tuple(r))
    except TypeError:  # a VerificationReport holds dicts
        with pytest.raises(TypeError):
            hash(r)
    else:
        assert hash(r) == expected


@pytest.mark.parametrize("record", list(INVALID), ids=lambda r: r.__name__)
def test_make_and_replace_validate(record):
    # namedtuple's own _make, and _replace through it, would skip __new__
    values, defaults = RECORDS[record]
    valid = record(*values)
    assert record._make(values) == valid == valid._replace()
    for bad, message in INVALID[record]:
        fields = {**defaults, **dict(zip(record._fields, bad))}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            record._make(bad)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            valid._replace(**fields)
