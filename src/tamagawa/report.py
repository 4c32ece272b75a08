"""Structured verification reports and JSON rendering.

The JSON schema is versioned and intentionally boring: rationals are
rendered as strings "a/b" so nothing downstream ever sees a rounded
rational, floats that carry an error bound are rendered as
{"value": ..., "abs_err": ...} objects.  A report is a function of the
echoed config alone: the same invocation gives the same bytes on every run,
whatever --jobs (which changes nothing) and --out say, so nothing time-
dependent may enter these structures; wall-clock timings go to stderr in
the CLI instead.

`render_report_bytes` writes the bytes that `json.dumps(..., sort_keys=True,
indent=2)` gives for the document's JSON form (a rational as "a/b", a Real
as its object, a tuple as a list, a key as its str, the last of keys with
one str), in one pass: with an indent, `json.dumps` leaves its C encoder
unused.  The report is pure ASCII, since every key and string goes through
`encode_basestring_ascii` or `json.dumps`, so it is built once, in one
bytearray, which the CLI writes to stdout and --out in one piece: no list
of rows, no joined str and no encoded copy is made.  `render_report`
decodes that buffer for a caller that wants a str.  One function,
`_render`, writes every key, brace and indent of a row: a row renders as
its document {identity, inputs, values, verdict[, cause]}.  The euler
rows, one per good prime and nearly all of a report's bytes, are made by
`euler_rows` as the runner computes them, from a PASS and a FAIL bytes
%-format that `_render` writes once per torus with `_Slot`s for values: a
run of PASS rows is filled with one % into the format of that many rows, a
FAIL row into its own, and each comes as one `RenderedRow`, whose bytes
are appended as they are.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import stat
from collections import namedtuple
from fractions import Fraction

from .exactcore import Record

SCHEMA_VERSION = 1

PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"

_VERDICTS = (PASS, FAIL, INCONCLUSIVE)

IDENTITIES = ("euler", "lifting", "globalinv", "local-density", "tnc", "sha-bk")


class Real(namedtuple("Real", "value abs_err")):
    """A float together with an absolute error bound, for JSON rendering."""

    __slots__ = ()


class RenderedRow(namedtuple("RenderedRow", "verdict text")):
    """One row, or a run of rows of one verdict joined as a report separates
    them, already rendered as ASCII bytes by a runner that renders its rows
    as it computes them.  A report appends the bytes as they are; `verdict`
    is that of every row in them."""

    __slots__ = ()


class VerificationReport(Record, namedtuple("VerificationReport", "identity inputs values verdict cause")):
    """One row of a report; `inputs` and `values` default to a fresh {}."""

    __slots__ = ()

    def __new__(cls, identity: str, inputs: dict | None = None, values: dict | None = None,
                verdict: str = PASS, cause: str | None = None):
        if identity not in IDENTITIES:
            raise ValueError(f"unknown identity {identity!r}")
        if verdict not in _VERDICTS:
            raise ValueError(f"unknown verdict {verdict!r}")
        if verdict != PASS and not cause:
            raise ValueError("FAIL/INCONCLUSIVE reports need a cause")
        return super().__new__(cls, identity, {} if inputs is None else inputs,
                               {} if values is None else values, verdict, cause)


_dumps = json.dumps
_quote = json.encoder.encode_basestring_ascii


class _Slot(str):
    """Raw text that `_render` writes as it is, unquoted: a %-conversion of
    a template, or a str already quoted and %-escaped."""

    __slots__ = ()


def _render(obj, nl: str) -> str:
    """`obj` as `json.dumps(..., sort_keys=True, indent=2)` renders its JSON
    form at the depth whose line break and indent is `nl`."""
    kind = type(obj)  # the leaves most reports are made of, first
    if kind is str:
        return _quote(obj)
    if kind is int:
        return int.__repr__(obj)
    if kind is Fraction:
        return f'"{obj.numerator}/{obj.denominator}"'
    if kind is _Slot:
        return obj
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None or isinstance(obj, (bool, float)):
        return _dumps(obj)
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, Fraction):
        return f'"{obj.numerator}/{obj.denominator}"'
    if isinstance(obj, Real):
        obj = {"value": obj.value, "abs_err": obj.abs_err}
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = nl + "  "
        return "{" + inner + ("," + inner).join(
            [_quote(k) + ": " + _render(v, inner)
             for k, v in sorted({str(k): v for k, v in obj.items()}.items())]
        ) + nl + "}"
    if isinstance(obj, list) or kind is tuple:  # not a record
        if not obj:
            return "[]"
        inner = nl + "  "
        return "[" + inner + ("," + inner).join([_render(v, inner) for v in obj]) + nl + "]"
    raise TypeError(f"cannot render {type(obj).__name__} in a report")


_ROW_NL = "\n    "
_FIRST_ROW = _ROW_NL.encode()
_NEXT_ROW = b"," + _FIRST_ROW
# PASS euler rows per RenderedRow: a run joined in one piece passes through
# the runners and the renderer once, and stays small beside the report
EULER_CHUNK = 32


def _render_row(identity, inputs, values, verdict, cause=None) -> str:
    """One row as its document {identity, inputs, values, verdict[, cause]}."""
    row = {"identity": identity, "inputs": inputs, "values": values, "verdict": verdict}
    if cause is not None:
        row["cause"] = cause
    return _render(row, _ROW_NL)


def euler_rows(label, dim, terms):
    """The euler rows of the torus `label` of dimension d = `dim`, from its
    good-prime terms (p, p^d * E_p(1), |T(F_p)|): a row PASSes when the two
    counts agree.  E_p(1) and the density are "a/b" in lowest terms.  The
    scaled factor charpoly(Fr)(p) is congruent to charpoly(Fr)(0) =
    det(-Fr) = +-1 mod p, since Fr has finite order, so it is prime to p^d
    and a PASS row writes its counts over p^d as they are; a FAIL row
    reduces both fractions.
    A run of EULER_CHUNK PASS rows is filled into one bytes %-format of that
    many rows, joined as a report separates them, and comes as one
    `RenderedRow`, as does a shorter run before a FAIL row or at the end; a
    FAIL row comes alone."""
    # the conversions in sorted key order: [cause,] p, density, euler_factor,
    # point_count; the label, %-escaped, converts nothing
    integer, ratio = _Slot("%d"), _Slot('"%d/%d"')
    inputs = {"torus": _Slot(_quote(label).replace("%", "%%")), "p": integer}
    values = {"euler_factor": ratio, "point_count": integer, "density": ratio}
    ok = _render_row("euler", inputs, values, PASS).encode()
    bad = _render_row("euler", inputs, values, FAIL, _Slot("%s")).encode()
    # six values per PASS row; the format of a full run is built once
    size = 6 * EULER_CHUNK
    full = _NEXT_ROW.join([ok] * EULER_CHUNK)

    def run_of(args):
        fmt = full if len(args) == size else _NEXT_ROW.join([ok] * (len(args) // 6))
        return RenderedRow(PASS, fmt % tuple(args))

    args = []
    for p, scaled, count in terms:
        pd = p ** dim
        if scaled == count:
            args += p, scaled, pd, scaled, pd, count
            if len(args) == size:
                yield run_of(args)
                args = []
            continue
        if args:
            yield run_of(args)
            args = []
        g = math.gcd(scaled, pd)
        h = math.gcd(count, pd)
        cause = _quote(f"p^d * E_p(1) = {scaled} != {count}").encode()
        yield RenderedRow(FAIL, bad % (cause, p, count // h, pd // h, scaled // g, pd // g, count))
    if args:
        yield run_of(args)


def render_report_bytes(reports, config_echo=None) -> bytearray:
    """The report document as `json.dumps(..., sort_keys=True, indent=2)`
    renders its JSON form, in ASCII: `_render` writes each row, or it comes
    rendered as a `RenderedRow`.  `reports` is read once, so a generator's
    rows are rendered as they come and none is kept; each row's bytes are
    appended to the one buffer as it comes."""
    buf = bytearray(b'{\n  "config_echo": ')
    buf += _render(config_echo or {}, "\n  ").encode()
    buf += b',\n  "reports": ['
    sep = _FIRST_ROW
    for rep in reports:
        buf += sep
        sep = _NEXT_ROW
        if type(rep) is RenderedRow:
            buf += rep.text
            continue
        buf += _render_row(*rep).encode()
    buf += b"\n  ]" if sep is _NEXT_ROW else b"]"
    buf += b',\n  "version": %d\n}\n' % SCHEMA_VERSION
    return buf


def render_report(reports, config_echo=None) -> str:
    """`render_report_bytes`'s document as a str."""
    return render_report_bytes(reports, config_echo).decode("ascii")


def worst_exit_code(reports) -> int:
    """0 if everything passed, 1 on any FAIL, 2 on INCONCLUSIVE-only."""
    verdicts = {r.verdict for r in reports}
    if FAIL in verdicts:
        return 1
    if INCONCLUSIVE in verdicts:
        return 2
    return 0


def write_report_atomic(path: str, data: bytes) -> None:
    """Write `data` to `path` through a temporary file renamed over it, so
    no reader sees half a report.  An existing target that is not a regular
    file (a FIFO, a device) is written in place: a rename would replace it
    with a regular file.  Raises OSError when the report cannot be written,
    e.g. into a missing directory or over a directory."""
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "wb") as fh:
            fh.write(data)
        return
    dirpath = os.path.dirname(os.path.abspath(path))
    for n in itertools.count():
        tmp = os.path.join(dirpath, f".report-{os.getpid()}-{n}.tmp")
        try:
            # 0o666 less the umask, the mode open(path, "w") gives a new file
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
