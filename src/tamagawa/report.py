"""Structured verification reports and JSON rendering.

The JSON schema is versioned and intentionally boring: rationals are
rendered as strings "a/b" so nothing downstream ever sees a rounded
rational, floats that carry an error bound are rendered as
{"value": ..., "abs_err": ...} objects.  A report is a function of the
echoed config alone: the same invocation gives the same bytes on every run,
whatever --jobs (which changes nothing) and --out say, so nothing time-
dependent may enter these structures; wall-clock timings go to stderr in
the CLI instead.

`render_report` writes the text that `json.dumps(..., sort_keys=True,
indent=2)` gives for the document's JSON form (a rational as "a/b", a Real
as its object, a tuple as a list, a key as its str, the last of keys with
one str), in one pass: with an indent, `json.dumps` leaves its C encoder
unused.  Rows of one shape (identity, verdict, whether there is a cause,
the keys) share one cached %-format that holds every key, brace and
indent, so a row renders only its values.
"""

from __future__ import annotations

import itertools
import json
import os
import stat
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

SCHEMA_VERSION = 1

PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"

_VERDICTS = (PASS, FAIL, INCONCLUSIVE)

IDENTITIES = ("euler", "lifting", "globalinv", "local-density", "tnc", "sha-bk")


class Real(namedtuple("Real", "value abs_err")):
    """A float together with an absolute error bound, for JSON rendering."""

    __slots__ = ()


class VerificationReport(namedtuple("VerificationReport", "identity inputs values verdict cause")):
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

    @classmethod
    def _make(cls, iterable):
        # namedtuple's own _make, which _replace calls, skips __new__
        return cls(*iterable)


_dumps = json.dumps
_quote = json.encoder.encode_basestring_ascii


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
_NEXT_ROW = "," + _ROW_NL
_FIELD_NL = _ROW_NL + "  "
_ENTRY_NL = _FIELD_NL + "  "


def _slots(keys):
    """A field's %-format and the keys that fill its slots; None: one slot
    for the field.  A non-str key also takes one slot, so that keys equal as
    values but not as str (1, 1.0, True) never share a format."""
    if keys is None or any(type(k) is not str for k in keys):
        return "%s", None
    names = sorted(keys)
    return ("{" + _ENTRY_NL + ("," + _ENTRY_NL).join(
        [_quote(k).replace("%", "%%") + ": %s" for k in names]) + _FIELD_NL + "}"
        if names else "{}"), names


@lru_cache(maxsize=256)
def _row_format(identity, verdict, has_cause, input_keys, value_keys):
    """One row's text as a %-format, the keys in `json.dumps`'s sorted order,
    and the keys of inputs and of values that fill its slots."""
    inputs, input_names = _slots(input_keys)
    values, value_names = _slots(value_keys)
    fields = ['"cause": %s'] if has_cause else []
    fields += ['"identity": ' + _quote(identity).replace("%", "%%"), '"inputs": ' + inputs,
               '"values": ' + values, '"verdict": ' + _quote(verdict).replace("%", "%%")]
    return "{" + _FIELD_NL + ("," + _FIELD_NL).join(fields) + _ROW_NL + "}", input_names, value_names


def _fill(obj, names):
    if names is None:
        return [_render(obj, _FIELD_NL)]
    return [_render(obj[k], _ENTRY_NL) for k in names]


def render_report(reports, config_echo=None) -> str:
    """The report document as `json.dumps(..., sort_keys=True, indent=2)`
    renders its JSON form: each row fills the cached format of its shape.
    `reports` is read once, so a generator's rows are rendered as they come
    and none is kept; the text is joined once, from the head, each row and
    its separator, and the tail."""
    parts = ['{\n  "config_echo": ', _render(config_echo or {}, "\n  "), ',\n  "reports": [']
    append = parts.append
    sep = _ROW_NL
    for rep in reports:
        inputs, values, cause = rep.inputs, rep.values, rep.cause
        fmt, input_names, value_names = _row_format(
            rep.identity, rep.verdict, cause is not None,
            tuple(inputs) if isinstance(inputs, dict) else None,
            tuple(values) if isinstance(values, dict) else None)
        args = [] if cause is None else [_render(cause, _FIELD_NL)]
        args += _fill(inputs, input_names)
        args += _fill(values, value_names)
        append(sep)
        append(fmt % tuple(args))
        sep = _NEXT_ROW
    append("\n  ]" if sep is _NEXT_ROW else "]")
    append(',\n  "version": ' + _render(SCHEMA_VERSION, "\n  ") + "\n}\n")
    return "".join(parts)


def worst_exit_code(reports) -> int:
    """0 if everything passed, 1 on any FAIL, 2 on INCONCLUSIVE-only."""
    verdicts = {r.verdict for r in reports}
    if FAIL in verdicts:
        return 1
    if INCONCLUSIVE in verdicts:
        return 2
    return 0


def write_report_atomic(path: str, text: str) -> None:
    """Write `text` to `path` through a temporary file renamed over it, so
    no reader sees half a report.  An existing target that is not a regular
    file (a FIFO, a device) is written in place: a rename would replace it
    with a regular file.  Raises OSError when the report cannot be written,
    e.g. into a missing directory or over a directory."""
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "w") as fh:
            fh.write(text)
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
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
