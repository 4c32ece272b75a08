"""The `verify` front end: its argv and its config file, read into a
RunConfig.

The grammar: the command `verify` first, then at most one identity anywhere.
Long options only, each in full or as an unambiguous prefix (`--tor`), with
the value as `--flag value` or `--flag=value`.  A value may look like a
negative number (`-5`, `-.5`); any other token that starts with `-` is an
option.  --torus repeats; for every other flag the last value wins.  `--`
ends the options; -h/--help prints the help.  A flag value stays the string
given until _merge_config, which reads it as it reads the config file's.
One table, _FLAGS, gives the flags, their help lines and the numeric
defaults, and from these RunConfig's fields and the keys of the config file.

--jobs is accepted and validated but changes nothing: all work runs in one
thread.  It and the output path are excluded from the config echo.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from types import SimpleNamespace

from .errors import ConfigError
from .models import COUNT_BUDGET

# the documented upper ends of --budget and --pmax (README, exit codes): a
# larger value is a configuration error, exit 64.  The sieve up to pmax takes
# pmax bytes, and 10^7 is some 664k euler rows, a report of a few hundred MB
BUDGET_CEILING = 2**62
PMAX_CEILING = 10**7


# The verify flags in help order: name -> (metavar, help line[, default]).
# A flag without a metavar takes no value; one with a default is a numeric
# RunConfig field, and its help line shows the default ("1e-6", not 1e-06).
_FLAGS = {
    "--help": (None, "show this help message and exit"),
    "--torus": ("SPEC", "torus spec family:d or family:d1,d2 (norm1, res, quot)"),
    "--pmax": ("N", "good-prime bound (default {})", 97),
    "--kmax": ("K", "lifting level bound (default {})", 3),
    "--tol": ("TOL", "analytic tolerance (default {})", "1e-6"),
    "--budget": ("N", "enumeration budget (default {})", COUNT_BUDGET),
    "--jobs": ("N", "accepted for compatibility; changes nothing (default {})", 1),
    "--out": ("PATH", "write the JSON report here (atomic)"),
    "--config": ("PATH", "JSON config file; flags win on conflict"),
}


class _LongInt(namedtuple("_LongInt", ["digits"])):
    """A decimal integer of more digits than int() converts
    (sys.get_int_max_str_digits()).  It is no number: a numeric field
    rejects it as out of range, and any other field as of the wrong type."""
    __slots__ = ()

    def __repr__(self):
        return f"an integer of {self.digits} digits"


def _number(text: str):
    """`text` as int() reads it, else as float() does, else `text` itself;
    a _LongInt for a decimal integer that int() refuses for its length.
    json.load reads the config file's integers with it."""
    try:
        return int(text)
    except ValueError:
        digits = text.strip()
        digits = digits[1:] if digits[:1] in ("+", "-") else digits
        # int()'s grammar: decimal digits, one "_" at most between two
        if all(part.isdecimal() for part in digits.split("_")):
            return _LongInt(len(digits.replace("_", "")))  # refused for its length
    try:
        return float(text)
    except ValueError:
        return text


def _config_number(key: str, raw):
    """The value of the numeric field `key` as a flag, the config file or the
    table gives it: a number or a numeric string.  tol is the one real field.
    A bool, or a fraction in an integral field, is an error rather than
    coerced (int(9.9) == 9, float(True) == 1.0)."""
    if isinstance(raw, str):
        raw = _number(raw)
    if isinstance(raw, _LongInt):
        raise ConfigError(f"{key}: out of range: {raw!r}")
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ConfigError(f"{key}: not a number: {raw!r}")
    if key == "tol":
        try:
            return float(raw)
        except OverflowError:
            raise ConfigError(f"{key}: out of range: {raw!r}") from None
    if isinstance(raw, float):
        if not raw.is_integer():
            raise ConfigError(f"{key}: not an integer: {raw!r}")
        return int(raw)
    return raw


# the numeric fields in table order, each with its default
_NUMBERS = {n[2:]: _config_number(n[2:], flag[2]) for n, flag in _FLAGS.items() if flag[2:]}


# the identities in help order: cli runs each through its runner, and "all"
# runs every one that applies to a torus
IDENTITY_CHOICES = ("euler", "lifting", "globalinv", "density", "sha", "tnc", "all")


class RunConfig(namedtuple("RunConfig", ["identity", "tori", *_NUMBERS, "out"],
                           defaults=(*_NUMBERS.values(), None))):
    __slots__ = ()

    def validate(self):
        if self.identity not in IDENTITY_CHOICES:
            raise ConfigError(
                "identity: " + ("an identity is required" if self.identity is None
                                else f"invalid choice: {self.identity!r}")
                + f" (choose from {', '.join(IDENTITY_CHOICES)})")
        if not self.tori:
            raise ConfigError("torus: at least one --torus is required")
        if self.pmax < 3:
            raise ConfigError("pmax: prime bound must be >= 3")
        if self.pmax > PMAX_CEILING:
            raise ConfigError("pmax: prime bound must be <= 10^7")
        if self.kmax < 1:
            raise ConfigError("kmax: level bound must be >= 1")
        if not (self.tol > 0 and math.isfinite(self.tol)):
            raise ConfigError("tol: tolerance must be positive and finite")
        if self.budget < 10**4:
            raise ConfigError("budget: enumeration budget must be >= 10^4")
        if self.budget > BUDGET_CEILING:
            raise ConfigError("budget: enumeration budget must be <= 2^62")
        if self.jobs < 1:
            raise ConfigError("jobs: worker count must be >= 1")

    def echo(self) -> dict:
        # jobs and out, the last two fields, are deliberately not echoed:
        # reports must be byte-identical across job counts and output
        # destinations.  The tori stay a tuple, which renders as a JSON list.
        return dict(zip(self._fields[:-2], self))


def _merge_config(args) -> RunConfig:
    file_cfg = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                file_cfg = json.load(fh, parse_int=_number)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"config: {args.config} line {exc.lineno}: {exc.msg}") from exc
        # JSON is UTF-8, and a deep enough nesting exhausts the decoder's
        # recursion
        except (OSError, ValueError, RecursionError) as exc:
            raise ConfigError(f"config: cannot read {args.config}: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError("config: top level must be an object")
        unknown = file_cfg.keys() - {"identity", "torus", *RunConfig._fields[2:]}
        if unknown:
            raise ConfigError(f"config: unknown field(s) {sorted(unknown)}")
    # a flag wins over the file
    given = {**file_cfg, **{k: v for k, v in vars(args).items() if v is not None}}
    torus_specs = given.get("torus") or []
    if isinstance(torus_specs, str):
        torus_specs = [torus_specs]
    if not isinstance(torus_specs, list) or not all(isinstance(s, str) for s in torus_specs):
        raise ConfigError("torus: expected a spec string or a list of them")
    cfg = RunConfig(given.get("identity"), tuple(torus_specs),
                    *(_config_number(key, given.get(key, default))
                      for key, default in _NUMBERS.items()),
                    given.get("out"))
    if cfg.out is not None and not isinstance(cfg.out, str):
        raise ConfigError("out: expected a file path string")
    if cfg.out == "":
        raise ConfigError("out: the file path is empty")
    cfg.validate()
    return cfg


class UsageError(Exception):
    """An argv that the grammar rejects: exit 64, with the usage on stderr."""


def _is_negative_number(tok: str) -> bool:
    r"""argparse's `^-\d+$|^-\d*\.\d+$`, for a `tok` that starts with "-": a
    value that only looks like an option.  `$` also matches before a final
    newline, and `\d` is a Unicode decimal digit, as `str.isdecimal` is."""
    body = tok[1:-1] if tok.endswith("\n") else tok[1:]
    whole, dot, frac = body.partition(".")
    return body.isdecimal() or bool(dot) and (not whole or whole.isdecimal()) and frac.isdecimal()


def _option(tok: str, names):
    """What `tok` is among the long options `names` and -h, by argparse's
    tests in argparse's order: None for a positional, else (the option, the
    value after its `=` or None), with None for the option if it is unknown."""
    if not tok.startswith("-"):
        return None
    if tok in names or tok == "-h":
        return tok, None
    if len(tok) == 1:
        return None
    head, eq, value = tok.partition("=")
    if eq and (head in names or head == "-h"):
        return head, value
    if tok[1] == "-":
        hits = [name for name in names if name.startswith(head)]
        if len(hits) > 1:
            raise UsageError(f"ambiguous option: {tok} could match {', '.join(hits)}")
        if hits:
            return hits[0], value if eq else None
    elif tok.startswith("-h"):
        return "-h", tok[2:]
    if _is_negative_number(tok) or " " in tok:
        return None
    return None, None


def _check_help(option: str, value) -> None:
    # -hh... repeats the one short option; any other value is an error
    if value is not None and (option != "-h" or not value or value.strip("h")):
        raise UsageError(f"argument -h/--help: ignored explicit argument {value!r}")


def parse_args(argv):
    """The flags of a `verify` argv, as attributes named after them plus
    `identity`, each None where not given and else the string given (a list
    of them for --torus); None when -h/--help asks for the help text.  A
    rejected argv raises UsageError.

    The grammar, outcomes and order of checks are those of the two argparse
    parsers this replaces (the top level and its `verify` subparser).  The
    first error or help request ends the parse, except that unknown options
    and surplus positionals are reported only once the rest has parsed."""
    argv = list(argv)
    extras = []
    for i, tok in enumerate(argv):
        option = None if tok == "--" else _option(tok, ("--help",))
        if option is None:
            if tok != "verify":
                raise UsageError(f"argument command: invalid choice: {tok!r} "
                                 "(choose from 'verify')")
            return _parse_verify(argv[i + 1:], extras)
        if option[0] is None:
            extras.append(tok)
        else:
            _check_help(*option)
            return None
    raise UsageError("the following arguments are required: command")


def _parse_verify(argv, extras):
    end = argv.index("--") if "--" in argv else len(argv)
    # every token is classified before any acts: an ambiguous prefix is an
    # error even after -h
    options = [_option(tok, _FLAGS) for tok in argv[:end]]
    args = dict.fromkeys(["identity", *(name[2:] for name, flag in _FLAGS.items() if flag[0])])
    identity_at = None
    i = 0
    while i < end:
        tok, option = argv[i], options[i]
        i += 1
        if option is None:
            if identity_at is None:
                args["identity"], identity_at = tok, i - 1
            else:
                extras.append(tok)
            continue
        name, value = option
        if name is None:
            extras.append(tok)
            continue
        if name in ("-h", "--help"):
            _check_help(name, value)
            return None
        if value is None and i < end and options[i] is None:
            value, i = argv[i], i + 1
        if value in (None, "--"):  # --flag=-- gives no value, as --flag -- does
            raise UsageError(f"argument {name}: expected one argument")
        if name == "--torus":
            args["torus"] = (args["torus"] or []) + [value]
        else:
            args[name[2:]] = value
    if end < len(argv):
        # "--" goes when it is next to the identity: before it, if the
        # identity is still to come, or right after it
        rest = argv[end + 1:]
        if identity_at is None:
            if rest:
                args["identity"] = rest.pop(0)
        elif identity_at < end - 1:
            rest.insert(0, "--")
        extras += rest
    if extras:
        raise UsageError(f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(**args)
