"""Command-line driver.

    tamagawa verify <identity> --torus norm1:-1 [--pmax 97] [--tol 1e-6] ...

Identities: euler, lifting, globalinv, density, sha, tnc, all.
Exit codes: 0 all PASS, 1 any FAIL, 2 INCONCLUSIVE only, 64 usage or
config error or violated structural assumption (Q-rank gate, unsupported
family), 70 internal error (a failed internal consistency check), 73 the
report could not be written to --out (EX_CANTCREAT), 74 it could not be
written to stdout, say to a pipe whose reader has exited (EX_IOERR).
The rows are rendered into one ASCII byte buffer as they are computed, and
the report is written from it in one piece after the last: a run that exits
64 or 70 writes nothing to stdout or --out.

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
thread.  It and the output path are excluded from the config echo, timings
go to stderr only.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from collections import namedtuple
from itertools import islice
from types import SimpleNamespace

from .cohomology import cohomology, h0_torsion_dual, ono_constant, q_rank
from .errors import (
    BudgetExceededError,
    ConfigError,
    NotStabilizedError,
    QRankError,
    UnsupportedTorusError,
)
from .exactcore import primes_up_to
from .galois import (
    TAG_FAMILIES,
    TorusSpec,
    build_torus,
    counting_budget,
    good_euler_terms,
    is_good_prime,
)
from .globalasm import c_gamma, verify_tnc
from .localmeasure import (
    CROSS_CHECK_PMAX,
    affine_model,
    bad_prime_density,
    cross_validate_density,
    level_counts,
)
from .models import COUNT_BUDGET
from .quadfield import BiquadField, QuadField
from .report import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    VerificationReport,
    euler_rows,
    render_report_bytes,
    worst_exit_code,
    write_report_atomic,
)

BUDGET_ENV = "TAMAGAWA_BUDGET"
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
    "--budget": ("N", f"enumeration budget (default {{}}, env {BUDGET_ENV})", COUNT_BUDGET),
    "--jobs": ("N", "accepted for compatibility; changes nothing (default {})", 1),
    "--out": ("PATH", "write the JSON report here (atomic)"),
    "--config": ("PATH", "JSON config file; flags win on conflict"),
}


def _config_number(key: str, raw):
    """The value of the numeric field `key` as a flag, the config file, the
    table or TAMAGAWA_BUDGET gives it: a number or a numeric string.  tol is
    the one real field.  A bool, or a fraction in an integral field, is an
    error rather than coerced (int(9.9) == 9, float(True) == 1.0)."""
    if isinstance(raw, str):
        try:
            raw = int(raw)
        except ValueError:
            try:
                raw = float(raw)
            except ValueError:
                raise ConfigError(f"{key}: not a number: {raw!r}") from None
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


def _decimal(s: str) -> int:
    """`s` as an int if it is [+-]?[0-9]+: int() alone also reads "1_3",
    " +13 " and the digits of other scripts."""
    digits = s[1:] if s[:1] in ("+", "-") else s
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"d must be ASCII decimal, not {s!r}")
    return int(s)


def parse_torus(spec: str) -> TorusSpec:
    try:
        tag, _, ds = spec.partition(":")
        if tag not in TAG_FAMILIES:
            raise ValueError(f"unknown family tag {tag!r}, expected one of "
                             f"{sorted(TAG_FAMILIES)}")
        parts = [_decimal(x) for x in ds.split(",")] if ds else []
        if len(parts) == 1:
            field = QuadField.from_d(parts[0])
        elif len(parts) == 2:
            field = BiquadField.from_pair(parts[0], parts[1])
        else:
            raise ValueError("expected family:d or family:d1,d2")
        return build_torus(TAG_FAMILIES[tag], field)
    except (ValueError, UnsupportedTorusError) as exc:
        raise ConfigError(f"torus: cannot parse {spec!r}: {exc}") from exc


def run_euler(torus: TorusSpec, cfg: RunConfig):
    """The euler rows, one per good prime up to cfg.pmax, filled into bytes
    as they are computed: a report appends them and keeps no row.  If the
    budget left a class counted at fewer than d + 1 primes, one stderr line
    then says how many rows rest on its polynomial alone."""
    short = []
    terms = good_euler_terms(torus, primes_up_to(cfg.pmax), cfg.budget, short)
    yield from euler_rows(torus.label, torus.dim, terms)
    if short:
        print(f"[uncounted] {torus.label} euler: {len(short)} rows rest on a class "
              f"polynomial counted at fewer than d + 1 primes; --budget "
              f"{counting_budget(torus, short)} leaves none", file=sys.stderr)


def run_lifting(torus: TorusSpec, cfg: RunConfig):
    model = affine_model(torus)
    rows = []
    for p in primes_up_to(min(cfg.pmax, CROSS_CHECK_PMAX)):
        if not is_good_prime(torus, p):
            continue
        # islice's stop may not exceed sys.maxsize; no budget admits over 31 levels
        levels = islice(level_counts(model, p, cfg.budget), min(cfg.kmax, sys.maxsize))
        counts = [count for _, count in levels]
        inputs = {"torus": torus.label, "p": p}
        values = {"counts": counts, "levels": len(counts)}
        if len(counts) < 2:
            limit = "budget" if len(counts) < cfg.kmax else f"--kmax {cfg.kmax}"
            rows.append(VerificationReport(
                "lifting", inputs, values, INCONCLUSIVE,
                cause=f"{limit} admits only {len(counts)} level(s) at p={p}",
            ))
            continue
        step = p ** torus.dim
        ok = all(counts[i + 1] == step * counts[i] for i in range(len(counts) - 1))
        rows.append(VerificationReport(
            "lifting", inputs, values,
            PASS if ok else FAIL,
            cause=None if ok else f"counts {counts} violate the p^d lifting step",
        ))
    return rows


def run_globalinv(torus: TorusSpec, cfg: RunConfig):
    h1 = cohomology(torus.xstar, 1)
    h0d = h0_torsion_dual(torus.xstar)
    ok = h1.order == h0d.order
    return [VerificationReport(
        identity="globalinv",
        inputs={"torus": torus.label},
        values={"h1": h1.describe(), "h1_order": h1.order,
                "h0_torsion_dual": h0d.describe(), "h0_dual_order": h0d.order},
        verdict=PASS if ok else FAIL,
        cause=None if ok else f"#H^1 = {h1.order} != {h0d.order}",
    )]


def run_density(torus: TorusSpec, cfg: RunConfig):
    rows = []
    for p in sorted(torus.bad_primes()):
        inputs = {"torus": torus.label, "p": p}
        try:
            dens = bad_prime_density(torus, p, budget=cfg.budget)
            rows.append(VerificationReport(
                "local-density", inputs,
                {"density": dens.value, "trace": dens.trace}, PASS))
        except NotStabilizedError as exc:
            rows.append(VerificationReport(
                "local-density", inputs, {"trace": exc.trace},
                INCONCLUSIVE, cause=str(exc)))
    for p in primes_up_to(min(cfg.pmax, CROSS_CHECK_PMAX)):
        if is_good_prime(torus, p):
            rows.append(cross_validate_density(torus, p, budget=cfg.budget))
    return rows


def run_sha(torus: TorusSpec, cfg: RunConfig):
    c = c_gamma(torus)  # first: a torus it rejects needs no i(T)
    i_t = ono_constant(torus)
    values = {"c_gamma": c.value, "c_gamma_heuristic": False,
              "i_t": i_t, "sha_bk": c.value * i_t}
    if torus.family == "norm-one":
        values["sha"] = i_t
    return [VerificationReport("sha-bk", {"torus": torus.label}, values, PASS)]


def run_tnc(torus: TorusSpec, cfg: RunConfig):
    return [verify_tnc(torus, cfg.tol, cfg.budget)]


_RUNNERS = {
    "euler": run_euler,
    "lifting": run_lifting,
    "globalinv": run_globalinv,
    "density": run_density,
    "sha": run_sha,
    "tnc": run_tnc,
}

IDENTITY_CHOICES = (*_RUNNERS, "all")


def run_all(torus: TorusSpec, cfg: RunConfig):
    """The rows of every identity that applies to `torus`, in order.  Once
    they are out, one stderr line names the identities skipped and why."""
    skipped = []
    yield from run_euler(torus, cfg)
    if torus.model is not None:
        yield from run_lifting(torus, cfg)
        yield from run_density(torus, cfg)
    else:
        skipped.append("lifting, density (no affine model)")
    rank = q_rank(torus)
    if rank == 0:
        yield from run_globalinv(torus, cfg)
        names = "sha, tnc"
        try:
            yield from run_sha(torus, cfg)
            names = "tnc"
            yield from run_tnc(torus, cfg)
        except UnsupportedTorusError as exc:
            # families without a class-index route stop at globalinv
            skipped.append(f"{names} ({exc})")
    else:
        skipped.append(f"globalinv, sha, tnc (Q-rank {rank}, not 0)")
    if skipped:
        print(f"[skipped] {torus.label} all: {'; '.join(skipped)}", file=sys.stderr)


def _merge_config(args) -> RunConfig:
    file_cfg = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"config: {args.config} line {exc.lineno}: {exc.msg}") from exc
        # JSON is UTF-8, an integer has at most 4300 digits, and a deep
        # enough nesting exhausts the decoder's recursion
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
    defaults = RunConfig._field_defaults
    env_budget = os.environ.get(BUDGET_ENV)
    if env_budget is not None:
        try:
            defaults = {**defaults, "budget": _config_number("budget", env_budget)}
        except ConfigError as exc:
            raise ConfigError(f"budget: bad {BUDGET_ENV}={env_budget!r}") from exc
    cfg = RunConfig(given.get("identity"), tuple(torus_specs),
                    *(_config_number(key, given.get(key, defaults[key])) for key in _NUMBERS),
                    given.get("out"))
    if cfg.out is not None and not isinstance(cfg.out, str):
        raise ConfigError("out: expected a file path string")
    if cfg.out == "":
        raise ConfigError("out: the file path is empty")
    cfg.validate()
    return cfg


class UsageError(Exception):
    """An argv that the grammar rejects: exit 64, with the usage on stderr."""


def _usage() -> str:
    head = "usage: tamagawa verify"
    lines, line = [], head
    for part in ("[-h]", *(f"[{name} {meta}]" for name, (meta, *_) in _FLAGS.items() if meta),
                 "[IDENTITY]"):
        if len(line) + 1 + len(part) > 79:
            lines.append(line)
            line = " " * len(head)
        line += " " + part
    return "\n".join(lines + [line]) + "\n"


def _help() -> str:
    rows = "".join(f"  {'-h, --help' if meta is None else f'{name} {meta}':<15}"
                   f"{text.format(*default)}\n"
                   for name, (meta, text, *default) in _FLAGS.items())
    return (f"{_usage()}\nVerify local-global invariants of algebraic tori attached to "
            f"quadratic\nand biquadratic fields.\n\nIDENTITY: {', '.join(IDENTITY_CHOICES)}"
            f"\n\noptions:\n{rows}\n"
            "Long options only, each in full or as an unambiguous prefix, as --flag\n"
            "value or --flag=value.  --torus may repeat; any other flag keeps its last\n"
            "value.  -- ends the options.\n")


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


def _rows(tori, cfg, seen):
    """The rows of every torus in turn, each torus's [timing] line on stderr
    once its last row has rendered.  `seen` keeps one row per verdict, for
    the exit code."""
    runner = run_all if cfg.identity == "all" else _RUNNERS[cfg.identity]
    for torus in tori:
        t0 = time.monotonic()
        for rep in runner(torus, cfg):
            seen[rep.verdict] = rep
            yield rep
        print(f"[timing] {torus.label} {cfg.identity}: "
              f"{time.monotonic() - t0:.2f}s", file=sys.stderr)


def _write_stdout(data: bytes, what: str) -> bool:
    """Write and flush the ASCII `data` in one piece, to stdout's binary
    layer, or as text to a stream that has none (redirect_stdout(StringIO)).
    False, with one error line, if stdout fails, say a pipe whose reader has
    exited.  Its fd then points at os.devnull, so that the flush at
    interpreter exit cannot fail again."""
    out = sys.stdout
    try:
        out.flush()  # any text already written goes first
        if hasattr(out, "buffer"):
            out = out.buffer
        else:
            data = data.decode()
        out.write(data)
        out.flush()
        return True
    except OSError as exc:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: cannot write {what} to stdout: {exc.strerror or exc}", file=sys.stderr)
        return False


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        sys.stderr.write(f"{_usage()}tamagawa: error: {exc}\n")
        return 64
    if args is None:
        return 0 if _write_stdout(_help().encode(), "help") else 74
    try:
        cfg = _merge_config(args)
        tori = [parse_torus(s) for s in cfg.tori]
        # the rows are computed as the report renders them, so an error in
        # any of them ends the run before a byte of the report is written
        seen = {}
        data = render_report_bytes(_rows(tori, cfg, seen), cfg.echo())
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 64
    except (QRankError, UnsupportedTorusError, BudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 64
    except ArithmeticError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 70
    code = worst_exit_code(seen.values()) if _write_stdout(data, "report") else 74
    if cfg.out:
        try:
            write_report_atomic(cfg.out, data)
        except OSError as exc:
            print(f"error: cannot write report to {cfg.out}: {exc.strerror or exc}",
                  file=sys.stderr)
            return 73
    return code


def console_entry():
    raise SystemExit(main())


if __name__ == "__main__":
    console_entry()
