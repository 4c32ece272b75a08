"""Command-line driver.

    tamagawa verify <identity> --torus norm1:-1 [--pmax 97] [--tol 1e-6] ...

Identities: euler, lifting, globalinv, density, sha, tnc, all.
Exit codes: 0 all PASS, 1 any FAIL, 2 INCONCLUSIVE only, 64 usage or
config error or violated structural assumption (Q-rank gate, unsupported
family), 70 internal error (a failed internal consistency check), 73 the
report could not be written to --out (EX_CANTCREAT), 74 it could not be
written to stdout, say to a pipe whose reader has exited (EX_IOERR).
The rows are rendered as they are computed and the report is written in
one piece after the last: a run that exits 64 or 70 writes nothing to
stdout or --out.

The grammar: the command `verify` first, then at most one identity anywhere.
Long options only, each in full or as an unambiguous prefix (`--tor`), with
the value as `--flag value` or `--flag=value`.  A value may look like a
negative number (`-5`, `-.5`); any other token that starts with `-` is an
option.  --torus repeats; for every other flag the last value wins.  `--`
ends the options; -h/--help prints the help.  One table, _FLAGS, gives the
flags, their converters and their help lines.

--jobs is accepted and validated but changes nothing: all work runs in one
thread.  It and the output path are excluded from the config echo, timings
go to stderr only.
"""

from __future__ import annotations

import gc
import json
import math
import os
import sys
import time
from collections import namedtuple
from fractions import Fraction
from types import SimpleNamespace

from .cohomology import cohomology, h0_torsion_dual, ono_constant, sha_order
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
    good_euler_terms,
    is_good_prime,
    q_rank,
)
from .globalasm import c_gamma, verify_tnc
from .localmeasure import bad_prime_density, cached_point_count, cross_validate_density
from .models import COUNT_BUDGET
from .quadfield import BiquadField, QuadField
from .report import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    VerificationReport,
    render_report,
    worst_exit_code,
    write_report_atomic,
)

BUDGET_ENV = "TAMAGAWA_BUDGET"
# the documented upper end of --budget (README, exit codes): a larger
# budget is a configuration error, exit 64
BUDGET_CEILING = 2**62


class RunConfig(namedtuple("RunConfig", "identity tori pmax kmax tol budget jobs out",
                           defaults=(97, 3, 1e-6, COUNT_BUDGET, 1, None))):
    __slots__ = ()

    def validate(self):
        if self.identity not in IDENTITY_CHOICES:
            raise ConfigError(f"identity: unknown identity {self.identity!r}")
        if not self.tori:
            raise ConfigError("torus: at least one --torus is required")
        if self.pmax < 3:
            raise ConfigError("pmax: prime bound must be >= 3")
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


def parse_torus(spec: str) -> TorusSpec:
    try:
        tag, _, ds = spec.partition(":")
        if tag not in TAG_FAMILIES:
            raise ValueError(f"unknown family tag {tag!r}, expected one of "
                             f"{sorted(TAG_FAMILIES)}")
        parts = [int(x) for x in ds.split(",")] if ds else []
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
    """The euler rows, one per good prime up to cfg.pmax, yielded as each is
    computed: a report renders them as they come and keeps none."""
    for p, scaled, count in good_euler_terms(torus, primes_up_to(cfg.pmax)):
        pd = p ** torus.dim
        factor = Fraction(scaled, pd)
        # factor * p^d is scaled, exactly: the comparison needs no Fraction
        ok = scaled == count
        yield VerificationReport(
            identity="euler",
            inputs={"torus": torus.label, "p": p},
            values={"euler_factor": factor, "point_count": count,
                    "density": factor if ok else Fraction(count, pd)},
            verdict=PASS if ok else FAIL,
            cause=None if ok else f"p^d * E_p(1) = {scaled} != {count}",
        )


def run_lifting(torus: TorusSpec, cfg: RunConfig):
    if torus.model is None:
        raise UnsupportedTorusError(
            f"no affine model attached to {torus.label}; cannot count points"
        )
    rows = []
    for p in primes_up_to(min(cfg.pmax, 13)):
        if not is_good_prime(torus, p):
            continue
        counts = []
        for k in range(1, cfg.kmax + 1):
            if p ** (k * torus.model.nvars) > cfg.budget:
                break
            counts.append(cached_point_count(torus.model, p, k, cfg.budget))
        inputs = {"torus": torus.label, "p": p}
        values = {"counts": counts, "levels": len(counts)}
        if len(counts) < 2:
            rows.append(VerificationReport(
                "lifting", inputs, values, INCONCLUSIVE,
                cause=f"budget admits only {len(counts)} level(s) at p={p}",
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
    h1 = cohomology(torus.group, torus.xstar, 1)
    h0d = h0_torsion_dual(torus.group, torus.xstar)
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
    if torus.model is not None:
        for p in primes_up_to(min(cfg.pmax, 13)):
            if is_good_prime(torus, p):
                rows.append(cross_validate_density(torus, p, budget=cfg.budget))
    return rows


def run_sha(torus: TorusSpec, cfg: RunConfig):
    i_t = ono_constant(torus)
    c = c_gamma(torus)
    shabk = c.value * i_t
    values = {"c_gamma": c.value, "c_gamma_heuristic": c.heuristic,
              "i_t": i_t, "sha_bk": shabk}
    if torus.family == "norm-one":
        values["sha"] = sha_order(torus)
    ok = shabk == c.value * i_t
    return [VerificationReport(
        "sha-bk", {"torus": torus.label}, values,
        PASS if ok else FAIL,
        cause=None if ok else f"sha_bk {shabk} != c_gamma * i(T) = {c.value * i_t}",
    )]


def run_tnc(torus: TorusSpec, cfg: RunConfig):
    rep = verify_tnc(torus, tol=cfg.tol, budget=cfg.budget)
    values = {
        "ono_rhs": rep.ono,
        "h1_order": rep.h1_order,
        "h0_dual_order": rep.h0_dual_order,
    }
    if rep.tau_tam is not None:
        values.update({
            "tau_tam": rep.tau_tam,
            "c_gamma": rep.c_gamma,
            "c_gamma_heuristic": rep.c_gamma_heuristic,
            "sha_bk": rep.sha_bk,
        })
    return [VerificationReport(
        "tnc", {"torus": torus.label, "tol": cfg.tol}, values,
        rep.verdict, rep.cause)]


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


def _config_number(key: str, raw, integral: bool):
    """The value of a numeric field as a flag, the config file or
    TAMAGAWA_BUDGET gives it: a number or a numeric string.  A bool, or a
    fraction in an integral field, is an error rather than coerced
    (int(9.9) == 9, float(True) == 1.0)."""
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
    if not integral:
        try:
            return float(raw)
        except OverflowError:
            raise ConfigError(f"{key}: out of range: {raw!r}") from None
    if isinstance(raw, float):
        if not raw.is_integer():
            raise ConfigError(f"{key}: not an integer: {raw!r}")
        return int(raw)
    return raw


def _merge_config(args) -> RunConfig:
    file_cfg = {}
    if args.config:
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"config: cannot read {args.config}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"config: {args.config} line {exc.lineno}: {exc.msg}") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError("config: top level must be an object")
        allowed = {"identity", "torus", "pmax", "kmax", "tol", "budget",
                   "jobs", "out"}
        unknown = set(file_cfg) - allowed
        if unknown:
            raise ConfigError(f"config: unknown field(s) {sorted(unknown)}")

    def pick(key, default=None):
        flag = getattr(args, key)
        return file_cfg.get(key, default) if flag is None else flag

    def number(key, default, integral=True):
        return _config_number(key, pick(key, default), integral)

    torus_specs = args.torus or file_cfg.get("torus") or []
    if isinstance(torus_specs, str):
        torus_specs = [torus_specs]
    if not isinstance(torus_specs, list) or not all(isinstance(s, str) for s in torus_specs):
        raise ConfigError("torus: expected a spec string or a list of them")
    env_budget = os.environ.get(BUDGET_ENV)
    default_budget = COUNT_BUDGET
    if env_budget is not None:
        try:
            default_budget = _config_number("budget", env_budget, integral=True)
        except ConfigError as exc:
            raise ConfigError(f"budget: bad {BUDGET_ENV}={env_budget!r}") from exc
    cfg = RunConfig(
        identity=pick("identity"),
        tori=tuple(torus_specs),
        pmax=number("pmax", 97),
        kmax=number("kmax", 3),
        tol=number("tol", 1e-6, integral=False),
        budget=number("budget", default_budget),
        jobs=number("jobs", 1),
        out=pick("out"),
    )
    if cfg.out is not None and not isinstance(cfg.out, str):
        raise ConfigError("out: expected a file path string")
    cfg.validate()
    return cfg


class UsageError(Exception):
    """An argv that the grammar rejects: exit 64, with the usage on stderr."""


# The verify flags in help order: name -> (metavar, converter, help line).  A
# flag without a metavar takes no value; one without a converter keeps its
# value as given.
_FLAGS = {
    "--help": (None, None, "show this help message and exit"),
    "--torus": ("SPEC", None, "torus spec family:d or family:d1,d2 (norm1, res, quot)"),
    "--pmax": ("N", int, "good-prime bound (default 97)"),
    "--kmax": ("K", int, "lifting level bound (default 3)"),
    "--tol": ("TOL", float, "analytic tolerance (default 1e-6)"),
    "--budget": ("N", None, f"enumeration budget (default {COUNT_BUDGET}, env {BUDGET_ENV})"),
    "--jobs": ("N", int, "accepted for compatibility; changes nothing (default 1)"),
    "--out": ("PATH", None, "write the JSON report here (atomic)"),
    "--config": ("PATH", None, "JSON config file; flags win on conflict"),
}


def _usage() -> str:
    head = "usage: tamagawa verify"
    lines, line = [], head
    for part in ("[-h]", *(f"[{name} {meta}]" for name, (meta, _, _) in _FLAGS.items() if meta),
                 "[IDENTITY]"):
        if len(line) + 1 + len(part) > 79:
            lines.append(line)
            line = " " * len(head)
        line += " " + part
    return "\n".join(lines + [line]) + "\n"


def _help() -> str:
    rows = "".join(f"  {'-h, --help' if meta is None else f'{name} {meta}':<15}{text}\n"
                   for name, (meta, _, text) in _FLAGS.items())
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


def _identity(tok: str) -> str:
    if tok not in IDENTITY_CHOICES:
        raise UsageError(f"argument identity: invalid choice: {tok!r} "
                         f"(choose from {', '.join(IDENTITY_CHOICES)})")
    return tok


def parse_args(argv):
    """The flags of a `verify` argv, as attributes named after them plus
    `identity`, each None where not given; None when -h/--help asks for the
    help text.  A rejected argv raises UsageError.

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
                args["identity"], identity_at = _identity(tok), i - 1
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
        if value is None:
            if i == end or options[i] is not None:
                raise UsageError(f"argument {name}: expected one argument")
            value, i = argv[i], i + 1
        convert = _FLAGS[name][1]
        if value == "--":
            value = []  # argparse drops a "--" value, and stores the empty rest
        elif convert is not None:
            try:
                value = convert(value)
            except ValueError:
                raise UsageError(f"argument {name}: invalid {convert.__name__} "
                                 f"value: {value!r}") from None
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
                args["identity"] = _identity(rest.pop(0))
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


def _write_stdout(text: str, what: str) -> bool:
    """Write and flush `text`; False, with one error line, if stdout fails,
    say a pipe whose reader has exited.  Its fd then points at os.devnull, so
    that the flush at interpreter exit cannot fail again."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
        return True
    except OSError as exc:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: cannot write {what} to stdout: {exc.strerror or exc}", file=sys.stderr)
        return False


def main(argv=None) -> int:
    # Move what the import left on the heap to the permanent generation, so
    # that no collection during the run traverses it.  A caller that froze
    # objects itself is left as it was.
    freeze = gc.get_freeze_count() == 0
    if freeze:
        gc.freeze()
    try:
        return _main(argv)
    finally:
        if freeze:
            gc.unfreeze()


def _main(argv) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        sys.stderr.write(f"{_usage()}tamagawa: error: {exc}\n")
        return 64
    if args is None:
        return 0 if _write_stdout(_help(), "help") else 74
    try:
        cfg = _merge_config(args)
        tori = [parse_torus(s) for s in cfg.tori]
        # the rows are computed as the report renders them, so an error in
        # any of them ends the run before a byte of the report is written
        seen = {}
        text = render_report(_rows(tori, cfg, seen), cfg.echo())
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 64
    except (QRankError, UnsupportedTorusError, BudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 64
    except ArithmeticError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 70
    code = worst_exit_code(seen.values()) if _write_stdout(text, "report") else 74
    if cfg.out:
        try:
            write_report_atomic(cfg.out, text)
        except OSError as exc:
            print(f"error: cannot write report to {cfg.out}: {exc.strerror or exc}",
                  file=sys.stderr)
            return 73
    return code


def console_entry():
    raise SystemExit(main())


if __name__ == "__main__":
    console_entry()
