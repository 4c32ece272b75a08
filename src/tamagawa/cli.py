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
64 or 70 writes nothing to stdout or --out.  Timings go to stderr only.

tamagawa.options reads the argv and the config file into a RunConfig.
"""

from __future__ import annotations

import os
import sys
import time
from itertools import islice

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
    TorusSpec,
    counting_budget,
    good_euler_terms,
    is_good_prime,
    parse_torus,
)
from .globalasm import c_gamma, verify_tnc
from .localmeasure import (
    CROSS_CHECK_PMAX,
    affine_model,
    bad_prime_density,
    cross_validate_density,
    level_counts,
)
from .options import (
    _FLAGS,
    IDENTITY_CHOICES,
    RunConfig,
    UsageError,
    _merge_config,
    parse_args,
)
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


# the runner of each identity is run_<identity>; run_all, below, calls them
_RUNNERS = {name: globals()[f"run_{name}"] for name in IDENTITY_CHOICES if name != "all"}


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
