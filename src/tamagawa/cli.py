"""Command-line driver.

    tamagawa verify <identity> --torus norm1:-1 [--pmax 97] [--tol 1e-6] ...

Identities: euler, lifting, globalinv, density, sha, tnc, all.
Exit codes: 0 all PASS, 1 any FAIL, 2 INCONCLUSIVE only, 64 usage or
config error or violated structural assumption (Q-rank gate, unsupported
family), 70 internal error (a failed internal consistency check), 73 the
report could not be written to --out (EX_CANTCREAT).

--jobs is accepted and validated but changes nothing: all work runs in one
thread.  It and the output path are excluded from the config echo, timings
go to stderr only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from collections import namedtuple
from fractions import Fraction

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
        # jobs and out are deliberately not echoed: reports must be
        # byte-identical across job counts and output destinations.
        return {
            "identity": self.identity,
            "tori": list(self.tori),
            "pmax": self.pmax,
            "kmax": self.kmax,
            "tol": self.tol,
            "budget": self.budget,
        }


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
    rows = []
    for p, scaled, count in good_euler_terms(torus, primes_up_to(cfg.pmax)):
        pd = p ** torus.dim
        factor = Fraction(scaled, pd)
        # factor * p^d is scaled, exactly: the comparison needs no Fraction
        ok = scaled == count
        rows.append(VerificationReport(
            identity="euler",
            inputs={"torus": torus.label, "p": p},
            values={"euler_factor": factor, "point_count": count,
                    "density": factor if ok else Fraction(count, pd)},
            verdict=PASS if ok else FAIL,
            cause=None if ok else f"p^d * E_p(1) = {scaled} != {count}",
        ))
    return rows


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
    rows = run_euler(torus, cfg)
    if torus.model is not None:
        rows += run_lifting(torus, cfg)
        rows += run_density(torus, cfg)
    if q_rank(torus) == 0:
        rows += run_globalinv(torus, cfg)
        try:
            rows += run_sha(torus, cfg)
            rows += run_tnc(torus, cfg)
        except UnsupportedTorusError:
            pass  # families without a class-index route stop at globalinv
    return rows


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

    def pick(flag, key, default):
        if flag is not None:
            return flag
        if key in file_cfg:
            return file_cfg[key]
        return default

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
        identity=pick(args.identity, "identity", None),
        tori=tuple(torus_specs),
        pmax=_config_number("pmax", pick(args.pmax, "pmax", 97), integral=True),
        kmax=_config_number("kmax", pick(args.kmax, "kmax", 3), integral=True),
        tol=_config_number("tol", pick(args.tol, "tol", 1e-6), integral=False),
        budget=_config_number(
            "budget", pick(args.budget, "budget", default_budget), integral=True),
        jobs=_config_number("jobs", pick(args.jobs, "jobs", 1), integral=True),
        out=pick(args.out, "out", None),
    )
    if cfg.out is not None and not isinstance(cfg.out, str):
        raise ConfigError("out: expected a file path string")
    cfg.validate()
    return cfg


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors exit 64, the config-error code, not argparse's 2,
    which would read as INCONCLUSIVE."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _ArgumentParser(
        prog="tamagawa",
        description="Verify local-global invariants of algebraic tori "
                    "attached to quadratic and biquadratic fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    verify = sub.add_parser("verify", help="run a verification identity")
    verify.add_argument("identity", nargs="?", choices=IDENTITY_CHOICES)
    verify.add_argument("--torus", action="append",
                        help="torus spec family:d or family:d1,d2 "
                             "(families: norm1, res, quot)")
    verify.add_argument("--pmax", type=int, help="good-prime bound (default 97)")
    verify.add_argument("--kmax", type=int, help="lifting level bound (default 3)")
    verify.add_argument("--tol", type=float, help="analytic tolerance (default 1e-6)")
    verify.add_argument("--budget",
                        help=f"enumeration budget (default {COUNT_BUDGET}, "
                             f"env {BUDGET_ENV})")
    verify.add_argument("--jobs", type=int,
                        help="accepted for compatibility; changes nothing (default 1)")
    verify.add_argument("--out", help="write the JSON report here (atomic)")
    verify.add_argument("--config", help="JSON config file; flags win on conflict")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # --help (0) or a usage error (64)
        return exc.code
    try:
        cfg = _merge_config(args)
        tori = [parse_torus(s) for s in cfg.tori]
        reports = []
        for torus in tori:
            t0 = time.monotonic()
            if cfg.identity == "all":
                reports += run_all(torus, cfg)
            else:
                reports += _RUNNERS[cfg.identity](torus, cfg)
            print(f"[timing] {torus.label} {cfg.identity}: "
                  f"{time.monotonic() - t0:.2f}s", file=sys.stderr)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 64
    except (QRankError, UnsupportedTorusError, BudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 64
    except ArithmeticError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 70
    text = render_report(reports, cfg.echo())
    sys.stdout.write(text)
    if cfg.out:
        try:
            write_report_atomic(cfg.out, text)
        except OSError as exc:
            print(f"error: cannot write report to {cfg.out}: {exc.strerror or exc}",
                  file=sys.stderr)
            return 73
    return worst_exit_code(reports)


def console_entry():
    raise SystemExit(main())


if __name__ == "__main__":
    console_entry()
