"""CLI: torus grammar, config merging, exit codes, report schema, and
byte-identical output across worker counts."""

import gc
import hashlib
import io
import json
import math
import os
import re
import stat
import subprocess
import sys
import tempfile
import threading
import tokenize
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tamagawa import cli, cohomology, exactcore, galois, globalasm, models, report
from tamagawa.cli import main, parse_torus, run_euler
from tamagawa.cohomology import ono_constant
from tamagawa.errors import ConfigError
from tamagawa.exactcore import AbelianGroupInvariants, charpoly, primes_up_to
from tamagawa.galois import euler_factor_at_one, is_good_prime, point_count_Fp
from tamagawa.globalasm import c_gamma
from tamagawa.localmeasure import LocalDensity
from tamagawa.models import cached_point_count
from tamagawa.options import IDENTITY_CHOICES, RunConfig
from tamagawa.report import (
    FAIL,
    IDENTITIES,
    INCONCLUSIVE,
    PASS,
    SCHEMA_VERSION,
    Real,
    VerificationReport,
    render_report,
    worst_exit_code,
    write_report_atomic,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


# ---------------------------------------------------------------------------
# report plumbing


def test_report_validation():
    with pytest.raises(ValueError):
        VerificationReport("not-an-identity")
    with pytest.raises(ValueError):
        VerificationReport("euler", verdict="MAYBE")
    with pytest.raises(ValueError):
        VerificationReport("euler", verdict=FAIL)  # no cause
    ok = VerificationReport("euler", {"p": 3}, {"x": 1}, PASS)
    assert ok.cause is None


def test_jsonable_rendering():
    assert rat_str(Fraction(4, 6)) == "2/3"
    assert to_jsonable(Fraction(3)) == "3/1"
    assert to_jsonable(Real(1.5, 1e-9)) == {"value": 1.5, "abs_err": 1e-9}
    assert to_jsonable(((1, 2), [3])) == [[1, 2], [3]]
    with pytest.raises(TypeError):
        to_jsonable(complex(1, 2))


def test_worst_exit_code():
    p = VerificationReport("euler", verdict=PASS)
    i = VerificationReport("euler", verdict=INCONCLUSIVE, cause="x")
    f = VerificationReport("euler", verdict=FAIL, cause="x")
    assert worst_exit_code([p, p]) == 0
    assert worst_exit_code([p, i]) == 2
    assert worst_exit_code([p, i, f]) == 1
    assert worst_exit_code([]) == 0


def test_write_report_atomic(tmp_path):
    path = tmp_path / "r.json"
    write_report_atomic(str(path), b"old\n")
    write_report_atomic(str(path), bytearray(b"new\n"))
    assert path.read_bytes() == b"new\n"
    assert [p for p in os.listdir(tmp_path) if p.endswith(".tmp")] == []


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=oct)
def test_write_report_gives_the_mode_of_a_new_file(tmp_path, umask):
    old = os.umask(umask)
    try:
        write_report_atomic(str(tmp_path / "new.json"), b"x\n")
        write_report_atomic(str(tmp_path / "new.json"), b"y\n")  # over a regular file
        with open(tmp_path / "plain.json", "w") as fh:
            fh.write("x\n")
    finally:
        os.umask(old)
    mode = stat.S_IMODE(os.stat(tmp_path / "new.json").st_mode)
    assert mode == 0o666 & ~umask == stat.S_IMODE(os.stat(tmp_path / "plain.json").st_mode)


def test_write_report_into_fifo_keeps_the_fifo(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    write_report_atomic(str(fifo), b"report\n")
    reader.join(timeout=10)
    assert not reader.is_alive() and got == [b"report\n"]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert sorted(os.listdir(tmp_path)) == ["pipe"]


@pytest.mark.parametrize("target", ["missing/report.json", "."])
def test_unwritable_out_exits_73(capsys, tmp_path, target):
    # a missing directory, or a directory as the target: one error line, exit 73
    path = tmp_path / target
    code, out, err = run_cli(
        capsys, "verify", "euler", "--torus", "norm1:-1", "--pmax", "7",
        "--out", str(path),
    )
    assert code == 73
    assert json.loads(out)["reports"]
    assert err.splitlines()[-1].startswith(f"error: cannot write report to {path}: ")
    assert "Traceback" not in err
    assert [p for p in os.listdir(tmp_path) if p.endswith(".tmp")] == []


@pytest.mark.parametrize("form", ["--out ''", "--out=", "config"])
def test_empty_out_path_exits_64(capsys, monkeypatch, tmp_path, form):
    # an empty path is a configuration error, not a report silently unwritten
    monkeypatch.chdir(tmp_path)
    argv = ["verify", "euler", "--torus", "norm1:-1", "--pmax", "7"]
    if form == "config":
        (tmp_path / "cfg.json").write_text(json.dumps({"out": ""}))
        argv += ["--config", "cfg.json"]
    else:
        argv += ["--out", ""] if form == "--out ''" else ["--out="]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (64, "", "config error: out: the file path is empty\n")
    assert os.listdir(tmp_path) == (["cfg.json"] if form == "config" else [])


def test_render_is_versioned_and_sorted():
    text = render_report([], {"b": 1, "a": 2})
    doc = json.loads(text)
    assert doc["version"] == 1
    assert text.index('"a"') < text.index('"b"')
    assert text.endswith("\n")


def rat_str(q):
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def to_jsonable(obj):
    """Recursively convert report values to JSON-safe structures: the form
    whose `json.dumps` the report renderer must reproduce."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, Fraction):
        return rat_str(obj)
    if isinstance(obj, Real):
        return {"value": obj.value, "abs_err": obj.abs_err}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, list) or type(obj) is tuple:  # not a record
        return [to_jsonable(v) for v in obj]
    raise TypeError(f"cannot render {type(obj).__name__} in a report")


def old_render(reports, config_echo=None):
    """The two-pass renderer: the `to_jsonable` tree through `json.dumps`."""
    rows = []
    for rep in reports:
        row = {"identity": rep.identity, "inputs": rep.inputs,
               "values": rep.values, "verdict": rep.verdict}
        if rep.cause is not None:
            row["cause"] = rep.cause
        rows.append(row)
    doc = {"version": SCHEMA_VERSION, "config_echo": config_echo or {}, "reports": rows}
    return json.dumps(to_jsonable(doc), sort_keys=True, indent=2) + "\n"


_leaves = st.one_of(
    st.none(), st.booleans(),
    st.integers(), st.integers(-10**60, 10**60),
    st.floats(), st.sampled_from([-0.0, math.inf, -math.inf, math.nan]),
    st.text(), st.sampled_from(['"\\/\b\f\n\r\t\x00\x1f\x7f', "\u00e9\u2028\U0001f600"]),
    st.fractions(), st.builds(Real, st.floats(), st.floats()),
)
_trees = st.recursive(
    _leaves,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        # int keys render as strings, and may collide with string keys
        st.dictionaries(st.one_of(st.text(max_size=3), st.integers(),
                                  st.sampled_from([1, "1", 10, "10", -2, "-2"])),
                        kids, max_size=4),
    ),
    max_leaves=12,
)
_reports = st.builds(
    VerificationReport,
    identity=st.sampled_from(IDENTITIES),
    inputs=st.dictionaries(st.text(max_size=4), _trees, max_size=3),
    values=_trees,
    verdict=st.just(PASS),
    cause=st.one_of(st.none(), st.text(min_size=1)),
) | st.builds(
    VerificationReport,
    identity=st.sampled_from(IDENTITIES),
    inputs=_trees,
    values=st.dictionaries(st.integers(), _trees, max_size=3),
    verdict=st.sampled_from([FAIL, INCONCLUSIVE]),
    cause=st.text(min_size=1),
)


def _euler_row(p, density, verdict=PASS, cause=None):
    return VerificationReport("euler", {"torus": "res:5,-3", "p": p},
                              {"euler_factor": Fraction(p - 1, p), "point_count": p - 1,
                               "density": density}, verdict, cause)


@settings(max_examples=150, deadline=None)
@given(st.lists(_reports, max_size=3),
       st.one_of(st.none(), st.dictionaries(st.text(max_size=4), _trees, max_size=4)))
# euler rows built as VerificationReports: three of one shape, then FAIL rows
# whose density is a float and a list
@example([_euler_row(p, Fraction(p - 1, p)) for p in (7, 11, 13)]
         + [_euler_row(17, 2.5, FAIL, "x"), _euler_row(19, [1, {"a": None}], FAIL, "y")], None)
# keys that %-formatting would read as conversions
@example([VerificationReport("tnc", {"%s": "%s", "%%": 1}, {"%(x)s": "%", "a%": {"%d": 2}},
                             INCONCLUSIVE, "%(x)s %s")], {"%": "%%"})
# inputs that are not a dict, values that are not a dict
@example([VerificationReport("sha-bk", [1, "%s"], Fraction(3, 4)),
          VerificationReport("sha-bk", ("a",), Real(0.5, 1e-9)),
          VerificationReport("sha-bk", {}, [])], None)
# keys equal as str (the last wins) or equal as Python values (but not as str)
@example([VerificationReport("euler", {1: "int", "1": "str"}, {"1": 1, 1: 2}),
          VerificationReport("euler", {1: "int"}, {1.0: 1}),
          VerificationReport("euler", {True: "bool"}, {1: 1})], None)
def test_render_matches_json_dumps_of_jsonable(reports, echo):
    assert render_report(reports, echo) == old_render(reports, echo)


@settings(max_examples=100, deadline=None)
@given(st.lists(_reports, max_size=3),
       st.one_of(st.none(), st.dictionaries(st.text(max_size=4), _trees, max_size=4)))
def test_render_reads_an_iterator_as_it_reads_a_list(reports, echo):
    assert render_report(iter(reports), echo) == render_report(reports, echo)


def test_render_rejects_unrenderable_values():
    with pytest.raises(TypeError):
        render_report([VerificationReport("euler", {"p": 3}, {"x": [complex(1, 2)]})])
    with pytest.raises(TypeError):
        render_report([], {"tol": complex(1, 2)})


def test_render_rejects_records_other_than_real():
    # records are tuples, yet no record but Real may render, least of all as a list
    dens = LocalDensity(Fraction(2), ())
    with pytest.raises(TypeError, match="cannot render LocalDensity"):
        render_report([VerificationReport("local-density", {"p": 2}, {"density": dens})])
    with pytest.raises(TypeError, match="cannot render LocalDensity"):
        to_jsonable({"density": dens})
    assert to_jsonable(Real(1.5, 0.5)) == {"value": 1.5, "abs_err": 0.5}


# ---------------------------------------------------------------------------
# torus grammar


def test_parse_torus():
    t = parse_torus("norm1:-1")
    assert t.family == "norm-one" and t.label == "norm1:-1"
    assert parse_torus("res:5").family == "res-scalars"
    assert parse_torus("quot:-7").family == "quotient-by-gm"
    assert parse_torus("norm1:13,17").dim == 3


@pytest.mark.parametrize(
    "bad",
    ["bogus:-1", "norm1:", "norm1:abc", "norm1:1,2,3", "norm1:-4", "norm1:12,13"],
)
def test_parse_torus_rejects(bad):
    with pytest.raises(ConfigError):
        parse_torus(bad)


@pytest.mark.parametrize("spec, d", [
    ("norm1:1_3", "1_3"), ("norm1: +13 ", " +13 "), ("norm1:\u0663", "\u0663"),
    ("norm1:13,\uff11\uff17", "\uff11\uff17"), ("norm1:+-3", "+-3"), ("norm1:+", "+"),
    ("norm1:13,", ""), ("res:-1,,5", "")])
def test_d_is_ascii_decimal_only(capsys, spec, d):
    # int() reads the first four as 13, 13, 3 and 13,17; the grammar is [+-]?[0-9]+
    code, out, err = run_cli(capsys, "verify", "globalinv", "--torus", spec)
    assert (code, out) == (64, "")
    assert err == (f"config error: torus: cannot parse {spec!r}: "
                   f"d must be ASCII decimal, not {d!r}\n")


def test_d_may_carry_a_sign():
    assert parse_torus("norm1:+13").label == "norm1:13"
    assert parse_torus("res:-1,+5").label == "res:-1,5"


@pytest.mark.parametrize("spec, d", [("norm1:1", 1), ("quot:0", 0), ("norm1:-4", -4),
                                     ("res:5,1", 1), ("norm1:12,13", 12)])
def test_bad_field_names_what_d_must_be(capsys, spec, d):
    # one message for a quadratic and a biquadratic field; 1 is squarefree
    code, out, err = run_cli(capsys, "verify", "euler", "--torus", spec)
    assert (code, out) == (64, "")
    assert err == (f"config error: torus: cannot parse {spec!r}: "
                   f"d = {d} must be a squarefree integer other than 0 and 1\n")


# ---------------------------------------------------------------------------
# exit codes and config validation


def test_euler_example(capsys):
    code, doc, _ = run_json(
        capsys, "verify", "euler", "--torus", "norm1:-1", "--pmax", "97"
    )
    assert code == 0
    rows = doc["reports"]
    assert len(rows) == 24  # odd primes <= 97
    assert all(r["verdict"] == "PASS" for r in rows)
    row3 = next(r for r in rows if r["inputs"]["p"] == 3)
    assert row3["values"]["euler_factor"] == "4/3"
    assert row3["values"]["point_count"] == 4
    assert row3["values"]["density"] == "4/3"
    assert doc["config_echo"]["pmax"] == 97
    assert "jobs" not in doc["config_echo"] and "out" not in doc["config_echo"]


def test_qrank_gate_exits_64(capsys):
    code, out, err = run_cli(capsys, "verify", "tnc", "--torus", "res:-1")
    assert code == 64
    assert out == ""
    assert "Assumption violated: Q-rank 1" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "euler"),  # no torus
        ("verify", "--torus", "norm1:-1"),  # no identity
        ("verify", "euler", "--torus", "norm1:-1", "--pmax", "2"),
        ("verify", "euler", "--torus", "norm1:-1", "--kmax", "0"),
        ("verify", "euler", "--torus", "norm1:-1", "--tol", "0"),
        ("verify", "euler", "--torus", "norm1:-1", "--budget", "100"),
        ("verify", "euler", "--torus", "norm1:-1", "--jobs", "0"),
        ("verify", "euler", "--torus", "nope:-1"),
    ],
)
def test_bad_config_exits_64(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 64
    assert out == ""
    assert "config error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "euler", "--torus", "norm1:-1", "--zzz", "1"),
        ("verify", "euler", "--torus", "norm1:-1", "--t", "x"),
        ("verify", "euler", "euler", "--torus", "norm1:-1"),
    ],
)
def test_usage_errors_exit_64(capsys, argv):
    # a usage error, which only the grammar gives (an unknown or ambiguous
    # option, a surplus positional), exits 64, never 2, the INCONCLUSIVE code
    code, out, err = run_cli(capsys, *argv)
    assert code == 64
    assert out == ""
    assert err.startswith("usage: tamagawa verify") and "error:" in err
    assert "Traceback" not in err


def test_help_exits_0(capsys):
    code, out, _ = run_cli(capsys, "verify", "--help")
    assert code == 0 and out.startswith("usage: tamagawa verify")


@pytest.mark.parametrize("tol", ["1e-12", "1e-13"])
@pytest.mark.parametrize("identity", ["tnc", "all"])
def test_tol_below_l_value_accuracy_exits_64(capsys, identity, tol):
    # the tnc row refuses tol / (2 * c_gamma) below L(1)'s 1e-12 accuracy
    code, out, err = run_cli(
        capsys, "verify", identity, "--torus", "norm1:-1", "--tol", tol)
    assert code == 64
    assert out == ""
    assert "config error: tol:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("tol", ["1", "5", "1e300"])
@pytest.mark.parametrize("identity", ["tnc", "all"])
def test_tol_of_one_or_more_exits_64(capsys, identity, tol):
    # a tol as coarse as the prediction 2 would let a wrong tau PASS
    code, out, err = run_cli(
        capsys, "verify", identity, "--torus", "norm1:-1", "--tol", tol)
    assert (code, out) == (64, "")
    assert err.splitlines() == [f"config error: tol: {float(tol):g} must be below 1"]


def test_budget_ceiling(capsys):
    # 2^62 is the documented upper end of --budget; one more exits 64
    RunConfig("euler", ("norm1:-1",), budget=2**62).validate()
    with pytest.raises(ConfigError, match="budget"):
        RunConfig("euler", ("norm1:-1",), budget=2**62 + 1).validate()
    # the flag is read as an integer, not rounded to the float 2^62
    code, out, err = run_cli(
        capsys, "verify", "euler", "--torus", "norm1:-1", "--budget", str(2**62 + 1))
    assert (code, out) == (64, "") and "config error: budget" in err


def test_pmax_ceiling(capsys):
    # 10^7 is the documented upper end of --pmax; one more exits 64 before
    # the sieve allocates a byte
    RunConfig("euler", ("norm1:-1",), pmax=10**7).validate()
    with pytest.raises(ConfigError, match="pmax"):
        RunConfig("euler", ("norm1:-1",), pmax=10**7 + 1).validate()
    code, out, err = run_cli(
        capsys, "verify", "euler", "--torus", "norm1:-1", "--pmax", "10000000000")
    assert (code, out) == (64, "") and "config error: pmax" in err


def test_package_needs_only_the_standard_library():
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, tamagawa, tamagawa.cli; print('numpy' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True, text=True, check=True)
    assert proc.stdout == "False\n"
    pyproject = (root / "pyproject.toml").read_text()
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        assert "\ndependencies = []\n" in pyproject
    else:
        assert tomllib.loads(pyproject)["project"]["dependencies"] == []


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # the records are namedtuples: start-up pays for no dataclass machinery;
    # and the argv parser is the package's own, which needs neither argparse
    # nor the gettext and locale that argparse's messages load
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         f"import sys; sys.path.insert(0, {src!r}); import tamagawa.cli; "
         "tamagawa.options.parse_args(['verify', 'euler', '--torus', 'norm1:-1']); "
         "print(sorted({'dataclasses', 'inspect', 'argparse', 'gettext', 'locale'} "
         "& set(sys.modules)))"],
        capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


# CPython's parser keeps every token of a module in one array, which it
# doubles when full; past this many tokens the array, and the peak memory of
# compile(), takes a step up
PARSER_TOKEN_STEP = 2048


def _parser_tokens(source: str) -> int:
    """The tokens the parser reads: tokenize's, less comments and the
    newlines of blank and continued lines."""
    return sum(tok.type not in (tokenize.COMMENT, tokenize.NL)
               for tok in tokenize.generate_tokens(io.StringIO(source).readline))


def _compile_peak(source: str) -> int:
    tracemalloc.start()
    try:
        compile(source, "<source>", "exec")
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cli_and_options_stay_below_the_parser_token_step():
    # with no bytecode to read (PYTHONDONTWRITEBYTECODE), each import compiles
    # its module from source, and the parser holds the whole token stream and
    # AST meanwhile.  cli and options compile last, on top of every module
    # they import, so their parse sets the peak memory of a start-up: each
    # stays below the token count at which that parse grows by a step
    package = Path(cli.__file__).parent
    tokens = {name: _parser_tokens((package / name).read_text(encoding="utf-8"))
              for name in ("cli.py", "options.py")}
    assert max(tokens.values()) < PARSER_TOKEN_STEP, {
        name: f"{n} tokens, the step at {PARSER_TOKEN_STEP}, room {PARSER_TOKEN_STEP - n}"
        for name, n in tokens.items()}
    # the step is where this interpreter puts it, or the bound is stale: the
    # largest count allowed compiles below it, and two tokens more above it.
    # A module of "0" statements, two tokens each and the end marker, hits
    # both counts, which padding a module near the step cannot always do
    below, above = (_compile_peak("0\n" * n) for n in (PARSER_TOKEN_STEP // 2 - 1,
                                                        PARSER_TOKEN_STEP // 2))
    assert above - below > 50_000, (below, above)


def _console(*argv, **kwargs):
    """`python -m tamagawa ARGV`: main(None), reading sys.argv."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return subprocess.run([sys.executable, "-m", "tamagawa", *argv],
                          env={**os.environ, "PYTHONPATH": src}, **kwargs)


def test_console_reads_sys_argv(capsys):
    argv = ("verify", "euler", "--torus", "norm1:-1", "--pmax", "7")
    proc = _console(*argv, capture_output=True, text=True)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and (proc.returncode, proc.stdout) == (code, out)
    proc = _console(capture_output=True, text=True)
    assert proc.returncode == 64 and proc.stdout == ""
    assert proc.stderr.startswith("usage: tamagawa") and "error:" in proc.stderr


@pytest.mark.parametrize("out", [False, True])
def test_closed_stdout_exits_74(tmp_path, out):
    # a pipe whose reader has gone: one error line, exit 74, no traceback,
    # and --out is still written
    path = tmp_path / "report.json"
    argv = ["verify", "euler", "--torus", "norm1:-1", "--pmax", "7"]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _console(*argv, *(["--out", str(path)] if out else []),
                        stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    lines = [line for line in proc.stderr.splitlines() if not line.startswith("[timing]")]
    assert proc.returncode == 74
    assert len(lines) == 1 and lines[0].startswith("error: cannot write report to stdout: ")
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
    assert path.exists() == out
    if out:
        assert json.loads(path.read_text())["reports"]


def test_internal_arithmetic_error_exits_70(capsys, monkeypatch):
    # a failed internal consistency check is exit 70, never 1 (FAIL)
    def disagree(D):
        raise ArithmeticError(f"L(1) methods disagree at D={D}")

    monkeypatch.setattr(globalasm, "l_value", disagree)
    code, out, err = run_cli(capsys, "verify", "tnc", "--torus", "norm1:-1")
    assert code == 70
    assert out == ""
    assert "internal error: L(1) methods disagree at D=-4" in err
    assert "Traceback" not in err


def test_good_factor_mismatch_exits_70(capsys, monkeypatch):
    # a good Euler factor that does not cancel its density is an internal
    # error: tau drops those factors on the strength of that cancellation
    terms = globalasm.good_euler_terms

    def off_by_one(torus, primes, budget):
        for p, scaled, count in terms(torus, primes, budget):
            yield p, scaled + 1, count

    monkeypatch.setattr(globalasm, "good_euler_terms", off_by_one)
    code, out, err = run_cli(capsys, "verify", "tnc", "--torus", "norm1:-1")
    assert (code, out) == (70, "")
    (line,) = err.splitlines()
    assert line.startswith("internal error: good factor mismatch at p=3 for norm1:-1: ")


def test_tnc_fails_when_tau_misses_the_prediction(capsys, monkeypatch):
    # twice the volume makes tau 4 against Ono's 2
    volume = globalasm.archimedean_volume

    def doubled(torus):
        vol = volume(torus)
        return vol._replace(value=2 * vol.value, abs_err=2 * vol.abs_err)

    monkeypatch.setattr(globalasm, "archimedean_volume", doubled)
    code, doc, _ = run_json(capsys, "verify", "tnc", "--torus", "norm1:-1", "--tol", "1e-3")
    (row,) = doc["reports"]
    assert (code, row["verdict"]) == (1, FAIL)
    assert row["cause"] == "|tau - prediction| = 2.000e+00 >= 0.001"
    assert abs(row["values"]["tau_tam"]["value"] - 4.0) < 1e-12


def test_tnc_fails_when_h1_and_h0_torsion_differ(capsys, monkeypatch):
    monkeypatch.setattr(globalasm, "h0_torsion_dual",
                        lambda lattice: AbelianGroupInvariants(0, (4,)))
    code, doc, _ = run_json(capsys, "verify", "tnc", "--torus", "norm1:-1")
    (row,) = doc["reports"]
    assert (code, row["verdict"]) == (1, FAIL)
    assert row["cause"] == "#H^1 = 2 != 4 = #H_0 torsion"
    assert (row["values"]["h1_order"], row["values"]["h0_dual_order"]) == (2, 4)


def _assert_failed_run_wrote_nothing(code, out, err, path):
    assert code == 70
    assert out == ""
    assert not path.exists()
    assert "internal error: " in err and "Traceback" not in err


def test_error_after_rendered_rows_writes_no_report(capsys, monkeypatch, tmp_path):
    # the euler, lifting, density, globalinv and sha rows have rendered when
    # tnc's L-value fails: the run still writes nothing
    calls = []

    def disagree(D):
        calls.append(D)
        raise ArithmeticError(f"L(1) methods disagree at D={D}")

    monkeypatch.setattr(globalasm, "l_value", disagree)
    path = tmp_path / "report.json"
    code, out, err = run_cli(capsys, "verify", "all", "--torus", "norm1:-1",
                             "--out", str(path))
    assert calls == [-4]
    _assert_failed_run_wrote_nothing(code, out, err, path)
    assert "[timing]" not in err


def test_error_on_a_later_torus_writes_no_report(capsys, monkeypatch, tmp_path):
    # the first torus's rows have rendered, and its [timing] line is out
    calls = []
    terms = cli.good_euler_terms

    def second_fails(torus, primes, *rest):
        calls.append(torus.label)
        if len(calls) == 2:
            raise ArithmeticError(f"good factor mismatch on {torus.label}")
        return terms(torus, primes, *rest)

    monkeypatch.setattr(cli, "good_euler_terms", second_fails)
    path = tmp_path / "report.json"
    code, out, err = run_cli(capsys, "verify", "euler", "--torus", "norm1:-1",
                             "--torus", "norm1:-23", "--out", str(path))
    assert calls == ["norm1:-1", "norm1:-23"]
    _assert_failed_run_wrote_nothing(code, out, err, path)
    assert [line.split(":")[0] for line in err.splitlines()] == [
        "[timing] norm1", "internal error"]


def _row_text(row):
    """The text of `row` as a report renders it: the part of its one-row
    document between the list's brackets."""
    doc = render_report([row])
    return doc[doc.index('"reports": [\n    ') + 17:doc.rindex("\n  ]")]


def test_euler_fail_row_through_the_cli(capsys, monkeypatch):
    terms = cli.good_euler_terms

    def off_at_7(torus, primes, *rest):
        for p, scaled, count in terms(torus, primes, *rest):
            yield p, scaled + (p == 7), count

    monkeypatch.setattr(cli, "good_euler_terms", off_at_7)
    code, out, _ = run_cli(capsys, "verify", "euler", "--torus", "norm1:-1", "--pmax", "30")
    assert code == 1
    torus = parse_torus("norm1:-1")
    scaled = euler_factor_at_one(torus, 7) * 7 + 1
    count = point_count_Fp(torus, 7)
    want = VerificationReport(
        "euler", {"torus": "norm1:-1", "p": 7},
        {"euler_factor": scaled / 7, "point_count": count, "density": Fraction(count, 7)},
        FAIL, f"p^d * E_p(1) = {scaled} != {count}")
    assert out.count(_row_text(want)) == 1
    rows = json.loads(out)["reports"]
    assert [r["inputs"]["p"] for r in rows if r["verdict"] == FAIL] == [7]
    assert all(r["verdict"] == PASS for r in rows if r["inputs"]["p"] != 7)
    assert len(rows) == 9  # the odd primes 3..29


class _CountingSink:
    """A stdout that keeps only the number of characters written to it."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)
        return len(text)

    def flush(self):
        pass


def test_euler_report_peak_memory_is_bounded_by_its_text():
    # the rows are rendered as they are computed and the text is joined
    # once: the traced peak of the run stays within 3x the report it writes
    argv = ["verify", "euler", "--torus", "res:5,-3", "--pmax", "20000"]
    sink = _CountingSink()
    with redirect_stdout(_CountingSink()), redirect_stderr(io.StringIO()):
        assert main(argv) == 0  # fill the caches before tracing
        with redirect_stdout(sink):
            tracemalloc.start()
            try:
                assert main(argv) == 0
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
    assert sink.chars > 500_000
    assert peak <= 3 * sink.chars, (peak, sink.chars)


def test_euler_report_peak_memory_is_its_bytes_written_once():
    # a stdout with a binary layer gets the one buffer the report is built
    # in: no row list, joined str or encoded copy adds to the traced peak
    argv = ["verify", "euler", "--torus", "res:5,-3", "--pmax", "20000"]
    sink = _CountingSink()
    sink.buffer = _CountingSink()
    with redirect_stdout(sink), redirect_stderr(io.StringIO()):
        assert main(argv) == 0  # fill the caches before tracing
        sink.buffer.chars = 0
        tracemalloc.start()
        try:
            assert main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert sink.chars == 0 and sink.buffer.chars > 500_000
    assert peak <= 1.3 * sink.buffer.chars, (peak, sink.buffer.chars)


def test_euler_run_triggers_no_collection(capsys):
    # no row outlives its rendering, so the tracked heap does not grow.  The
    # collection first empties generation 0 of what earlier tests left there
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        code = main(["verify", "euler", "--torus", "res:5,-3", "--pmax", "7000"])
    finally:
        gc.callbacks.remove(count)
    assert code == 0
    assert starts == []
    assert capsys.readouterr().out.count('"identity": "euler"') > 800


def test_euler_names_rows_on_a_class_polynomial_counted_short(capsys):
    # res:-163's split class starts at 41, and 41^3 exceeds --budget 10000:
    # the report keeps every byte it had before the note (sha256 of stdout
    # recorded without it), and one stderr line precedes the [timing] line
    code, out, err = run_cli(capsys, "verify", "euler", "--torus", "res:-163",
                             "--budget", "10000")
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (
        0, "8ca09ed5739882a691eaaa66cade33f31f4a549e0275cc913607656f00f386da")
    note, timing = err.splitlines()
    assert note == ("[uncounted] res:-163 euler: 8 rows rest on a class polynomial "
                    "counted at fewer than d + 1 primes; --budget 103823 leaves none")
    assert timing.startswith("[timing] res:-163 euler: ")
    code, _, err = run_cli(capsys, "verify", "euler", "--torus", "res:-163",
                           "--budget", "103823")
    assert code == 0 and err.startswith("[timing] ")


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("frozen_by_caller", [False, True], ids=["unfrozen", "frozen"])
@pytest.mark.parametrize("argv,code", [
    (("euler", "--torus", "norm1:-1", "--pmax", "30"), 0),
    (("euler", "--torus", "bogus:-1"), 64),
    (("tnc", "--torus", "norm1:-1"), 70),
], ids=["exit-0", "exit-64", "exit-70"])
def test_main_leaves_the_gc_as_it_found_it(capsys, monkeypatch, argv, code, enabled,
                                           frozen_by_caller):
    def disagree(D):
        raise ArithmeticError("L(1) methods disagree")

    monkeypatch.setattr(globalasm, "l_value", disagree)
    was_enabled = gc.isenabled()
    try:
        if not enabled:
            gc.disable()
        if frozen_by_caller:
            gc.freeze()
        before = gc.get_freeze_count()
        assert (before > 0) == frozen_by_caller
        assert run_cli(capsys, "verify", *argv)[0] == code
        assert gc.get_freeze_count() == before
        assert gc.isenabled() == enabled
    finally:
        gc.unfreeze()
        if was_enabled:
            gc.enable()


def test_config_file(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"identity": "euler", "torus": "norm1:-1", "pmax": 7}))
    code, doc, _ = run_json(capsys, "verify", "--config", str(cfg))
    assert code == 0
    assert [r["inputs"]["p"] for r in doc["reports"]] == [3, 5, 7]

    # flags win over the file
    code, doc, _ = run_json(
        capsys, "verify", "--config", str(cfg), "--torus", "norm1:-5", "--pmax", "5"
    )
    assert code == 0
    assert doc["config_echo"]["tori"] == ["norm1:-5"]
    assert [r["inputs"]["p"] for r in doc["reports"]] == [3]


def test_config_file_errors(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    code, _, err = run_cli(capsys, "verify", "euler", "--config", str(bad))
    assert code == 64 and "config error:" in err

    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"identity": "euler", "torus": "norm1:-1", "zz": 1}))
    code, _, err = run_cli(capsys, "verify", "--config", str(unknown))
    assert code == 64 and "unknown field" in err

    code, _, err = run_cli(capsys, "verify", "euler", "--config", str(tmp_path / "nope"))
    assert code == 64 and "cannot read" in err


@pytest.mark.parametrize("fields", [
    {"identity": "euler", "torus": [5]},
    {"identity": "euler", "torus": 5},
    {"identity": "euler", "torus": "norm1:-1", "pmax": 7, "out": 5},
])
def test_config_non_string_values_exit_64(capsys, tmp_path, fields):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(fields))
    code, out, err = run_cli(capsys, "verify", "--config", str(cfg))
    assert code == 64
    assert out == ""
    assert "config error:" in err


def test_infinite_budget_exits_64(capsys, tmp_path):
    # int(float("inf")) raises OverflowError, not ValueError
    argv = ("verify", "euler", "--torus", "norm1:-1")
    code, out, err = run_cli(capsys, *argv, "--budget", "inf")
    assert (code, out) == (64, "") and "config error:" in err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"budget": "1e400"}))
    code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
    assert (code, out) == (64, "") and "config error:" in err


@pytest.mark.parametrize("fields", [
    # int(9.9) == 9 and float(True) == 1.0: neither may pass silently
    {"identity": "euler", "torus": "norm1:-1", "pmax": 9.9, "tol": True, "kmax": 2.5},
    {"identity": "euler", "torus": "norm1:-1", "pmax": 7, "jobs": True},
])
def test_config_numbers_are_not_coerced(capsys, tmp_path, fields):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(fields))
    code, out, err = run_cli(capsys, "verify", "--config", str(cfg))
    assert (code, out) == (64, "")
    assert "config error:" in err


def test_config_integral_float_is_valid(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"identity": "euler", "torus": "norm1:-1", "pmax": 7.0, "budget": 1e8}))
    code, doc, _ = run_json(capsys, "verify", "--config", str(cfg))
    assert code == 0
    assert (doc["config_echo"]["pmax"], doc["config_echo"]["budget"]) == (7, 10**8)


def test_non_finite_tol_exits_64(capsys, tmp_path):
    # an infinite tol would let no tnc row FAIL, and is not JSON in the echo
    argv = ("verify", "tnc", "--torus", "norm1:-1")
    code, out, err = run_cli(capsys, *argv, "--tol", "inf")
    assert (code, out) == (64, "") and "config error: tol" in err
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"tol": 1e400}')
    code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
    assert (code, out) == (64, "") and "config error: tol" in err


@pytest.mark.parametrize("content", [
    b'\xff\xfe{"pmax": 7}',  # a UTF-16 byte-order mark: JSON is UTF-8
    b'{"pmax": ' + b"[" * 100_000,  # deeper than the decoder can recurse
], ids=["not-utf8", "nested-too-deeply"])
def test_unreadable_config_exits_64(capsys, tmp_path, content):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(content)
    code, out, err = run_cli(capsys, "verify", "euler", "--torus", "norm1:-1",
                             "--config", str(cfg))
    assert (code, out) == (64, "")
    assert err.startswith(f"config error: config: cannot read {cfg}: ")
    assert err.count("\n") == 1


LONG_INT = "1" * 5000  # more digits than int() converts; float() reads inf


@pytest.mark.parametrize("key, source", [
    ("budget", "flag"), ("budget", "config-string"), ("budget", "config-int"),
    ("pmax", "flag"), ("tol", "flag"),
])
def test_an_integer_too_long_to_convert_is_out_of_range(capsys, tmp_path, key, source):
    # every source gives the one line, with no advice on interpreter settings
    argv = ["verify", "euler", "--torus", "norm1:-1"]
    cfg = tmp_path / "cfg.json"
    if source == "flag":
        argv += [f"--{key}", LONG_INT]
    else:
        value = f'"{LONG_INT}"' if source == "config-string" else LONG_INT
        cfg.write_text(f'{{"{key}": {value}}}')
        argv += ["--config", str(cfg)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (
        64, "", f"config error: {key}: out of range: an integer of 5000 digits\n")


@pytest.mark.parametrize("raw, message", [
    ("_".join(LONG_INT), "out of range: an integer of 5000 digits"),  # "_" is no digit
    (f" -{LONG_INT} ", "out of range: an integer of 5000 digits"),
    ("1__0", "not a number: '1__0'"),  # not int()'s grammar, however short
    ("1_", "not a number: '1_'"),
])
def test_a_long_integer_is_read_by_int_grammar(capsys, raw, message):
    code, out, err = run_cli(capsys, "verify", "euler", "--torus", "norm1:-1", f"--pmax={raw}")
    assert (code, out, err) == (64, "", f"config error: pmax: {message}\n")


@pytest.mark.parametrize("key, message", [
    ("out", "out: expected a file path string"),
    ("torus", "torus: expected a spec string or a list of them"),
    ("identity", "identity: invalid choice: an integer of 5000 digits "
                 "(choose from euler, lifting, globalinv, density, sha, tnc, all)"),
], ids=["out", "torus", "identity"])
def test_a_long_config_integer_where_no_number_goes_is_a_type_error(capsys, tmp_path,
                                                                   key, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(f'{{"identity": "euler", "torus": "norm1:-1", "{key}": {LONG_INT}}}')
    code, out, err = run_cli(capsys, "verify", "--config", str(cfg))
    assert (code, out, err) == (64, "", f"config error: {message}\n")


@pytest.mark.parametrize("identity", ["lifting", "all"])
def test_kmax_beyond_sys_maxsize_cuts_no_level(capsys, identity):
    # islice takes no stop above sys.maxsize, and no budget admits over 31
    # levels: the rows are those of --kmax 31
    argv = ("verify", identity, "--torus", "norm1:-1", "--pmax", "5")
    code, doc, _ = run_json(capsys, *argv, "--kmax", str(10**20))
    assert code == 0 and doc["config_echo"]["kmax"] == 10**20
    assert doc["reports"] == run_json(capsys, *argv, "--kmax", "31")[1]["reports"]


# JSON texts for the config fuzzer: the values of each field that let a run
# go through, and the pool from which at most two fields, or an unknown key,
# draw instead: small ints, fractions, bools, numeric and other strings,
# lists, null and a number beyond a float
CONFIG_RUNNABLE = {
    "identity": ('"euler"', '"lifting"', '"density"', '"globalinv"', '"sha"', '"tnc"',
                 '"all"'),
    "torus": ('"norm1:-1"', '"norm1:-7"', '"quot:-5"', '["norm1:5", "quot:13"]'),
    "pmax": ("3", "13", "60", "7.0", '"5"'),
    "kmax": ("1", "3", "100000000000000000000"),
    "tol": ("1e-3", '"1e-3"', "0.5"),
    "budget": ("10000", "1e5", '"1000000"'),
    "jobs": ("1", "3"),
    "out": ("null", '"report.json"'),
}
CONFIG_POOL = ("0", "1", "3", "13", "60", "-1", "100000000000000000000", "2.5", "7.0",
               "1e-3", "true", "false", '"5"', '"1e-3"', '"x"', '""', '"bad"', "[]", "[5]",
               '["norm1:-1"]', "null", "1e400")


@st.composite
def config_texts(draw):
    keys = ["identity", "torus",
            *draw(st.lists(st.sampled_from(RunConfig._fields[2:]), unique=True))]
    wild = draw(st.lists(st.sampled_from((*keys, "zz")), unique=True, max_size=2))
    return "{%s}" % ", ".join(
        f'"{key}": {draw(st.sampled_from(CONFIG_POOL if key in wild else CONFIG_RUNNABLE[key]))}'
        for key in keys + ["zz"] * ("zz" in wild))


def _run_in(directory, argv):
    """(exit code, stdout, stderr without [timing] lines) of `argv` run with
    `directory` as the working directory, where a drawn --out lands."""
    out, err, cwd = io.StringIO(), io.StringIO(), os.getcwd()
    os.chdir(directory)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    kept = [line for line in err.getvalue().splitlines() if not line.startswith("[timing] ")]
    return code, out.getvalue(), kept


@settings(deadline=None, max_examples=60, derandomize=True)
@given(text=config_texts())
def test_config_fuzz_exit_codes_and_messages(text):
    with tempfile.TemporaryDirectory() as directory:
        Path(directory, "cfg.json").write_text(text)
        code, out, err = _run_in(directory, ["verify", "--config", "cfg.json"])
        assert code in (0, 1, 2, 64), err
        if code == 64:
            assert out == "" and len(err) == 1 and err[0].startswith("config error: "), err
        assert _run_in(directory, ["verify", "--config", "cfg.json"]) == (code, out, err)


# raw values as a flag and a config string both carry them: numbers in
# every form _config_number reads or rejects, an identity and non-values
SOURCE_RAWS = ("abc", "1.5", "1e2", "97.0", "0", "-3", "1e400", "nan", " 7 ", "1_0", "",
               "bogus")


@settings(deadline=None, max_examples=60, derandomize=True)
@given(key=st.sampled_from(("identity", *RunConfig._fields[2:-1])),
       raw=st.sampled_from(SOURCE_RAWS))
def test_a_value_gives_the_same_bytes_from_a_flag_and_the_config_file(key, raw):
    # the parser keeps a value as the string given, and the config merge
    # converts and checks it as it does the file's: same exit, stdout, stderr
    base = ["verify", "--torus", "norm1:-1", *["euler"] * (key != "identity")]
    pmax = {} if key == "pmax" else {"pmax": 20}
    flag = raw if key == "identity" else f"--{key}={raw}"
    with tempfile.TemporaryDirectory() as directory:
        Path(directory, "cfg.json").write_text(json.dumps({**pmax, key: raw}))
        by_file = _run_in(directory, [*base, "--config", "cfg.json"])
        by_flag = _run_in(directory, [*base, *(f"--{k}={v}" for k, v in pmax.items()), flag])
    assert by_flag == by_file


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


FUZZ_TORI = ("norm1:-1", "norm1:-7", "norm1:5", "norm1:-1,2", "res:-3", "res:2",
             "res:-1,-3", "quot:-5", "quot:13", "quot:-1,5")


@settings(deadline=None, max_examples=40)
@given(
    identity=st.sampled_from(IDENTITY_CHOICES),
    torus=st.sampled_from(FUZZ_TORI),
    tol=st.sampled_from((1e-3, 1e-6, 1e-12, 1e-13, math.inf, math.nan, 0.0)),
    budget=st.integers(10**3, 10**6),
    pmax=st.integers(0, 60),
    kmax=st.integers(0, 3),
)
# the generator favours the rejected edges (pmax 0, kmax 0, budget 10^3);
# pin a run where only tol is out of range
@example(identity="tnc", torus="norm1:5", tol=math.inf, budget=10**5, pmax=13, kmax=2)
@example(identity="all", torus="quot:-5", tol=math.nan, budget=10**5, pmax=13, kmax=2)
def test_cli_fuzz_exit_codes_and_strict_json(identity, torus, tol, budget, pmax, kmax):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["verify", identity, "--torus", torus, "--tol", repr(tol),
                     "--budget", str(budget), "--pmax", str(pmax),
                     "--kmax", str(kmax)])
    assert code in (0, 2, 64), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code != 64:
        json.loads(out.getvalue(), parse_constant=_reject_constant)


def test_budget_env(capsys, monkeypatch):
    # the budget comes from --budget, the config file or the default, and
    # from no environment variable
    argv = ("verify", "euler", "--torus", "norm1:-1")
    monkeypatch.delenv("TAMAGAWA_BUDGET", raising=False)
    unset = run_cli(capsys, *argv)[:2]
    for value in ("10000", "lots"):
        monkeypatch.setenv("TAMAGAWA_BUDGET", value)
        assert run_cli(capsys, *argv)[:2] == unset
    code, doc, _ = run_json(capsys, *argv, "--budget", "2e5")
    assert doc["config_echo"]["budget"] == 200000


def test_out_writes_stdout_text(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "verify", "euler", "--torus", "norm1:-1", "--pmax", "7",
        "--out", str(path),
    )
    assert code == 0
    assert path.read_text() == out


@pytest.mark.parametrize("target", ["file", "fifo"])
def test_out_bytes_equal_stdout_bytes(tmp_path, target):
    # both get the one buffer, stdout through its binary layer
    path = tmp_path / "report.json"
    got = []
    if target == "fifo":
        os.mkfifo(path)
        reader = threading.Thread(target=lambda: got.append(path.read_bytes()), daemon=True)
        reader.start()
    proc = _console("verify", "all", "--torus", "norm1:-1", "--pmax", "3000",
                    "--out", str(path), capture_output=True)
    if target == "fifo":
        reader.join(timeout=10)
        assert stat.S_ISFIFO(os.stat(path).st_mode)
    else:
        got.append(path.read_bytes())
    assert proc.returncode == 0 and len(proc.stdout) > 100_000
    assert got == [proc.stdout]
    assert proc.stdout.isascii()


# ---------------------------------------------------------------------------
# behavior of the identity runners through the CLI


def test_density_starved_budget_inconclusive(capsys):
    code, doc, _ = run_json(
        capsys, "verify", "density", "--torus", "norm1:-23", "--budget", "10000"
    )
    assert code == 2  # some INCONCLUSIVE, no FAIL
    rows = doc["reports"]
    row23 = next(r for r in rows if r["inputs"]["p"] == 23)
    assert row23["verdict"] == "INCONCLUSIVE"
    assert "stabilize" in row23["cause"]
    assert len(row23["values"]["trace"]) == 1  # only k=1 affordable
    row2 = next(r for r in rows if r["inputs"]["p"] == 2)
    assert row2["verdict"] == "PASS" and row2["values"]["density"] == "1/2"


def test_jobs_do_not_change_report_bytes(capsys):
    argv = ("verify", "density", "--torus", "norm1:-3")
    _, out1, _ = run_cli(capsys, *argv, "--jobs", "1")
    _, out4, _ = run_cli(capsys, *argv, "--jobs", "4")
    assert out1 == out4


def _skip_lines(err):
    return [line for line in err.splitlines() if line.startswith("[skipped]")]


def test_all_names_no_skip_where_everything_runs(capsys):
    code, _, err = run_cli(capsys, "verify", "all", "--torus", "norm1:-1", "--pmax", "13")
    assert code == 0 and _skip_lines(err) == []
    # one skip line per torus, before its [timing] line
    code, _, err = run_cli(capsys, "verify", "all", "--torus", "res:-1", "--torus",
                           "quot:-1,5", "--pmax", "13")
    assert code == 0
    assert [line.split(" ")[:2] for line in err.splitlines()] == [
        ["[skipped]", "res:-1"], ["[timing]", "res:-1"],
        ["[skipped]", "quot:-1,5"], ["[timing]", "quot:-1,5"]]


def test_all_skips_gated_identities_for_res(capsys):
    # Q-rank 1: euler/lifting/density run, the global identities are skipped
    code, doc, err = run_json(
        capsys, "verify", "all", "--torus", "res:-1", "--pmax", "13"
    )
    assert code == 0
    idents = {r["identity"] for r in doc["reports"]}
    assert idents == {"euler", "lifting", "local-density"}
    assert _skip_lines(err) == ["[skipped] res:-1 all: globalinv, sha, tnc (Q-rank 1, not 0)"]


def test_all_biquadratic_stops_at_globalinv(capsys):
    # no affine model and no class-index route: euler + globalinv only
    code, doc, err = run_json(
        capsys, "verify", "all", "--torus", "norm1:13,17", "--pmax", "13"
    )
    assert code == 0
    idents = {r["identity"] for r in doc["reports"]}
    assert idents == {"euler", "globalinv"}
    assert _skip_lines(err) == [
        "[skipped] norm1:13,17 all: lifting, density (no affine model); "
        "sha, tnc (c_gamma implemented for quadratic fields)"]


@pytest.mark.parametrize("identity", ["lifting", "density"])
@pytest.mark.parametrize("spec", ["norm1:13,17", "quot:13,17", "res:5,-3"])
def test_counting_identities_need_an_affine_model(capsys, identity, spec):
    code, out, err = run_cli(capsys, "verify", identity, "--torus", spec)
    assert (code, out) == (64, "")
    assert err == f"error: no affine model attached to {spec}; cannot count points\n"


def test_lifting_cause_names_the_bound_that_cut_the_levels(capsys):
    code, doc, _ = run_json(capsys, "verify", "lifting", "--torus", "norm1:-1",
                            "--kmax", "1", "--pmax", "5")
    assert code == 2
    assert [(r["verdict"], r["cause"]) for r in doc["reports"]] == [
        ("INCONCLUSIVE", f"--kmax 1 admits only 1 level(s) at p={p}") for p in (3, 5)]
    code, doc, _ = run_json(capsys, "verify", "lifting", "--torus", "res:-1",
                            "--budget", "10000")
    assert code == 2
    assert [(r["inputs"]["p"], r.get("cause")) for r in doc["reports"]] == [
        (3, None), *((p, f"budget admits only 1 level(s) at p={p}") for p in (5, 7, 11, 13))]


def test_c_gamma_rejects_biquadratic_quot_before_i_t(capsys):
    # c_gamma runs before i(T), so its message names what is missing
    code, _, err = run_cli(capsys, "verify", "all", "--torus", "quot:13,17", "--pmax", "13")
    assert code == 0
    assert _skip_lines(err) == [
        "[skipped] quot:13,17 all: lifting, density (no affine model); "
        "sha, tnc (c_gamma implemented for quadratic fields)"]
    for identity in ("sha", "tnc"):
        code, out, err = run_cli(capsys, "verify", identity, "--torus", "quot:13,17")
        assert (code, out) == (64, "")
        assert err.endswith("error: c_gamma implemented for quadratic fields\n")


def test_all_skips_h3_where_c_gamma_has_no_route(capsys, monkeypatch):
    # i(T) reads H^3(G, Z); c_gamma, which raises first, makes it moot
    degrees = []

    def counting(M, n, real=cohomology.cohomology):
        degrees.append(n)
        return real(M, n)

    for module in (cohomology, globalasm, cli):
        monkeypatch.setattr(module, "cohomology", counting)
    code, _, _ = run_cli(capsys, "verify", "all", "--torus", "norm1:13,17")
    assert code == 0
    assert 1 in degrees and 3 not in degrees


def test_tnc_computes_each_quantity_once(capsys, monkeypatch):
    # one tnc row reads c_gamma, i(T) and H^1 once each
    calls = dict.fromkeys(("c_gamma", "ono_constant", "cohomology"), 0)
    for name in calls:
        real = getattr(globalasm, name)

        def counting(*args, name=name, real=real, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        for module in (cohomology, globalasm, cli):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counting)
    code, _, _ = run_cli(capsys, "verify", "tnc", "--torus", "norm1:-23")
    assert code == 0
    assert calls == {"c_gamma": 1, "ono_constant": 1, "cohomology": 1}


def test_all_flagship_end_to_end(capsys):
    code, doc, _ = run_json(
        capsys, "verify", "all", "--torus", "norm1:-1", "--pmax", "13",
        "--tol", "1e-4",
    )
    assert code == 0
    rows = doc["reports"]
    by_ident = {}
    for r in rows:
        by_ident.setdefault(r["identity"], []).append(r)
    assert set(by_ident) == {
        "euler", "lifting", "local-density", "globalinv", "sha-bk", "tnc"
    }
    assert all(r["verdict"] == "PASS" for r in rows)
    tnc = by_ident["tnc"][0]
    assert tnc["values"]["ono_rhs"] == "2/1"
    assert abs(tnc["values"]["tau_tam"]["value"] - 2.0) < 1e-4
    sha = by_ident["sha-bk"][0]
    assert sha["values"]["sha_bk"] == 1 and sha["values"]["sha"] == 1


def test_all_passes_where_the_class_lattice_never_stabilized(capsys):
    # c_gamma = h/2^(t-1) = 4/4 over Q(sqrt(-177)), exact, no window search
    code, doc, _ = run_json(capsys, "verify", "all", "--torus", "norm1:-177")
    assert code == 0
    rows = {r["identity"]: r for r in doc["reports"]}
    for ident in ("sha-bk", "tnc"):
        assert rows[ident]["verdict"] == "PASS", rows[ident]
        assert rows[ident]["values"]["c_gamma"] == 1
        assert rows[ident]["values"]["c_gamma_heuristic"] is False


def test_tnc_real_field_with_large_unit(capsys):
    # log(lambda) = 28.9 over Q(sqrt(481)); the volume is in closed form
    code, doc, err = run_json(capsys, "verify", "tnc", "--torus", "norm1:481")
    assert code == 0
    (row,) = doc["reports"]
    assert row["verdict"] == "PASS", row
    assert "Traceback" not in err


def test_all_computes_c_gamma_once(capsys):
    # the sha-bk and tnc rows share one c_gamma computation
    c_gamma.cache_clear()
    code, _, _ = run_cli(capsys, "verify", "all", "--torus", "norm1:-1")
    assert code == 0
    assert c_gamma.cache_info().misses == 1


def _counting_point_counts(monkeypatch):
    """The (model, p, k) of every count_points_mod call from the count
    cache, which starts empty."""
    calls = []
    count = models.count_points_mod

    def counting(model, p, k, budget):
        calls.append((model, p, k))
        return count(model, p, k, budget=budget)

    monkeypatch.setattr(models, "count_points_mod", counting)
    cached_point_count.cache_clear()
    return calls


def test_all_computes_each_bad_prime_density_once(capsys, monkeypatch):
    # the density rows and the tnc row share one count per bad-prime level
    calls = _counting_point_counts(monkeypatch)
    code, _, _ = run_cli(capsys, "verify", "all", "--torus", "norm1:13")
    assert code == 0
    assert len(calls) == len(set(calls))
    assert set(parse_torus("norm1:13").bad_primes()) <= {p for _, p, _ in calls}


@pytest.mark.parametrize("spec,euler_counted", [("norm1:-1", (3, 5, 7, 13)),
                                                ("res:-3", (5, 7, 11, 13, 17, 19))])
def test_all_counts_each_model_level_once(capsys, monkeypatch, spec, euler_counted):
    # the euler rows, tnc's good factors, the lifting rows and both density
    # routes read one count cache: each (model, p, k) is counted once
    calls = _counting_point_counts(monkeypatch)
    code, _, _ = run_cli(capsys, "verify", "all", "--torus", spec)
    assert code == 0
    assert len(calls) == len(set(calls))
    model = parse_torus(spec).model
    assert {(model, p, 1) for p in euler_counted} <= set(calls)


def test_all_computes_i_t_once_and_reduces_d0_at_most_twice(capsys, monkeypatch):
    # the sha-bk and tnc rows share one i(T); the Q-rank gates, H^1 and the
    # H_0 torsion dual read d^0's Smith form from the cached H^0 and H^1.
    # Every binding of each counted function is wrapped, and the caches
    # start empty, so a call no wrapper sees cannot hide a recount
    d0 = cohomology.bar_boundary(parse_torus("norm1:-23").xstar, 0)
    knots, reductions = [], []
    real_knot = cohomology._knot_group_order
    real_snf = exactcore.smith_normal_form

    def counting_knot(t):
        knots.append(t.label)
        return real_knot(t)

    def counting_snf(m):
        if m == d0:
            reductions.append(m)
        return real_snf(m)

    modules = [m for name, m in sys.modules.items() if name.startswith("tamagawa.")]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is real_knot:
                monkeypatch.setattr(module, attr, counting_knot)
            elif value is real_snf:
                monkeypatch.setattr(module, attr, counting_snf)
    cohomology._cohomology.cache_clear()
    ono_constant.cache_clear()
    code, _, _ = run_cli(capsys, "verify", "all", "--torus", "norm1:-23")
    assert code == 0
    assert knots == ["norm1:-23"]
    assert 1 <= len(reductions) <= 2


def test_euler_computes_one_charpoly_per_galois_element(capsys, monkeypatch):
    calls = []

    def counting(m):
        calls.append(m)
        return charpoly(m)

    monkeypatch.setattr(galois, "charpoly", counting)
    galois._frobenius_polynomials.cache_clear()
    code, _, _ = run_cli(
        capsys, "verify", "euler", "--torus", "res:5,-3", "--pmax", "2000")
    assert code == 0
    assert 0 < len(calls) <= 4


def test_euler_evaluates_one_polynomial_per_row(capsys, monkeypatch):
    # each row evaluates its class's polynomial at p once, and res:5,-3, a
    # biquadratic torus, has no model to count.  Each coefficient is an int
    # that counts the additions it takes part in, and one evaluation by
    # Horner's rule, by eval_poly or inline, adds each of the d + 1 once.
    # Every binding of _frobenius_polynomials returns such coefficients
    added = []

    class Counted(int):
        def __add__(self, other):
            added.append(int(self))
            return int(self) + other

        __radd__ = __add__

    real = galois._frobenius_polynomials

    def counted(t):
        return tuple(tuple(map(Counted, poly)) for poly in real(t))

    for module in [m for name, m in sys.modules.items() if name.startswith("tamagawa.")]:
        for attr, value in list(vars(module).items()):
            if value is real:
                monkeypatch.setattr(module, attr, counted)
    code, out, _ = run_cli(
        capsys, "verify", "euler", "--torus", "res:5,-3", "--pmax", "2000")
    assert code == 0
    rows = len(json.loads(out)["reports"])
    assert rows > 250
    assert len(added) == 5 * rows


def test_euler_computes_each_character_once_per_residue_of_its_discriminant(capsys,
                                                                           monkeypatch):
    # norm1:5,26 has subfield discriminants 5, 104 and 520.  The class is
    # fixed by the first two characters, the third being their product, and
    # each is a character mod its |D_i|: at most phi(5) + phi(104) = 52
    # Kronecker symbols, where three per residue mod lcm = 520 make 468.
    # Every binding of kronecker_symbol is wrapped, and galois's caches start
    # empty
    calls = []
    real = exactcore.kronecker_symbol

    def counting(a, n):
        calls.append((a, n))
        return real(a, n)

    for module in [m for name, m in sys.modules.items() if name.startswith("tamagawa.")]:
        for attr, value in list(vars(module).items()):
            if value is real:
                monkeypatch.setattr(module, attr, counting)
    for value in vars(galois).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()
    code, out, _ = run_cli(
        capsys, "verify", "euler", "--torus", "norm1:5,26", "--pmax", "1267")
    assert code == 0
    assert len(json.loads(out)["reports"]) == 202
    assert 0 < len(calls) <= 4 + 48


@pytest.mark.parametrize("spec", ["res:5,-3", "norm1:-7", "quot:13", "norm1:13,17",
                                  "quot:-1,5"])
def test_euler_rows_equal_rows_from_public_functions(spec):
    torus = parse_torus(spec)
    cfg = RunConfig("euler", (spec,), pmax=600)
    want = []
    for p in primes_up_to(cfg.pmax):
        if not is_good_prime(torus, p):
            continue
        factor = euler_factor_at_one(torus, p)
        count = point_count_Fp(torus, p)
        want.append(VerificationReport(
            "euler", {"torus": spec, "p": p},
            {"euler_factor": factor, "point_count": count,
             "density": Fraction(count, p ** torus.dim)},
            PASS if factor * p ** torus.dim == count else FAIL, None))
    # the runner fills the rows' formats itself: the same bytes, in runs of
    # at most EULER_CHUNK rows of the verdict their RenderedRow names
    rows = list(run_euler(torus, cfg))
    assert render_report(rows, cfg.echo()) == render_report(want, cfg.echo())
    sizes = [r.text.count(b'"verdict": "' + r.verdict.encode()) for r in rows]
    assert sizes == [r.text.count(b'"verdict"') for r in rows]
    assert sum(sizes) == len(want) and max(sizes) <= report.EULER_CHUNK


def test_euler_rows_join_runs_of_pass_rows_only(monkeypatch):
    # seven PASS rows, a FAIL, two PASS: runs of at most three, the FAIL alone
    monkeypatch.setattr(report, "EULER_CHUNK", 3)
    primes = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
    terms = [(p, p - 1, p - 1 if p != 23 else p + 1) for p in primes]
    rows = list(report.euler_rows("norm1:-3,%d", 1, terms))
    assert [(r.verdict, r.text.count(b'"identity"')) for r in rows] == [
        (PASS, 3), (PASS, 3), (PASS, 1), (FAIL, 1), (PASS, 2)]
    want = [VerificationReport(
        "euler", {"torus": "norm1:-3,%d", "p": p},
        {"euler_factor": Fraction(s, p), "point_count": c, "density": Fraction(c, p)},
        PASS if s == c else FAIL, None if s == c else f"p^d * E_p(1) = {s} != {c}")
        for p, s, c in terms]
    assert render_report(rows) == render_report(want)


def _recording_renders(monkeypatch):
    """The (obj, nl, text) of every `_render` call, nested ones included."""
    calls, render = [], report._render

    def recording_render(obj, nl):
        text = render(obj, nl)
        calls.append((obj, nl, text))
        return text

    monkeypatch.setattr(report, "_render", recording_render)
    return calls


def test_euler_rows_are_not_built_or_walked_one_by_one(capsys, monkeypatch):
    # each row is filled into its torus's PASS or FAIL template by the
    # runner: neither a VerificationReport nor a walk of _render per row, so
    # ~40 rows take as many renders as ~300: the config echo's and the two
    # templates'
    renders, reports, new = _recording_renders(monkeypatch), [], VerificationReport.__new__

    def counting_new(cls, *args, **kwargs):
        reports.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(VerificationReport, "__new__", counting_new)
    counts, rows = [], []
    for pmax in ("200", "2000"):
        renders.clear()
        code, out, _ = run_cli(capsys, "verify", "euler", "--torus", "res:5,-3", "--pmax", pmax)
        assert code == 0
        counts.append(len(renders))
        rows.append(out.count('"identity": "euler"'))
    assert rows[0] < 50 and rows[1] > 250
    assert counts[0] == counts[1] and reports == []


def test_euler_templates_hold_one_conversion_per_value(monkeypatch):
    # PASS: p, density, euler_factor, point_count (two each for the
    # fractions); FAIL: the cause too; the label's % converts nothing
    renders = _recording_renders(monkeypatch)
    rows = list(report.euler_rows("norm1:-3,%d", 1, [(5, 4, 4), (7, 6, 8)]))
    ok, bad = [text for _, nl, text in renders if nl == report._ROW_NL]
    assert '"verdict": "PASS"' in ok and '"verdict": "FAIL"' in bad
    for template, n in ((ok, 6), (bad, 7)):
        marks = re.findall(r"%[%a-z]", template)
        assert len(marks) - marks.count("%%") == n and "%%d" in template
        assert template % ((0,) * n)
    assert [r.verdict for r in rows] == [PASS, FAIL]
    assert all(b'"torus": "norm1:-3,%d"' in r.text for r in rows)


def test_all_counts_each_level_once(capsys, monkeypatch):
    # the lifting rows and the density cross-checks share their counts
    calls = _counting_point_counts(monkeypatch)
    code, _, _ = run_cli(capsys, "verify", "all", "--torus", "norm1:-1")
    assert code == 0
    assert len(calls) == len(set(calls)) == 19


def test_multiple_tori_in_one_run(capsys):
    code, doc, _ = run_json(
        capsys, "verify", "globalinv",
        "--torus", "norm1:-1", "--torus", "norm1:-7", "--torus", "quot:-3",
    )
    assert code == 0
    assert [r["inputs"]["torus"] for r in doc["reports"]] == [
        "norm1:-1", "norm1:-7", "quot:-3"
    ]
