"""CLI: torus grammar, config merging, exit codes, report schema, and
byte-identical output across worker counts."""

import gc
import hashlib
import io
import json
import math
import os
import stat
import subprocess
import sys
import threading
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tamagawa import cli, galois, globalasm, localmeasure, report
from tamagawa.cli import RunConfig, main, parse_torus, run_euler
from tamagawa.errors import ConfigError
from tamagawa.exactcore import charpoly, primes_up_to
from tamagawa.galois import euler_factor_at_one, is_good_prime, point_count_Fp
from tamagawa.globalasm import c_gamma
from tamagawa.localmeasure import LocalDensity, bad_prime_density, cached_point_count
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
    write_report_atomic(str(path), "old\n")
    write_report_atomic(str(path), "new\n")
    assert path.read_text() == "new\n"
    assert [p for p in os.listdir(tmp_path) if p.endswith(".tmp")] == []


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=oct)
def test_write_report_gives_the_mode_of_a_new_file(tmp_path, umask):
    old = os.umask(umask)
    try:
        write_report_atomic(str(tmp_path / "new.json"), "x\n")
        write_report_atomic(str(tmp_path / "new.json"), "y\n")  # over a regular file
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
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
    reader.start()
    write_report_atomic(str(fifo), "report\n")
    reader.join(timeout=10)
    assert not reader.is_alive() and got == ["report\n"]
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
# rows of one shape, with other values, reuse one cached format
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


def test_row_format_cache_is_bounded():
    assert 0 < report._row_format.cache_info().maxsize < math.inf


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
    dens = LocalDensity(2, Fraction(2), "brute-force", (), True)
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
        ("verify", "euler", "--torus", "norm1:-1", "--pmax", "abc"),
        ("verify", "euler", "--torus", "norm1:-1", "--jobs", "x"),
        ("verify", "bogus", "--torus", "norm1:-1"),
    ],
)
def test_usage_errors_exit_64(capsys, argv):
    # a usage error exits 64, never 2, the INCONCLUSIVE code
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
    # tau_tam hands tol / (2 * c_gamma) down to l_value's 1e-12 floor
    code, out, err = run_cli(
        capsys, "verify", identity, "--torus", "norm1:-1", "--tol", tol)
    assert code == 64
    assert out == ""
    assert "config error: tol:" in err
    assert "Traceback" not in err


def test_budget_ceiling(capsys):
    # 2^62 is the documented upper end of --budget; one more exits 64
    RunConfig("euler", ("norm1:-1",), budget=2**62).validate()
    with pytest.raises(ConfigError, match="budget"):
        RunConfig("euler", ("norm1:-1",), budget=2**62 + 1).validate()
    # the flag is read as an integer, not rounded to the float 2^62
    code, out, err = run_cli(
        capsys, "verify", "euler", "--torus", "norm1:-1", "--budget", str(2**62 + 1))
    assert (code, out) == (64, "") and "config error: budget" in err


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
         "tamagawa.cli.parse_args(['verify', 'euler', '--torus', 'norm1:-1']); "
         "print(sorted({'dataclasses', 'inspect', 'argparse', 'gettext', 'locale'} "
         "& set(sys.modules)))"],
        capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


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
    def disagree(D, tol=1e-9):
        raise ArithmeticError(f"L(1) methods disagree at D={D}")

    monkeypatch.setattr(globalasm, "l_value", disagree)
    code, out, err = run_cli(capsys, "verify", "tnc", "--torus", "norm1:-1")
    assert code == 70
    assert out == ""
    assert "internal error: L(1) methods disagree at D=-4" in err
    assert "Traceback" not in err


def _assert_failed_run_wrote_nothing(code, out, err, path):
    assert code == 70
    assert out == ""
    assert not path.exists()
    assert "internal error: " in err and "Traceback" not in err


def test_error_after_rendered_rows_writes_no_report(capsys, monkeypatch, tmp_path):
    # the euler, lifting, density, globalinv and sha rows have rendered when
    # tnc's L-value fails: the run still writes nothing
    calls = []

    def disagree(D, tol=1e-9):
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

    def second_fails(torus, primes):
        calls.append(torus.label)
        if len(calls) == 2:
            raise ArithmeticError(f"good factor mismatch on {torus.label}")
        return terms(torus, primes)

    monkeypatch.setattr(cli, "good_euler_terms", second_fails)
    path = tmp_path / "report.json"
    code, out, err = run_cli(capsys, "verify", "euler", "--torus", "norm1:-1",
                             "--torus", "norm1:-23", "--out", str(path))
    assert calls == ["norm1:-1", "norm1:-23"]
    _assert_failed_run_wrote_nothing(code, out, err, path)
    assert [line.split(":")[0] for line in err.splitlines()] == [
        "[timing] norm1", "internal error"]


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


def test_euler_run_triggers_no_collection(capsys):
    # no row outlives its rendering, so the tracked heap does not grow
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.callbacks.append(count)
    try:
        code = main(["verify", "euler", "--torus", "res:5,-3", "--pmax", "7000"])
    finally:
        gc.callbacks.remove(count)
    assert code == 0
    assert starts == []
    assert capsys.readouterr().out.count('"identity": "euler"') > 800


# sha256 of stdout and the exit code, recorded with the renderer that ran
# `json.dumps` over the `to_jsonable` tree
PINNED_REPORTS = [
    (("euler", "--torus", "res:5,-3", "--pmax", "2000"), 0,
     "31e42d09f92f404ec62c14ef24403747c5892df9ab95b2be64e4a3baf1f38aa7"),
    (("euler", "--torus", "norm1:13,-19", "--pmax", "1000"), 0,
     "1d50ba9f49f0f0fdeb5a6b835a62edae68ea8e1d7ec8073004b859ac6d95a60e"),
    (("density", "--torus", "norm1:-131"), 2,
     "2a4ab8c99bd3c38fbd68ea180748d9c8bd51c7796120b91e4945f34552c88e15"),
    (("lifting", "--torus", "norm1:-1", "--kmax", "4"), 0,
     "6bcb9d53a46c1ddc204195dc6e80c94b86c821da72265b55d43900512d57111f"),
    (("all", "--torus", "quot:-5"), 0,
     "01b7773672f6a1c3fc54a976b360bcd14574a0a432f3ff92697500b1bc3b22a5"),
    (("globalinv", "--torus", "norm1:13,17"), 0,
     "181038b0fb95cde5777c5bf044728b4e08599212c565619ef823e459547562c1"),
]


@pytest.mark.parametrize("argv,code,digest", PINNED_REPORTS,
                         ids=[" ".join(argv) for argv, _, _ in PINNED_REPORTS])
def test_report_bytes_are_pinned(capsys, argv, code, digest):
    got, out, _ = run_cli(capsys, "verify", *argv)
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("frozen_by_caller", [False, True], ids=["unfrozen", "frozen"])
@pytest.mark.parametrize("argv,code", [
    (("euler", "--torus", "norm1:-1", "--pmax", "30"), 0),
    (("euler", "--torus", "bogus:-1"), 64),
    (("tnc", "--torus", "norm1:-1"), 70),
], ids=["exit-0", "exit-64", "exit-70"])
def test_main_leaves_the_gc_as_it_found_it(capsys, monkeypatch, argv, code, enabled,
                                           frozen_by_caller):
    def disagree(D, tol=1e-9):
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


def test_main_runs_with_the_import_heap_frozen(capsys, monkeypatch):
    seen = []

    def runner(torus, cfg):
        seen.append(gc.get_freeze_count())
        return []

    monkeypatch.setitem(cli._RUNNERS, "euler", runner)
    assert gc.get_freeze_count() == 0
    assert run_cli(capsys, "verify", "euler", "--torus", "norm1:-1")[0] == 0
    assert seen[0] > 0 and gc.get_freeze_count() == 0


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


def test_infinite_budget_exits_64(capsys, monkeypatch, tmp_path):
    # int(float("inf")) raises OverflowError, not ValueError
    argv = ("verify", "euler", "--torus", "norm1:-1")
    code, out, err = run_cli(capsys, *argv, "--budget", "inf")
    assert (code, out) == (64, "") and "config error:" in err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"budget": "1e400"}))
    code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
    assert (code, out) == (64, "") and "config error:" in err
    monkeypatch.setenv("TAMAGAWA_BUDGET", "inf")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (64, "") and "TAMAGAWA_BUDGET" in err


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


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


FUZZ_TORI = ("norm1:-1", "norm1:-7", "norm1:5", "norm1:-1,2", "res:-3", "res:2",
             "res:-1,-3", "quot:-5", "quot:13", "quot:-1,5")


@settings(deadline=None, max_examples=40)
@given(
    identity=st.sampled_from(("euler", "lifting", "density", "globalinv", "sha",
                              "tnc", "all")),
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
    monkeypatch.setenv("TAMAGAWA_BUDGET", "1e5")
    code, doc, _ = run_json(capsys, "verify", "euler", "--torus", "norm1:-1")
    assert code == 0 and doc["config_echo"]["budget"] == 100000
    code, doc, _ = run_json(
        capsys, "verify", "euler", "--torus", "norm1:-1", "--budget", "2e5"
    )
    assert doc["config_echo"]["budget"] == 200000
    monkeypatch.setenv("TAMAGAWA_BUDGET", "lots")
    code, _, err = run_cli(capsys, "verify", "euler", "--torus", "norm1:-1")
    assert code == 64 and "TAMAGAWA_BUDGET" in err


def test_out_writes_stdout_text(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "verify", "euler", "--torus", "norm1:-1", "--pmax", "7",
        "--out", str(path),
    )
    assert code == 0
    assert path.read_text() == out


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


def test_all_computes_each_bad_prime_density_once(capsys):
    # the density rows and tau_coh share one count per bad prime
    bad_prime_density.cache_clear()
    code, _, _ = run_cli(capsys, "verify", "all", "--torus", "norm1:13")
    assert code == 0
    assert bad_prime_density.cache_info().misses == len(
        parse_torus("norm1:13").bad_primes())


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
    assert list(run_euler(torus, cfg)) == want


def test_all_counts_each_level_once(capsys, monkeypatch):
    # the lifting rows and the density cross-checks share their counts
    calls = []
    count = localmeasure.count_points_mod

    def counting(model, p, k, budget):
        calls.append((model, p, k))
        return count(model, p, k, budget=budget)

    monkeypatch.setattr(localmeasure, "count_points_mod", counting)
    cached_point_count.cache_clear()
    bad_prime_density.cache_clear()
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
