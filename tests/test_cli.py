"""CLI: torus grammar, config merging, exit codes, report schema, and
byte-identical output across worker counts."""

import json
import os

import pytest

from tamagawa.cli import main, parse_torus
from tamagawa.errors import ConfigError
from tamagawa.exactcore import charpoly
from tamagawa.globalasm import c_gamma
from tamagawa.localmeasure import bad_prime_density
from tamagawa.report import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    Real,
    VerificationReport,
    rat_str,
    render_report,
    to_jsonable,
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
    from fractions import Fraction

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


def test_render_is_versioned_and_sorted():
    text = render_report([], {"b": 1, "a": 2})
    doc = json.loads(text)
    assert doc["version"] == 1
    assert text.index('"a"') < text.index('"b"')
    assert text.endswith("\n")


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


def test_all_skips_gated_identities_for_res(capsys):
    # Q-rank 1: euler/lifting/density run, the global identities are skipped
    code, doc, _ = run_json(
        capsys, "verify", "all", "--torus", "res:-1", "--pmax", "13"
    )
    assert code == 0
    idents = {r["identity"] for r in doc["reports"]}
    assert idents == {"euler", "lifting", "local-density"}


def test_all_biquadratic_stops_at_globalinv(capsys):
    # no affine model and no class-index route: euler + globalinv only
    code, doc, _ = run_json(
        capsys, "verify", "all", "--torus", "norm1:13,17", "--pmax", "13"
    )
    assert code == 0
    idents = {r["identity"] for r in doc["reports"]}
    assert idents == {"euler", "globalinv"}


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


def test_euler_computes_one_charpoly_per_galois_element(capsys):
    charpoly.cache_clear()
    code, _, _ = run_cli(
        capsys, "verify", "euler", "--torus", "res:5,-3", "--pmax", "2000")
    assert code == 0
    assert charpoly.cache_info().misses <= 4


def test_multiple_tori_in_one_run(capsys):
    code, doc, _ = run_json(
        capsys, "verify", "globalinv",
        "--torus", "norm1:-1", "--torus", "norm1:-7", "--torus", "quot:-3",
    )
    assert code == 0
    assert [r["inputs"]["torus"] for r in doc["reports"]] == [
        "norm1:-1", "norm1:-7", "quot:-3"
    ]
