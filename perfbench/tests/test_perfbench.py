"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests
"""

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(os.path.dirname(BENCH), "src")
sys.path[:0] = [BENCH, SRC]

import gate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_and_seeded(workload):
    first = workloads.generate(workload, 3)
    assert first == workloads.generate(workload, 3)
    assert first != workloads.generate(workload, 4)
    assert all(argv[:2] == ["verify", argv[1]] and argv[-2:] == ["--jobs", "1"]
               for argv in first)


def test_generator_keeps_pass_shape_across_seeds():
    for seed in range(20):
        runs = workloads.generate("verify-all", seed)
        tori = [argv[3] for argv in runs]
        assert tori[:4] == list(workloads.VERIFY_ALL_ANCHORS)
        ds = [int(t.split(":")[1]) for t in tori[4:]]
        assert sum(d < 0 for d in ds) == sum(d > 0 for d in ds) == 1
        assert all(abs(d) <= 200 and workloads.is_squarefree(d) for d in ds)
        # The median invocation is always the two cheapest anchors.
        pool = workloads.load_pool()
        anchors = sorted(pool[t][0] for t in workloads.VERIFY_ALL_ANCHORS)
        assert sorted(pool[t][0] for t in tori)[2:4] == anchors[:2]
        assert all(pool[t][1] > 0 for t in tori[4:])
        euler = workloads.generate("euler-sweep", seed)
        assert not any(a[1] == "globalinv" and a[3].startswith("res:") for a in euler)
        # 11 cheap runs, the 8 ladder runs in the middle, 7 dear runs.
        pmax = [int(a[5]) if a[1] == "euler" else 0 for a in euler]
        assert (sum(p <= 1300 for p in pmax), sum(p >= 20000 for p in pmax)) == (11, 7)
        ladder = [a for a in euler if a[3] == "res:5,-3" and 1300 < int(a[5]) < 20000]
        assert [int(a[5]) for a in ladder] == list(workloads.EULER_LADDER)


def test_reference_covers_every_invocation_of_the_default_seed():
    expected = {" ".join(argv) for w in workloads.WORKLOADS
                for argv in workloads.generate(w, workloads.DEFAULT_SEED)}
    assert set(gate.load_reference()) == expected


def test_every_layer_function_exists_and_is_wrapped():
    wrappers = tracing.Tracer().install()
    mods = tracing.package_modules()
    assert "__main__" not in mods
    assert set(wrappers) == set(tracing.LAYERS)
    for name, wrapper in wrappers.items():
        mod, fn = name.split(".")
        assert getattr(mods[mod], fn) is wrapper
        for module in mods.values():
            for value in vars(module).values():
                assert value is not wrapper.__wrapped__, \
                    f"{name} left unwrapped in {module.__name__}"
    runners = mods["cli"]._RUNNERS.values()
    assert all(f is wrappers[f"cli.{f.__name__}"] for f in runners)


def test_a_renamed_layer_function_fails_loudly(monkeypatch):
    monkeypatch.setitem(tracing.LAYERS, "globalasm.no_such_function", (("busy_s",), None))
    with pytest.raises(AttributeError):
        tracing.Tracer().install()


def _span(sid, parent, name, start, end, **extra):
    return {"id": sid, "parent": parent, "name": name, "start": start, "end": end, **extra}


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        _span(0, None, "cli.run_tnc", 0.0, 10.0),
        _span(1, 0, "globalasm.c_gamma", 1.0, 3.0),
        _span(2, 0, "globalasm.l_value", 2.0, 5.0),
        _span(3, 0, "globalasm.archimedean_volume", 6.0, 7.0),
        _span(4, 1, "exactcore.row_lattice_index", 1.5, 2.5),
    ]
    own = tracing.self_times(spans)
    assert own[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own[1] == pytest.approx(2.0 - 1.0)
    assert own[4] == pytest.approx(1.0)


def test_aggregate_counts_nested_calls_once_in_busy_time():
    spans = [
        _span(0, None, "globalasm.c_gamma", 0.0, 4.0, counts={"rounds": 3}, torus="norm1:-1"),
        _span(1, 0, "exactcore.row_lattice_index", 1.0, 2.0, counts={"rows": 7}),
        _span(2, 1, "exactcore.row_lattice_index", 1.2, 1.5, counts={"rows": 2}),
        _span(3, None, "globalasm.c_gamma", 5.0, 6.0, counts={"rounds": 5}, torus="norm1:-1"),
    ]
    m = tracing.aggregate([spans])
    assert m["globalasm.c_gamma.calls"] == 2
    assert m["globalasm.c_gamma.calls_per_torus"] == 2.0
    assert m["globalasm.c_gamma.rounds"] == 8
    assert m["globalasm.c_gamma.busy_s"] == pytest.approx(5.0)
    assert m["globalasm.c_gamma.self_s"] == pytest.approx(4.0)
    assert m["exactcore.row_lattice_index.calls"] == 2
    assert m["exactcore.row_lattice_index.busy_s"] == pytest.approx(1.0)
    assert m["exactcore.row_lattice_index.rows"] == 9
    assert set(m) | {tracing.OVERHEAD_METRIC} == set(tracing.metric_units())


def _report(*verdicts):
    rows = []
    for p, v in enumerate(verdicts):
        row = {"identity": "euler", "inputs": {"p": p}, "values": {"count": p, "d": "1/2"},
               "verdict": v}
        if v != "PASS":
            row["cause"] = "x"
        rows.append(row)
    return json.dumps({"version": 1, "config_echo": {}, "reports": rows})


def test_gate_flags_traceback_bad_exit_and_fail_rows():
    argv = ["verify", "euler"]
    assert gate.check(argv, 0, _report("PASS"), "", {})[0] == []
    assert gate.check(argv, 2, _report("PASS", "INCONCLUSIVE"), "", {})[0] == []
    reasons, _ = gate.check(argv, 1, "", "Traceback (most recent call last):\n", {})
    assert any("exit code 1" in r for r in reasons)
    assert any("traceback" in r for r in reasons)
    assert any("not a JSON report" in r for r in reasons)
    assert gate.check(argv, 1, _report("PASS", "FAIL"), "", {})[0]
    assert gate.check(argv, 0, _report("PASS", "INCONCLUSIVE"), "", {})[0]


def test_gate_compares_pass_rows_with_the_reference():
    argv = ["verify", "euler"]
    ref = {"verify euler": gate.reference_entry(json.loads(_report("PASS", "INCONCLUSIVE")))}
    assert gate.check(argv, 2, _report("PASS", "INCONCLUSIVE"), "", ref)[0] == []
    assert gate.check(argv, 0, _report("PASS", "PASS"), "", ref)[0] == []
    changed = json.loads(_report("PASS", "INCONCLUSIVE"))
    changed["reports"][0]["values"]["d"] = "1/3"
    assert gate.check(argv, 2, json.dumps(changed), "", ref)[0]
    assert gate.check(argv, 2, _report("INCONCLUSIVE", "INCONCLUSIVE"), "", ref)[0]


def _timed(cpu_s, main_cpu_s, calibration=None):
    import run
    done = run.Invocation([], 0, "", "", "", 0.0, calibration or run.CALIBRATION_REF_S)
    done.record = {"cpu_s": cpu_s, "main_cpu_s": main_cpu_s, "import_cpu_s": 0.1,
                   "peak_rss_kb": 1024}
    return done


def test_timings_are_medians_over_repeats():
    import run
    passes = [(False, 0.0, [_timed(2.0, 1.5), _timed(1.0, 0.7), _timed(3.0, 2.8)]),
              (False, 0.0, [_timed(1.6, 1.2), _timed(1.4, 1.1), _timed(2.6, 2.4)]),
              (False, 0.0, [_timed(1.8, 1.3), _timed(1.2, 0.9), _timed(2.8, 2.5)])]
    m = run.end_to_end(passes)
    assert m["batch_s"] == pytest.approx(1.8 + 1.2 + 2.8)
    assert m["verify_s.p50"] == pytest.approx(1.3)
    assert m["setup_s"] == pytest.approx(0.1)
    passes[2][2][0].record = None  # a repeat without a timing record is skipped
    assert run.pass_seconds(passes) == pytest.approx((2.0 + 1.6) / 2 + 1.2 + 2.8)
    passes.append((False, 0.0, [_timed(1.0, 0.5)]))  # a last pass cut short
    m = run.end_to_end(passes)
    assert m["batch_s"] == pytest.approx(1.6 + 1.2 + 2.8)
    assert m["verify_s.p50"] == pytest.approx(1.2)


def test_timings_are_scaled_by_the_calibrations_around_them():
    import run
    ref = run.CALIBRATION_REF_S
    # A machine at half speed takes twice the CPU time, calibration included.
    slow = [(False, 0.0, [_timed(2 * t, 2 * t, 2 * ref) for t in (1.0, 2.0, 3.0, 4.0)])]
    assert run.end_to_end(slow)["batch_s"] == pytest.approx(10.0)
    # An invocation is scaled by the calibrations before and after it.
    passes = [(False, 0.0, [_timed(1.0, 1.0, c) for c in (ref, 3 * ref)]),
              (False, 0.0, [_timed(1.0, 1.0, ref)])]
    run.set_scales(passes)
    assert [inv.scale for _, _, done in passes for inv in done] == [0.5, 0.5, 1.0]


def test_a_traced_run_has_an_untraced_and_a_traced_pass_however_short(monkeypatch):
    import run
    calls = []

    def fake_pass(invocations, trace, reference, deadline, stop_at=None, expected=None):
        calls.append(trace)
        return 10.0, [_timed(1.0, 1.0) for _ in invocations]

    monkeypatch.setattr(run, "run_pass", fake_pass)
    passes = run.run_passes([["verify"]], 1.0, {}, (False, True), run_start=0.0)
    assert [trace for trace, _, _ in passes] == calls == [False, True]


def test_benchmark_json_declares_exactly_the_reported_metrics():
    import run
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.metric_units()
