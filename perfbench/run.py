"""Benchmark of the `tamagawa verify` command line.

    python3 perfbench/run.py --workload verify-all --seed 0 --seconds 40 --trace 0

Runs the workload's invocation list (see workloads.py) in passes, each
invocation in a fresh interpreter (perfbench/child.py), one at a time, at
`--jobs 1` and with TAMAGAWA_BUDGET cleared, for about `--seconds`.
Timings are CPU seconds scaled to a reference machine speed by a
calibration loop timed between spawns (see README.md, "Timing
statistics").  Every invocation goes through the correctness gate
(gate.py).

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced passes, checks that the traced reports are byte-identical to the
untraced ones, and reports the per-layer metrics (tracing.py) and the tracing
overhead.  The last line of stdout is the JSON result; the lines before it
print each metric by name with its unit.  Measurements use only in-process
timers and each child's own peak-memory counter.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy as np

import gate
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

END_TO_END_UNITS = {
    "setup_s": "s",
    "batch_s": "s",
    "verify_s.p50": "s",
    "peak_rss_mb": "MB",
    "conclusive_ratio": "ratio",
}

WARMUP_IMPORTS = 2
# Seconds from the start of the run: no pass starts that is expected to end
# after PASS_LIMIT_S, and every child is killed at KILL_LIMIT_S, so that the
# run ends within 180 s.
PASS_LIMIT_S = 150.0
KILL_LIMIT_S = 170.0

# CPU seconds that calibration_kernel() takes on the reference machine.  Each
# invocation's CPU times are scaled by CALIBRATION_REF_S over the mean of the
# calibrations timed just before and just after it (see README.md, "Timing
# statistics").
CALIBRATION_REF_S = 0.02


class Invocation:
    """One finished child process and what the gate made of it.  finish()
    loads its record and drops its output, keeping the output's digest and
    verdict counts."""

    def __init__(self, argv, code, stdout, stderr, record_path, wall=None, calibration=None):
        self.argv = argv
        self.wall = wall
        self.calibration = calibration
        self.scale = None
        self.code = code
        self.stdout = stdout
        self.stderr = stderr
        self.record_path = record_path
        self.record = None
        self.reasons = []
        self.out_digest = None
        self.rows = self.passed = 0


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("TAMAGAWA_BUDGET", None)
    return env


def calibration_kernel() -> int:
    """A fixed amount of interpreter big-integer arithmetic and numpy array
    arithmetic, the two kinds of work the package does.  It uses no code of
    the package, so a change to the program cannot change its time."""
    x = acc = 0
    for i in range(1, 26000):
        x = (x * 1103515245 + i) % (1 << 127)
        acc ^= x >> (i & 63)
    a = np.arange(1 << 16, dtype=np.int64)
    for _ in range(52):
        a = (a * 7 + 3) % 1000003
    return acc ^ int(a.sum())


def time_calibration() -> float:
    """CPU seconds of calibration_kernel() in this thread: the faster of two
    calls, so that a disturbance shorter than a call (a cold cache after the
    last child, an interrupt) does not count, while a slow stretch of the
    machine slows both."""
    times = []
    for _ in range(2):
        c0 = time.thread_time()
        calibration_kernel()
        times.append(time.thread_time() - c0)
    return min(times)


def invoke(argv, trace: bool, timeout: float, record_path: str) -> Invocation:
    """Time the calibration, then run one child to completion and take its
    wall time, spawn to exit; its record is read later by finish()."""
    os.makedirs(os.path.dirname(record_path), exist_ok=True)
    if os.path.exists(record_path):
        os.remove(record_path)
    calibration = time_calibration()
    cmd = [sys.executable, CHILD, record_path, "1" if trace else "0", *argv]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              env=child_env(), timeout=timeout)
    except subprocess.TimeoutExpired:
        inv = Invocation(argv, None, "", "", record_path, calibration=calibration)
        inv.reasons = [f"timed out after {timeout:.0f} s"]
        return inv
    return Invocation(argv, proc.returncode, proc.stdout, proc.stderr, record_path,
                      time.perf_counter() - start, calibration)


def finish(inv: Invocation, reference) -> Invocation:
    """Load the child's record and run the correctness gate."""
    if os.path.exists(inv.record_path):
        with open(inv.record_path) as fh:
            inv.record = json.load(fh)
    if not inv.reasons:
        inv.reasons, report = gate.check(inv.argv, inv.code, inv.stdout, inv.stderr, reference)
        if report is not None:
            inv.rows = len(report["reports"])
            inv.passed = sum(row["verdict"] == "PASS" for row in report["reports"])
        if inv.record is None and not inv.reasons:
            inv.reasons = ["the child wrote no timing record"]
    inv.out_digest = hashlib.sha256(inv.stdout.encode()).hexdigest()
    inv.stdout = inv.stderr = None
    return inv


def run_pass(invocations, trace, reference, deadline, stop_at=None, expected=None) -> tuple:
    """(wall seconds from the first spawn to the last report, invocations).
    With stop_at, the pass ends early before an invocation whose expected
    wall time would take it past stop_at.  Records are read and reports
    checked after the clock stops."""
    done = []
    start = time.perf_counter()
    for j, argv in enumerate(invocations):
        if stop_at is not None and time.perf_counter() + expected[j] > stop_at:
            break
        timeout = max(1.0, deadline - time.perf_counter())
        done.append(invoke(argv, trace, timeout, os.path.join(OUT_DIR, f"record-{j}.json")))
    wall = time.perf_counter() - start
    return wall, [finish(inv, reference) for inv in done]


def run_passes(invocations, seconds, reference, modes, run_start) -> list:
    """Run passes of the list, cycling through `modes` (trace flags), for
    about `seconds`; each mode runs at least one whole pass.  With one mode
    the last pass stops where the time is up, so the whole run measures;
    with two, every pass is whole, because per-layer totals are per pass.
    Returns [(trace, wall, invocations), ...]."""
    t0 = time.perf_counter()
    stop_at = min(t0 + seconds, run_start + PASS_LIMIT_S)
    deadline = run_start + KILL_LIMIT_S
    passes = []
    while True:
        trace = modes[len(passes) % len(modes)]
        if len(modes) == 1 and passes:
            expected = [inv.wall or 0.0 for inv in passes[0][2]]
            wall, done = run_pass(invocations, trace, reference, deadline, stop_at, expected)
        else:
            wall, done = run_pass(invocations, trace, reference, deadline)
        if done:
            passes.append((trace, wall, done))
        # Whole passes need room for the longest one seen so far.
        ahead = max(w for _, w, _ in passes) if len(modes) > 1 else 0.0
        if len(done) < len(invocations) or (
                len(passes) >= len(modes) and time.perf_counter() + ahead > stop_at):
            break
    return passes


def columns(passes) -> list:
    """The repeats of each position of the invocation list that have a
    timing record, over the passes (the last pass may be partial)."""
    cols = {}
    for _, _, done in passes:
        for j, inv in enumerate(done):
            if inv.record:
                cols.setdefault(j, []).append(inv)
    return list(cols.values())


def set_scales(passes) -> None:
    """Give every invocation its factor from CPU seconds to reference
    seconds: CALIBRATION_REF_S over the mean of the calibrations that
    bracket it, its own and the next invocation's (the last one of the run
    has only its own).  The pair follows the machine's speed over the
    invocation, however long it runs."""
    invs = [inv for _, _, done in passes for inv in done]
    for inv, after in zip(invs, invs[1:] + invs[-1:]):
        inv.scale = 2 * CALIBRATION_REF_S / (inv.calibration + after.calibration)


def scaled(inv, seconds: float) -> float:
    return seconds * inv.scale


def pass_seconds(passes) -> float:
    """CPU time of one pass of the list, each invocation from its start to its
    report, in reference seconds, with every invocation at its median over
    the passes."""
    return sum(statistics.median(scaled(inv, inv.record["cpu_s"]) for inv in col)
               for col in columns(passes))


def end_to_end(passes) -> dict:
    set_scales(passes)
    invs = [inv for _, _, done in passes for inv in done]
    timed = [inv for inv in invs if inv.record]
    rows = sum(inv.rows for inv in invs)
    passed = sum(inv.passed for inv in invs)
    return {
        "setup_s": statistics.median(scaled(inv, inv.record["import_cpu_s"]) for inv in timed),
        "batch_s": pass_seconds(passes),
        "verify_s.p50": statistics.median(
            statistics.median(scaled(inv, inv.record["main_cpu_s"]) for inv in col)
            for col in columns(passes)),
        "peak_rss_mb": max(inv.record["peak_rss_kb"] for inv in timed) / 1024.0,
        "conclusive_ratio": passed / rows if rows else 0.0,
    }


def per_layer(passes, workload) -> dict:
    """Median over traced passes of each per-layer metric, plus the
    traced/untraced batch_s ratio.  Writes every traced span to
    .perfbench_out/spans-<workload>.jsonl."""
    set_scales(passes)
    traced = [p for p in passes if p[0]]
    per_pass = [tracing.aggregate([inv.record["spans"] if inv.record else [] for inv in done])
                for _, _, done in traced]
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    metrics[tracing.OVERHEAD_METRIC] = (pass_seconds(traced)
                                        / pass_seconds([p for p in passes if not p[0]]))
    with open(os.path.join(OUT_DIR, f"spans-{workload}.jsonl"), "w") as fh:
        for i, (_, _, done) in enumerate(traced):
            for j, inv in enumerate(done):
                spans = inv.record["spans"] if inv.record else []
                fh.write(json.dumps({"pass": i, "invocation": j, "argv": inv.argv,
                                     "spans": spans}) + "\n")
    return metrics


TIMING_KEYS = ("import_s", "import_cpu_s", "main_s", "main_cpu_s", "cpu_s")


def write_timings(passes, workload) -> None:
    """Every invocation's timings, one line each, to
    .perfbench_out/timings-<workload>.jsonl."""
    with open(os.path.join(OUT_DIR, f"timings-{workload}.jsonl"), "w") as fh:
        for i, (trace, _, done) in enumerate(passes):
            for j, inv in enumerate(done):
                rec = inv.record or {}
                fh.write(json.dumps({"pass": i, "trace": trace, "invocation": j,
                                     "argv": inv.argv, "wall_s": inv.wall,
                                     "calibration_s": inv.calibration,
                                     **{k: rec.get(k) for k in TIMING_KEYS}}) + "\n")


def mark_trace_mismatches(passes) -> None:
    """A traced report must be byte-identical to its untraced twin."""
    plain = next(done for trace, _, done in passes if not trace)
    for trace, _, done in passes:
        if trace:
            for inv, twin in zip(done, plain):
                if inv.out_digest != twin.out_digest:
                    inv.reasons.append("traced report differs from the untraced one")


def environment() -> dict:
    """The machine and toolchain a run measured on."""
    cpu = "unknown"
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "loadavg_at_start": os.getloadavg()[0],
    }


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    run_start = time.perf_counter()
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "tamagawa", "cli.py")):
        print(f"error: no tamagawa package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    env = environment()
    invocations = workloads.generate(args.workload, args.seed)
    reference = gate.load_reference()
    for _ in range(WARMUP_IMPORTS):  # compile bytecode, fill the page cache
        warm = invoke([], False, 60.0, os.path.join(OUT_DIR, "record-warmup.json"))
        if warm.code != 0 or not os.path.exists(warm.record_path):
            print(f"error: the package does not import:\n{warm.stderr}", file=sys.stderr)
            return 2

    modes = (False, True) if args.trace else (False,)
    passes = run_passes(invocations, args.seconds, reference, modes, run_start)
    if not any(inv.record for _, _, done in passes for inv in done):
        print("error: no invocation finished with a timing record", file=sys.stderr)
        return 1
    write_timings(passes, args.workload)
    if args.trace:
        mark_trace_mismatches(passes)
        metrics = per_layer(passes, args.workload)
        units = tracing.metric_units()
    else:
        metrics = end_to_end(passes)
        units = END_TO_END_UNITS

    invs = [inv for _, _, done in passes for inv in done]
    failed = [inv for inv in invs if inv.reasons]
    for inv in failed[:10]:
        print(f"FAILED {' '.join(inv.argv)}: {'; '.join(inv.reasons)}", file=sys.stderr)
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    print(f"workload {args.workload}, seed {args.seed}: {len(invocations)} invocations "
          f"per pass, {len(invs)} attempted in {len(passes)} passes")
    for name, value in metrics.items():
        print(f"  {name:48s} {value:14.6g} {units[name]}")
    print(f"  {'failed_ratio':48s} {len(failed) / len(invs):14.6g} ratio")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(invs),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
