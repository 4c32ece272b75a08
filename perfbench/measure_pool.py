"""Measure the tori the verify-all workload draws from.

    python3 perfbench/measure_pool.py [SPEC ...]

For each `norm1`/`quot` torus given, or by default for the verify-all anchors
and for the tori over every field Q(sqrt(d)), d squarefree with |d| <= 200,
that has a ramified prime above 100, runs `verify all --torus SPEC --jobs 1`
three times through child.py.  It records in
perfbench/verify_all_pool.json the fastest `cli.main` wall time of the three,
the INCONCLUSIVE rows of the report and the child's peak memory in MB.  Run it
only to re-size the draws on purpose: after it, a seed names other
invocations.
"""

import json
import os
import sys

import run
import workloads

ANCHOR_FIELDS = {int(spec.split(":")[1]) for spec in workloads.VERIFY_ALL_ANCHORS}
CANDIDATES = [d for d in range(-200, 201) if d not in (0, 1) and workloads.is_squarefree(d)
              and d not in ANCHOR_FIELDS]


def measure(spec: str) -> list:
    argv = ["verify", "all", "--torus", spec, *workloads.COMMON]
    mains, inconclusive, peak = [], None, 0
    for _ in range(3):
        inv = run.invoke(argv, False, 170.0, os.path.join(run.OUT_DIR, "record-pool.json"))
        if inv.code not in (0, 2):
            raise RuntimeError(f"{spec}: exit {inv.code}\n{inv.stderr}")
        with open(inv.record_path) as fh:
            record = json.load(fh)
        mains.append(record["main_s"])
        peak = max(peak, record["peak_rss_kb"])
        rows = json.loads(inv.stdout)["reports"]
        inconclusive = sum(row["verdict"] == "INCONCLUSIVE" for row in rows)
    return [round(min(mains), 4), inconclusive, round(peak / 1024.0, 1)]


def main(argv=None) -> int:
    specs = sys.argv[1:] if argv is None else argv
    if not specs:
        specs = list(workloads.VERIFY_ALL_ANCHORS)
        for d in CANDIDATES:
            if max(workloads._ramified_primes(d)) > 100:
                specs += [f"norm1:{d}", f"quot:{d}"]
    tori = workloads.load_pool() if os.path.exists(workloads.POOL_FILE) else {}
    for spec in specs:
        tori[spec] = measure(spec)
        print(spec, tori[spec], file=sys.stderr)
        doc = {"about": " ".join(__doc__.split("\n\n")[2].split()), "tori": tori}
        with open(workloads.POOL_FILE, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
