"""Record the gate's reference rows for the default seed.

    python3 perfbench/record_reference.py

Runs every invocation of every workload once at the default seed (untraced)
and writes perfbench/reference.json.  It refuses to record an invocation that
fails any other gate check.  Run it only to re-baseline on purpose: a change
that alters a PASS row of the reference is what the gate exists to catch.
"""

import json
import os
import sys

import gate
import run
import workloads


def main() -> int:
    entries = {}
    for workload in workloads.WORKLOADS:
        for argv in workloads.generate(workload, workloads.DEFAULT_SEED):
            record = os.path.join(run.OUT_DIR, "record-reference.json")
            inv = run.invoke(argv, False, 170.0, record)
            reasons, report = gate.check(argv, inv.code, inv.stdout, inv.stderr, {})
            if inv.reasons or reasons:
                print(f"cannot record {' '.join(argv)}: {'; '.join(inv.reasons + reasons)}",
                      file=sys.stderr)
                return 1
            entries[" ".join(argv)] = gate.reference_entry(report)
            print(f"{len(entries):3d} {' '.join(argv)}", file=sys.stderr)
    with open(gate.REFERENCE_FILE, "w") as fh:
        json.dump({"seed": workloads.DEFAULT_SEED, "invocations": entries}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
