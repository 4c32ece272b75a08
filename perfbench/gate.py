"""Correctness gate for one CLI invocation.

An invocation fails if its exit code is outside {0, 2, 64}, if it prints a
traceback, if its stdout is not a schema-valid report (or the exit code does
not match the report's verdicts), if any row is FAIL, or if a row that was
PASS in the reference changed its verdict or any exact integer or rational
value.  INCONCLUSIVE turning into PASS is allowed.

The reference (reference.json) holds, for every invocation of the default
seed, the keys of its non-PASS rows and a digest of the exact values of its
PASS rows.  Invocations of other seeds are checked against it when their
argument list matches one of its entries, which the anchors always do.
"""

from __future__ import annotations

import hashlib
import json
import os
import re

ALLOWED_EXITS = (0, 2, 64)
IDENTITIES = ("euler", "lifting", "globalinv", "local-density", "tnc", "sha-bk")
VERDICTS = ("PASS", "FAIL", "INCONCLUSIVE")
REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

_RATIONAL = re.compile(r"-?\d+/\d+\Z")


def schema_errors(doc) -> list:
    """Reasons the parsed stdout is not a versioned report; empty if it is."""
    if not isinstance(doc, dict) or set(doc) != {"version", "config_echo", "reports"}:
        return ["top level must be {version, config_echo, reports}"]
    errs = []
    if not isinstance(doc["version"], int) or doc["version"] < 1:
        errs.append(f"bad schema version {doc['version']!r}")
    if not isinstance(doc["config_echo"], dict) or not isinstance(doc["reports"], list):
        return errs + ["config_echo must be an object and reports a list"]
    for i, row in enumerate(doc["reports"]):
        if not isinstance(row, dict):
            errs.append(f"row {i} is not an object")
            continue
        keys = set(row)
        if not {"identity", "inputs", "values", "verdict"} <= keys <= \
                {"identity", "inputs", "values", "verdict", "cause"}:
            errs.append(f"row {i} has keys {sorted(keys)}")
            continue
        if row["identity"] not in IDENTITIES:
            errs.append(f"row {i} has unknown identity {row['identity']!r}")
        if row["verdict"] not in VERDICTS:
            errs.append(f"row {i} has unknown verdict {row['verdict']!r}")
        if not isinstance(row["inputs"], dict) or not isinstance(row["values"], dict):
            errs.append(f"row {i}: inputs and values must be objects")
        if (row["verdict"] != "PASS") != isinstance(row.get("cause"), str):
            errs.append(f"row {i}: a cause is required exactly when the verdict is not PASS")
    return errs


def expected_exit(rows) -> int:
    verdicts = {r["verdict"] for r in rows}
    return 1 if "FAIL" in verdicts else 2 if "INCONCLUSIVE" in verdicts else 0


def row_key(row) -> str:
    return row["identity"] + " " + json.dumps(row["inputs"], sort_keys=True)


def exact_leaves(obj, path=""):
    """(path, value) for every integer and "a/b" rational inside obj."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, float):
        return []
    if isinstance(obj, int):
        return [(path, obj)]
    if isinstance(obj, str):
        return [(path, obj)] if _RATIONAL.match(obj) else []
    if isinstance(obj, dict):
        return [leaf for k in sorted(obj) for leaf in exact_leaves(obj[k], f"{path}/{k}")]
    return [leaf for i, v in enumerate(obj) for leaf in exact_leaves(v, f"{path}/{i}")]


def pass_digest(rows) -> str:
    """Digest of the keys and exact values of the given rows, in order."""
    h = hashlib.sha256()
    for row in rows:
        h.update(json.dumps([row_key(row), exact_leaves(row["values"])]).encode())
    return h.hexdigest()


def reference_entry(doc) -> dict:
    rows = doc["reports"]
    passed = [r for r in rows if r["verdict"] == "PASS"]
    return {
        "non_pass": sorted(row_key(r) for r in rows if r["verdict"] != "PASS"),
        "pass_rows": len(passed),
        "pass_digest": pass_digest(passed),
    }


def load_reference() -> dict:
    """' '.join(argv) -> reference entry."""
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)["invocations"]


def check(argv, code, stdout, stderr, reference) -> tuple:
    """(failure reasons, parsed report or None) for one finished invocation."""
    reasons = []
    if code not in ALLOWED_EXITS:
        reasons.append(f"exit code {code}")
    if "Traceback (most recent call last)" in stderr:
        reasons.append("traceback on stderr")
    try:
        doc = json.loads(stdout)
    except ValueError:
        return reasons + ["stdout is not a JSON report"], None
    errs = schema_errors(doc)
    if errs:
        return reasons + errs, None
    rows = doc["reports"]
    if code != expected_exit(rows):
        reasons.append(f"exit code {code} does not match the verdicts")
    fails = [row_key(r) for r in rows if r["verdict"] == "FAIL"]
    if fails:
        reasons.append(f"FAIL rows: {fails[:3]}")
    ref = reference.get(" ".join(argv))
    if ref is not None:
        skip = set(ref["non_pass"])
        kept = [r for r in rows if row_key(r) not in skip]
        if len(kept) != ref["pass_rows"] or any(r["verdict"] != "PASS" for r in kept) \
                or pass_digest(kept) != ref["pass_digest"]:
            reasons.append("rows that were PASS in the reference changed")
    return reasons, doc
