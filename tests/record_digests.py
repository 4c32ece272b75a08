"""Record the report-byte corpus, tests/data/report_digests.json.

    PYTHONPATH=src python3 tests/record_digests.py

Runs every argv of the corpus once, in one process, and writes argv ->
[exit code, sha256 of the stdout bytes, stderr without its [timing]
lines].  An argv that names {tmp} runs with a fresh temporary directory in
its place, which its stderr names as {tmp} again; a run that writes a
report leaves exactly its --out file there, holding stdout's bytes, and
any other run leaves the directory empty.  The corpus, corpus_argv(), is
every invocation of perfbench/reference.json and the argv of EXTRA.  test_digests.py replays the file and checks that it holds
exactly these argv.
Both run from the repo root, so that a config path in an argv, and the
stderr that names it, read the same wherever they are started.  Before the
file is overwritten, stderr lists the argv that the new corpus adds, changes
and drops.

Re-record only on purpose: an entry may change only with a CHANGES.md line
that names it.
"""

import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from tamagawa.cli import main

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "tests" / "data" / "report_digests.json"
REFERENCE = ROOT / "perfbench" / "reference.json"

# argv whose exit code and stdout sha256 the tests pinned before the corpus
PINNED = [
    "verify euler --torus res:5,-3 --pmax 2000",
    "verify euler --torus norm1:13,-19 --pmax 1000",
    "verify density --torus norm1:-131",
    "verify lifting --torus norm1:-1 --kmax 4",
    "verify all --torus quot:-5",
    # h1 = Z/2 + Z/2 on norm-one, Z/4 on its dual torus: a dropped or
    # misplaced dual of the lattice swaps them
    "verify globalinv --torus norm1:13,17",
    "verify globalinv --torus quot:13,17",
    "verify tnc --torus norm1:13",
    "verify tnc --torus norm1:-23 --budget 10000",
    "verify sha --torus norm1:-23",
    # c_gamma = 3 scales tau_tam and its error bar
    "verify tnc --torus norm1:-23 --tol 1e-3",
    # a real field whose fundamental unit has norm +1
    "verify tnc --torus norm1:3",
    # every row over one torus, c_gamma = 3 and i(T) = 1 shared by sha-bk and tnc
    "verify all --torus norm1:-23",
    # every row over a real field whose fundamental unit has norm -1
    "verify all --torus norm1:5",
    # a quadratic field, with split (p - 1 points) and inert (p + 1) rows
    "verify euler --torus quot:-42 --pmax 5000",
]

EXTRA = [
    *(f"verify all --torus {spec}" for spec in (
        "res:5,-3", "res:-3", "quot:-1,5", "norm1:-1,2", "res:-1",
        "norm1:13,17", "quot:13,17", "norm1:2,3")),
    # exit 64: the tol floor, a bad flag value, a bad torus spec
    "verify tnc --torus norm1:-23 --tol 1e-12",
    "verify euler --torus norm1:-1 --pmax abc",
    "verify euler --torus bad",
    *PINNED,
]

CONFIG = "tests/data/config/"

# every message that the flag table and the config merge build: bounds,
# non-numbers and non-integers, the empty --out, a missing torus or
# identity, the help text, and one config file per way a file is accepted
# or rejected
EXTRA += [
    *(f"verify euler --torus norm1:-1 {flags}" for flags in (
        "--pmax 2", "--pmax 10000001", "--kmax 0", "--tol 0", "--tol nan", "--tol inf",
        "--budget 9999", "--budget 4611686018427387905", "--budget x", "--budget 1.5",
        "--budget inf", "--jobs 0", "--kmax x", "--tol x", "--jobs 1.5", "--out=")),
    "verify euler",
    "verify --torus norm1:-1",
    "verify --help",
    f"verify --config {CONFIG}valid.json",
    # the flags win over the file
    f"verify --config {CONFIG}valid.json --torus norm1:-5 --pmax 5",
    *(f"verify --config {CONFIG}{name}.json" for name in (
        "unknown_key", "top_level_list", "syntax_error", "torus_not_string",
        "out_not_string", "pmax_fraction", "tol_bool", "tol_overflow",
        "integral_floats", "missing")),
    # a config file that is not UTF-8, one with an integer of 5000 digits, and
    # a kmax beyond islice's stop: each exited 1 with a traceback
    f"verify --config {CONFIG}not_utf8.json",
    f"verify --config {CONFIG}long_int.json",
    "verify lifting --torus norm1:-1 --kmax 100000000000000000000 --pmax 5",
    # flag values that only the config merge reads: an unknown identity, and
    # numbers in the forms that the config file accepts
    "verify bogus --torus norm1:-1",
    "verify euler --torus norm1:-1 --pmax 1e2",
    "verify euler --torus norm1:-1 --pmax 97.0 --kmax 3.0 --jobs 1.0",
    # real fields with hy > 1, where norm_one_unit takes the long way
    "verify tnc --torus norm1:41",
    "verify tnc --torus quot:41",
    # the [uncounted] stderr line
    "verify euler --torus res:-163 --budget 10000",
    # a d whose factoring needs _brent_split
    "verify euler --torus norm1:100000980001501 --pmax 5",
    # runs that check nothing: every prime up to --pmax is bad, so the
    # report has no rows, and the run exits 0
    "verify euler --torus norm1:-3 --pmax 3",
    "verify lifting --torus norm1:-15 --pmax 5",
    # runs over more than one torus: rows of several shapes, a [skipped]
    # line and a [timing] line per torus; a PASS torus and an INCONCLUSIVE one
    "verify all --torus norm1:-1 --torus quot:-5 --torus norm1:2,3",
    "verify density --torus norm1:-89 --torus norm1:-131",
]

# the report file: written whole, next to what stdout gets; a missing
# directory or a directory as the target (exit 73, the report still on
# stdout); a run that fails before its report writes no file
EXTRA += [
    "verify euler --torus norm1:-1 --pmax 20 --out {tmp}/r.json",
    "verify euler --torus norm1:-1 --pmax 20 --out {tmp}/missing/r.json",
    "verify euler --torus norm1:-1 --pmax 20 --out {tmp}",
    "verify euler --torus bad --out {tmp}/r.json",
]


def run(argv: str) -> list:
    """[exit code, sha256 of stdout, stderr without [timing] lines] of one
    in-process run of `argv`, split on spaces, with {tmp} in a temporary
    directory.  Raises AssertionError if that directory does not hold what
    the run should have written: the --out file, with stdout's bytes, after
    a report (exit 0, 1 or 2), and nothing otherwise."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        with redirect_stdout(out), redirect_stderr(err):
            code = main([tok.replace("{tmp}", tmp) for tok in argv.split()])
        written = {path.relative_to(tmp).as_posix(): path.read_bytes()
                   for path in Path(tmp).rglob("*") if path.is_file()}
    if "{tmp}" in argv:
        out_path = argv.split("--out ")[1].split()[0].replace("{tmp}/", "")
        expected = {out_path: out.getvalue().encode()} if code in (0, 1, 2) else {}
        assert written == expected, f"{argv}: wrote {sorted(written)}"
    kept = [line.replace(tmp, "{tmp}")
            for line in err.getvalue().splitlines(keepends=True)
            if not line.startswith("[timing] ")]
    return [code, hashlib.sha256(out.getvalue().encode()).hexdigest(), "".join(kept)]


def corpus_argv() -> list:
    """The argv of the corpus in recording order: perfbench's invocations,
    then EXTRA."""
    return sorted(json.loads(REFERENCE.read_text())["invocations"]) + EXTRA


def main_record() -> int:
    os.chdir(ROOT)
    entries = {argv: run(argv) for argv in corpus_argv()}
    old = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    for what, argvs in (("added", entries.keys() - old.keys()),
                        ("changed", {a for a in entries.keys() & old.keys()
                                     if entries[a] != old[a]}),
                        ("dropped", old.keys() - entries.keys())):
        for argv in sorted(argvs):
            print(f"{what}: {argv}", file=sys.stderr)
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
    print(f"{len(entries)} entries written to {DIGESTS}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main_record())
