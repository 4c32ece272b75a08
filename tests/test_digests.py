"""The report-byte corpus: every argv of tests/data/report_digests.json,
replayed in process, gives the exit code, the stdout sha256 and the stderr
(without [timing] lines) that tests/record_digests.py recorded.  An entry
may change only with a CHANGES.md line that names it."""

import json
from pathlib import Path

from record_digests import DIGESTS, run


def test_report_digests_hold(monkeypatch):
    monkeypatch.delenv("TAMAGAWA_BUDGET", raising=False)
    corpus = json.loads(Path(DIGESTS).read_text())
    assert len(corpus) == 75
    got = {argv: run(argv) for argv in corpus}
    assert {argv: entry for argv, entry in got.items() if entry != corpus[argv]} == {}
