"""The report-byte corpus: every argv of tests/data/report_digests.json,
replayed in process, gives the exit code, the stdout sha256 and the stderr
(without [timing] lines) that tests/record_digests.py recorded, and the
file holds exactly the argv that the recorder runs.  Like the recorder, the
replay runs from the repo root, where the config paths of the corpus
resolve.  An entry may change only with a CHANGES.md line that names it."""

import json
from pathlib import Path

from record_digests import DIGESTS, ROOT, corpus_argv, run


def test_report_digests_hold(monkeypatch):
    monkeypatch.chdir(ROOT)
    corpus = json.loads(Path(DIGESTS).read_text())
    assert set(corpus) == set(corpus_argv())
    got = {argv: run(argv) for argv in corpus}
    assert {argv: entry for argv, entry in got.items() if entry != corpus[argv]} == {}
