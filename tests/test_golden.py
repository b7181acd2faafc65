import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import golden  # noqa: E402


def test_the_stdout_corpus_replays_byte_for_byte(tmp_path, monkeypatch):
    # every job of tools/golden.py, series in every mode, verify-all,
    # fock-verify, the benchmark jobs at seeds 1 to 3 and the refusals,
    # keeps its exit code and the sha256 of its stdout and stderr
    monkeypatch.delenv("SYMPROD_CATALOG", raising=False)
    corpus = golden.load()
    assert len(corpus["jobs"]) >= 600
    assert golden.replay(corpus, tmp_path) == []
