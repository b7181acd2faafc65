import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import golden  # noqa: E402


def test_the_stdout_corpus_replays_byte_for_byte(tmp_path, monkeypatch):
    # every job of tools/golden.py, series in every mode, verify-all,
    # fock-verify, the benchmark jobs at seeds 1 to 3, the refusals, the
    # pairing files and a mismatch report, keeps its exit code and the
    # sha256 of its stdout and stderr; each argv is listed once
    monkeypatch.delenv("SYMPROD_CATALOG", raising=False)
    corpus = golden.load()
    assert len(corpus["jobs"]) >= 824
    assert len({tuple(job["argv"]) for job in corpus["jobs"]}) == \
        len(corpus["jobs"])
    assert golden.replay(corpus, tmp_path) == []


def test_the_two_routes_print_the_same_bytes():
    # a series pinned in --mode brute and in --mode closed, at one kind,
    # manifold and order, prints the same stdout when both exit 0
    modes = {}
    for job in golden.load()["jobs"]:
        argv = job["argv"]
        if argv[0] == "series" and argv[-1] in ("brute", "closed") \
                and job["code"] == 0:
            modes.setdefault(tuple(argv[1:-2]), {})[argv[-1]] = job["stdout"]
    pairs = [pinned for pinned in modes.values() if len(pinned) == 2]
    # the applicable kinds of the catalog at order 5, and hodge_orb on k3
    # at order 8
    assert len(pairs) == 129
    assert all(pinned["brute"] == pinned["closed"] for pinned in pairs)


def test_the_benchmark_pins_the_corpus_verify_all_bytes():
    # perfbench checks the stdout of each verify-all job of sector_sweep
    # against its own copy of the digests, which must be the corpus's
    workloads = golden.workloads
    stdout = {tuple(job["argv"]): job["stdout"]
              for job in golden.load()["jobs"]}
    pinned = {tuple(argv): workloads.pinned_digest(argv)
              for argv in workloads.WORKLOADS["sector_sweep"]
              if argv[0] == "verify-all"}
    assert len(pinned) == len(workloads.CATALOG)
    assert all(stdout[argv] == digest for argv, digest in pinned.items())
