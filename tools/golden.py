"""The stdout corpus: a fixed list of CLI jobs, each pinned by its exit code
and the sha256 of its stdout and of its stderr.

    python3 tools/golden.py            # replay the corpus; exit 1 on a change
    python3 tools/golden.py --write    # regenerate tests/golden/outputs.json

It imports symprod from the src/ beside tools/, and where there is none,
from the installed package: CI replays the corpus from copies of tools/,
perfbench/ and tests/golden/ outside the checkout, so that it checks the
installed package.  The corpus holds every input file a job reads besides
the catalog: the seeded manifolds of perfbench/workloads.py at seeds 1 to
3, the refusal payloads of tests/golden/refusals.json, an odd-class Betti
file, three pairing files and a Calabi-Yau curve whose B-table breaks
Serre duality.  A replay writes them into a scratch directory, runs each
job through symprod.cli.main in this process with that directory as the
working directory, so that file names in error messages do not depend on
where it lies, and compares.

The corpus is the one place where output bytes are pinned (the benchmark's
copy of the catalog verify-all digests is held equal to it by
tests/test_golden.py).  It pins bytes, not truth: an intended output
change regenerates it, and the change names the entries that moved.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from symprod import cli, orbifold  # noqa: E402
import workloads  # noqa: E402

CORPUS = ROOT / "tests" / "golden" / "outputs.json"
REFUSALS = ROOT / "tests" / "golden" / "refusals.json"
SEEDS = (1, 2, 3)


def inputs():
    """{relative path: manifold JSON object} of every file a job reads."""
    files = {"seed%d/%s.json" % (seed, name): data for seed in SEEDS
             for name, data in workloads.generate(seed).items()}
    refusals = json.loads(REFUSALS.read_text(encoding="utf-8"))
    files.update(("refusal/%02d.json" % i, payload)
                 for i, payload in enumerate(refusals))
    files["odd4.json"] = {"dim_real": 4, "betti": [1, 2, 0, 2, 1]}
    p2 = {"dim_c": 2, "hodge": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}
    top = {"degree": 2, "matrix": [[1]]}
    # a good pairing may hold a fraction
    files["pairing/half.json"] = dict(p2, pairing=[
        top, {"degree": 0, "matrix": [["1/2"]]}])
    # a pairing is checked against the Betti counts, never one object per
    # class, so a 4000-digit count is refused at once
    files["pairing/nines.json"] = {
        "dim_real": 4, "betti": [1, 0, int("9" * 4000), 0, 1],
        "pairing": [top, {"degree": 0, "matrix": [[1]]}]}
    # a 0x1 block between degrees of different counts is degenerate
    files["pairing/uneven.json"] = {
        "dim_real": 4, "betti": [1, 0, 2, 1, 1],
        "pairing": [top, {"degree": 1, "matrix": []},
                    {"degree": 0, "matrix": [[1, 0], [0, 1]]}]}
    # a Calabi-Yau curve whose B-table breaks Serre duality: a mismatch
    # report, and exit 1
    files["serre.json"] = {"dim_c": 1, "hodge": [[1, 1], [1, 1]],
                           "calabi_yau": True, "hodgeB": [[1, 1], [0, 2]]}
    return files


def jobs(files):
    """The argv of every job, each once, in a fixed order."""
    names = workloads.CATALOG
    out = [["catalog", "list"]]
    for name in names:
        for kind in orbifold.SERIES_KINDS:
            out.append(["series", kind, "--manifold", name, "--order", "6",
                        "--mode", "both"])
            for mode in ("brute", "closed"):
                out.append(["series", kind, "--manifold", name, "--order",
                            "5", "--mode", mode])
            out.append(["series", kind, "--manifold", name])
    out += [["verify-all", "--manifold", name] for name in names]
    out += [["fock-verify", "--manifold", name, "--max-charge", str(charge)]
            for name in names + ("odd4.json",) for charge in range(4)]
    for seed in SEEDS:
        paths = {name: "seed%d/%s.json" % (seed, name)
                 for name in workloads.SHAPES}
        for workload in sorted(workloads.WORKLOADS):
            out += workloads.jobs(workload, paths)
    for path in sorted(p for p in files if p.startswith("refusal/")):
        out += [["verify-all", "--manifold", path],
                ["fock-verify", "--manifold", path, "--max-charge", "1"]]
    # each route alone at a larger order, slot maps of unequal widths, two
    # sign families, and the Fock check at charge 4
    out += [["series", "hodge_orb", "--manifold", "k3", "--order", "8",
             "--mode", mode] for mode in ("brute", "closed", "both")]
    out += [["series", kind, "--manifold", name, "--order", order,
             "--mode", "both"]
            for kind, name, order in (("chiy_orb", "abelian", "8"),
                                      ("poincare_orb", "genus2", "12"),
                                      ("arith_orb", "k3", "12"))]
    out += [["fock-verify", "--manifold", name, "--max-charge", "4"]
            for name in ("p2", "k3")]
    out += [["verify-all", "--manifold", "pairing/half.json"],
            ["series", "euler_orb", "--manifold", "pairing/nines.json"],
            ["verify-all", "--manifold", "pairing/uneven.json"],
            ["fock-verify", "--manifold", "point", "--max-charge", "100000"],
            ["verify-all", "--manifold", "serre.json", "--order", "4"]]
    return [list(argv) for argv in dict.fromkeys(map(tuple, out))]


def run(argv):
    """The argv, exit code and sha256 of stdout and of stderr of one
    cli.main call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"argv": argv, "code": code,
            "stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest()}


def run_all(files, directory):
    """Write files into directory and run every job there."""
    for path, data in files.items():
        target = Path(directory) / path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(data, sort_keys=True) + "\n",
                          encoding="utf-8")
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        return [run(argv) for argv in jobs(files)]
    finally:
        os.chdir(cwd)


def load():
    return json.loads(CORPUS.read_text(encoding="utf-8"))


def replay(corpus, directory):
    """The argv of each job whose result differs from the corpus, and a
    note if the corpus's inputs or job list are not this tool's."""
    problems = []
    if corpus["inputs"] != inputs():
        problems.append("the corpus inputs differ from tools/golden.py's")
    got = run_all(corpus["inputs"], directory)
    if [job["argv"] for job in got] != [job["argv"] for job in
                                         corpus["jobs"]]:
        return problems + ["the job list differs from tools/golden.py's"]
    return problems + [new["argv"] for new, old in zip(got, corpus["jobs"])
                       if new != old]


def write(directory):
    files = inputs()
    results = run_all(files, directory)
    # one job a line, so that a regenerated corpus diffs job by job
    text = "{\"inputs\": %s,\n\"jobs\": [\n%s\n]}\n" % (
        json.dumps(files, sort_keys=True),
        ",\n".join(json.dumps(job) for job in results))
    CORPUS.write_text(text, encoding="utf-8")
    return results


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--write", action="store_true",
                    help="regenerate the corpus from this checkout's code")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        if args.write:
            results = write(tmp)
            print("wrote %d jobs to %s" % (len(results), CORPUS))
            return 0
        problems = replay(load(), tmp)
    for problem in problems:
        print("changed: %s" % (problem,))
    print("%d changed" % len(problems))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
