"""One pass of a benchmark workload, in a fresh process.

    python3 perfbench/worker.py --workload W --seed N --dir D [--trace]

Writes the seeded manifold files into D, imports symprod, runs every job of
the workload through `symprod.cli.main` in this process, one at a time,
checks each job's output and prints one JSON object as its last stdout
line.  `first_job_at` is a time.monotonic() stamp, which the launching
process compares with its own launch stamp to get the set-up time.  The
pass's time is also given at the reference CPU speed (speed.py), and a
traced pass adds per-layer metrics.
"""

import argparse
import contextlib
import hashlib
import io
import json
import re
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import speed  # noqa: E402  (sibling modules; this directory is on sys.path)
import workloads  # noqa: E402

_SUMMARY = re.compile(r"^(\d+) checks, (\d+) failed$")


def check_job(argv, code, out, err, crash):
    """Why the job failed, or None when its output is correct."""
    if crash:
        return "uncaught exception:\n" + crash
    if "Traceback (most recent call last)" in err:
        return "traceback on stderr:\n" + err
    lines = out.splitlines()
    if argv[0] == "series":
        # the harness compares the two routes itself as well as reading
        # the program's verdict
        brute = [l[8:] for l in lines if l.startswith("brute:  ")]
        closed = [l[8:] for l in lines if l.startswith("closed: ")]
        if len(brute) != 1 or len(closed) != 1 or brute != closed:
            return "brute and closed series differ; %r" % (lines[-1:],)
        if lines[-1:] != ["verdict: equal"]:
            return "verdict line is %r" % (lines[-1:],)
    else:
        failures = [l for l in lines if l.startswith("FAIL")]
        if failures:
            return "%d checks failed, first: %s" % (len(failures),
                                                    failures[0])
        summary = _SUMMARY.match(lines[-1]) if lines else None
        passes = sum(1 for l in lines if l.startswith("PASS "))
        if summary is None or summary.group(2) != "0" \
                or int(summary.group(1)) != passes:
            return "summary line is %r" % (lines[-1:],)
    if code != 0:
        return "exit code %r, stderr: %s" % (code, err.strip())
    pinned = workloads.pinned_digest(argv)
    digest = hashlib.sha256(out.encode()).hexdigest()
    if pinned is not None and digest != pinned:
        return "stdout sha256 %s, pinned %s" % (digest, pinned)
    return None


def run_job(cli, argv):
    """One cli.main call with its stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    crash = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception:
            code, crash = None, traceback.format_exc()
    return argv, code, out.getvalue(), err.getvalue(), crash


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    paths = workloads.write_inputs(args.seed, args.dir)
    jobs = workloads.jobs(args.workload, paths)
    from symprod import cli
    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()

    run = tracer.coarse("harness.job", run_job) if tracer else run_job
    probe = speed.SpeedProbe(tracer.charge_harness if tracer else None)
    with probe:
        first_job_at = time.monotonic()
        start = time.perf_counter()
        runs = [run(cli, argv) for argv in jobs]
        elapsed = time.perf_counter() - start
        wall = elapsed - probe.spent
    scale = probe.scale()

    result = {
        "first_job_at": first_job_at,
        "wall_s": wall,
        "norm_wall_s": wall * scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "jobs": [
            {"argv": argv,
             "sha256": hashlib.sha256(out.encode()).hexdigest(),
             "error": check_job(argv, code, out, err, crash)}
            for argv, code, out, err, crash in runs
        ],
    }
    if tracer:
        stdout_bytes = sum(len(out.encode()) for _, _, out, _, _ in runs)
        metrics = tracer.report(elapsed, stdout_bytes)
        for name in metrics:
            if name.endswith(("_s", ".s")):
                metrics[name] *= scale
        result["metrics"] = metrics
        result["trace"] = tracer.dump()
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
