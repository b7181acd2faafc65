"""Seeded end-to-end and per-layer benchmark of the symprod CLI.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace {0,1}

W is hodge_deep, sector_sweep, fock_charge, or all three in turn.

Run it from the root of a source checkout; it reads the program from src/.
Each pass of a workload is a fresh single-threaded process
(perfbench/worker.py) that runs the workload's jobs through
`symprod.cli.main` one at a time, so no process-lifetime cache survives
from one pass to the next.  Passes run one after another, closed loop,
until the next one would end after S seconds (at least MIN_PASSES).

--trace 0 reports the end-to-end metrics of BENCHMARK.json as medians over
the untraced passes: norm_wall_s, the time from the first job's start to
the last job's end at the reference CPU speed of speed.py (the raw wall_s
is printed beside it); setup_s, from process launch to the first job's
start (interpreter start, importing symprod, writing the seeded inputs);
and peak_rss_mb, the worker's peak resident memory.  --trace 1 alternates
untraced and traced passes and reports the per-layer metrics of tracer.py
as medians over the traced passes, at the reference speed too, with
trace_overhead_frac = traced / untraced median norm_wall_s - 1.  The
human-readable summary on stderr names every metric with its unit, sample
count and fail_frac (failed / attempted jobs); the last stdout line is the
JSON result.

Every job is checked: exit code, verdict and summary lines, identical brute
and closed series, no traceback, the pinned stdout sha256 of each catalog
verify-all, and the same stdout in every pass of the run, traced or not.  A failing job's argv is printed.
Inputs, and the trace of the last traced pass, go under .perfbench_out/.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
MIN_PASSES = 3
TIME_LIMIT = 170.0  # seconds; every run must end within 180
ATTRIBUTION_LIMIT = 0.05


def log(msg):
    sys.stderr.write(msg + "\n")


def run_pass(workload, seed, directory, traced, deadline):
    """Launch one worker; (result dict, setup seconds), or (None, reason)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--dir", str(directory)]
    if traced:
        cmd.append("--trace")
    env = dict(os.environ, PYTHONHASHSEED="0")  # same str hashes every pass
    env.pop("SYMPROD_CATALOG", None)  # catalog names must be the bundled ones
    launched = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=max(1.0, deadline - launched))
    except subprocess.TimeoutExpired:
        return None, "worker timed out"
    if proc.returncode != 0:
        return None, "worker exit %d:\n%s" % (proc.returncode,
                                               proc.stderr[-2000:])
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        return None, "worker printed no result:\n" + proc.stderr[-2000:]
    return result, result["first_job_at"] - launched


def run_passes(workload, seed, seconds, trace, workdir):
    """Run passes for about `seconds`, alternating untraced and traced ones
    when tracing.  Returns (untraced results, traced results, set-up
    times, attempted jobs, failed jobs, errors); a pass whose worker fails
    counts as one failed job."""
    start = time.monotonic()
    deadline = start + TIME_LIMIT
    plain, traced, setups, errors = [], [], [], []
    attempted = failed = 0
    first = None  # stdout sha256 of every job in the first pass
    while True:
        want_trace = bool(trace) and len(traced) < len(plain)
        directory = Path(tempfile.mkdtemp(dir=workdir))
        result, setup = run_pass(workload, seed, directory, want_trace,
                                 deadline)
        if result is None:
            errors.append(setup)
            attempted += 1
            failed += 1
            break
        (traced if want_trace else plain).append(result)
        setups.append(setup)
        digests = [job["sha256"] for job in result["jobs"]]
        first = first or digests
        for job, digest, expected in zip(result["jobs"], digests, first):
            attempted += 1
            error = job["error"]
            if error is None and digest != expected:
                error = "stdout differs from the first pass of this run"
            if error is not None:
                failed += 1
                errors.append("job %s: %s" % (" ".join(job["argv"]), error))
        now = time.monotonic()
        took = (now - start) / (len(plain) + len(traced))
        enough = plain and traced if trace else len(plain) >= MIN_PASSES
        if (enough and now + took > start + seconds) or now + took > deadline:
            break
    if not errors and not (traced if trace else plain):
        errors.append("no complete pass within %g s" % TIME_LIMIT)
    return plain, traced, setups, attempted, failed, errors


def median_of(results, key):
    return statistics.median(r[key] for r in results)


def layer_report(plain, traced):
    """Per-layer metric medians over the traced passes, the attribution
    check and the layer split, printed; (medians, check passed)."""
    med = {name: statistics.median(r["metrics"][name] for r in traced)
           for name in traced[0]["metrics"]}
    med["trace_overhead_frac"] = (median_of(traced, "norm_wall_s")
                                  / median_of(plain, "norm_wall_s") - 1.0)
    wall = med["traced.wall_s"]
    log("  layer self-time split of traced wall %.3f s: %s" % (wall, ", ".join(
        "%s %.1f%%" % (layer, 100 * med[layer + ".self_s"] / wall)
        for layer in tracer.LAYERS + ("harness",))))
    gap = max(r["metrics"]["attribution_gap_frac"] for r in traced)
    share = max(r["metrics"]["harness.self_frac"] for r in traced)
    log("  attribution: layers + harness differ from traced wall by %.3f%% "
        "(limit %g%%): %s" % (100 * gap, 100 * ATTRIBUTION_LIMIT,
                              "PASS" if gap <= ATTRIBUTION_LIMIT else "FAIL"))
    log("  harness self time %.2f%% of traced wall (limit %g%%): %s"
        % (100 * share, 100 * ATTRIBUTION_LIMIT,
           "PASS" if share <= ATTRIBUTION_LIMIT else "WARN"))
    skipped = traced[-1]["trace"]["skipped"]
    if skipped:
        log("  not traced (absent from the program): " + ", ".join(skipped))
    return med, gap <= ATTRIBUTION_LIMIT


def benchmark(workload, seed, seconds, trace, spec):
    """One run of one workload; the JSON result object of the contract."""
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=OUT)
    try:
        plain, traced, setups, attempted, failed, errors = run_passes(
            workload, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir)
    for error in errors:
        log("FAIL " + error)
    log("== %s seed=%d: %d untraced + %d traced passes, %d of %d jobs "
        "failed (fail_frac %g)" % (workload, seed, len(plain), len(traced),
                                   failed, attempted, failed / attempted))
    if errors:
        return {"correct": False, "attempted": attempted, "failed": failed,
                "metrics": {}}
    ok = True
    if trace:
        med, ok = layer_report(plain, traced)
        (OUT / ("trace-%s-seed%d.json" % (workload, seed))).write_text(
            json.dumps(traced[-1]["trace"]) + "\n")
        wanted, samples = spec["per_layer"], len(traced)
    else:
        med = {"norm_wall_s": median_of(plain, "norm_wall_s"),
               "setup_s": statistics.median(setups),
               "peak_rss_mb": median_of(plain, "peak_rss_mb")}
        log("  %-34s %14.6g %-6s median of %d, not speed-normalized"
            % ("wall_s", median_of(plain, "wall_s"), "s", len(plain)))
        wanted, samples = spec["end_to_end"], len(plain)
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": med[m["name"]], "unit": m["unit"]}
        log("  %-34s %14.6g %-6s median of %d"
            % (m["name"], med[m["name"]], m["unit"], samples))
    return {"correct": ok, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "symprod" / "cli.py").is_file():
        log("error: no symprod source under %s; run from the root of a "
            "symprod checkout" % (ROOT / "src"))
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = list(workloads.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    results = {w: benchmark(w, args.seed, args.seconds, args.trace, spec)
               for w in names}
    result = results if args.workload == "all" else results[args.workload]
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
