"""Time the sparse and the dense product path per call shape, and print
the rule that chooses between them.

    python3 tools/dense_threshold.py [--reps R] [--only TEXT]

Run it from the root of a source checkout; it reads the program from src/.
For every call shape -- a (kind, manifold, order) on the brute side
(orbifold._sector_sum) and on the closed side (series.plethystic_exp) --
it builds the series once with each path forced, R times alternating, and
keeps the best time of each.  The manifolds are the bundled catalog, the
seeded benchmark shapes of seeds 1 and 7 and the quintic threefold
(h11 = 1, h21 = 101).  Each line gives the shape, the measure the rule reads
(bits of the layout's slots per expected term over all degrees,
layouts.layout_measure) and both times; then come the threshold that makes
the least total time over all shapes, and what the rule in
layouts.BITS_PER_TERM costs against always taking the faster path.  A last
table times the dense path on the heavy shapes for several values of
layouts.FACTOR_BITS, the density at which a factor is multiplied as one int
rather than added term by term, and names the fastest in total.
"""

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from symprod import layouts, orbifold  # noqa: E402
from symprod.cli import catalog_dir, load_manifold  # noqa: E402
import workloads  # noqa: E402

QUINTIC = {"name": "quintic", "dim_c": 3, "calabi_yau": True,
           "hodge": [[1, 0, 0, 1], [0, 1, 101, 0], [0, 101, 1, 0],
                     [1, 0, 0, 1]]}

# extra (kind, manifold, order) shapes: the series jobs of the benchmark
# workloads; order 24 on the two surfaces and the quintic; and the
# diagonal Hodge tables of p2 and p1xp1 up to order 24, whose
# coefficients fill one line of their square of slots
EXTRA = [(argv[1], argv[3][1:-1], int(argv[5]))
         for jobs in workloads.WORKLOADS.values() for argv in jobs
         if argv[0] == "series"] + [
    ("hodge_orb", name, 24) for name in ("k3", "abelian", "quintic")] + [
    (kind, name, order) for kind in ("hodge_orb", "hodge_sym")
    for name in ("p2", "p1xp1") for order in (12, 16, 20, 24)]


def manifolds(directory):
    """{name: ManifoldData}: the catalog, the seeded shapes (suffixed with
    their seed) and the quintic."""
    out = {name: load_manifold(catalog_dir() / (name + ".json"))
           for name in workloads.CATALOG}
    for seed in (1, 7):
        for name, data in workloads.generate(seed).items():
            path = directory / ("%s_%d.json" % (name, seed))
            path.write_text(json.dumps(data))
            out["%s_%d" % (name, seed)] = load_manifold(path)
    path = directory / "quintic.json"
    path.write_text(json.dumps(QUINTIC))
    out["quintic"] = load_manifold(path)
    return out


def timed(build, kind, X, order, path):
    """(seconds, series, measures) of build(kind, X, order) with the path
    forced through layouts.BITS_PER_TERM; measures are those of every
    layouts.layout_measure call, which reads its support on the dense path
    only."""
    measures, measure = [], layouts.layout_measure

    def recorded(*args):
        lay, bits = measure(*args)
        measures.append(bits)
        return lay, bits

    saved = layouts.BITS_PER_TERM
    layouts.BITS_PER_TERM = float("inf") if path == "dense" else -1
    layouts.layout_measure = recorded
    try:
        start = time.perf_counter()
        result = build(kind, X, order)
        return time.perf_counter() - start, result, measures
    finally:
        layouts.BITS_PER_TERM, layouts.layout_measure = saved, measure


# the heavy dense shapes of the FACTOR_BITS table, and the values it tries
HEAVY = [("hodge_orb", "k3", 16), ("hodge_orb", "abelian", 14),
         ("hodge_orb", "k3", 24), ("hodge_orb", "abelian", 24),
         ("hodge_orb", "cy3_1", 10), ("poincare_orb", "cy3_1", 16),
         ("chiy_orb", "cy3_1", 16)]
FACTOR_TRIES = (0, 64, 256, 1024, 1 << 40)
_label = lambda bits: "always" if bits == 1 << 40 else str(bits)


def factor_table(Xs, reps):
    """Best dense time of each HEAVY shape and side per FACTOR_TRIES value,
    the values alternating in order within each repetition."""
    saved, totals = layouts.FACTOR_BITS, dict.fromkeys(FACTOR_TRIES, 0.0)
    try:
        for kind, name, order in HEAVY:
            for build in (orbifold.brute_series, orbifold.closed_series):
                best = dict.fromkeys(FACTOR_TRIES, float("inf"))
                for rep in range(reps):
                    tries = FACTOR_TRIES[::1 if rep % 2 == 0 else -1]
                    for bits in tries:
                        layouts.FACTOR_BITS = bits
                        t = timed(build, kind, Xs[name], order, "dense")[0]
                        best[bits] = min(best[bits], t)
                for bits in FACTOR_TRIES:
                    totals[bits] += best[bits]
                print("%-6s %-12s %-8s %3d  " % (build.__name__[:-7], kind,
                                                 name, order)
                      + "  ".join("%s: %.4f" % (_label(b), best[b])
                                  for b in FACTOR_TRIES), flush=True)
    finally:
        layouts.FACTOR_BITS = saved
    fastest = min(FACTOR_TRIES, key=totals.get)
    print("factor bits, total s: " + ", ".join(
        "%s: %.3f" % (_label(b), totals[b]) for b in FACTOR_TRIES))
    print("fastest: FACTOR_BITS = %d; in use: %d" % (fastest, saved))


def shapes(Xs):
    for name, X in Xs.items():
        for kind in orbifold.SERIES_KINDS:
            if orbifold.applicability(kind, X) is None:
                yield kind, name, orbifold.default_order(kind, X)
    for kind, name, order in EXTRA:
        for seeded in ([name] if name in Xs else
                       ["%s_%d" % (name, seed) for seed in (1, 7)]):
            yield kind, seeded, order


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--reps", type=int, default=3)
    ap.add_argument("--only", default="",
                    help="time only the shapes whose 'kind manifold order' "
                         "contains this text")
    args = ap.parse_args()
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        Xs = manifolds(Path(tmp))
        if not args.only:
            factor_table(Xs, args.reps)
        for kind, name, order in shapes(Xs):
            if args.only not in "%s %s %d" % (kind, name, order):
                continue
            for side, build in (("brute", orbifold.brute_series),
                                ("closed", orbifold.closed_series)):
                best = {"sparse": float("inf"), "dense": float("inf")}
                results = {}
                for rep in range(args.reps):
                    for path in (("sparse", "dense") if rep % 2 == 0
                                 else ("dense", "sparse")):
                        t, results[path], seen = timed(
                            build, kind, Xs[name], order, path)
                        best[path] = min(best[path], t)
                        if path == "dense":
                            measures = seen
                if results["sparse"] != results["dense"]:
                    raise SystemExit("paths differ on %s %s %s %d"
                                     % (side, kind, name, order))
                if not measures:  # Fraction f: the sparse path only
                    continue
                m = max(measures)
                rows.append((m, best["sparse"], best["dense"]))
                print("%-6s %-18s %-16s %3d  bits/term %8.1f  sparse %.4f"
                      "  dense %.4f" % (side, kind, name, order, m,
                                        best["sparse"], best["dense"]),
                      flush=True)
    if not rows:
        raise SystemExit("no shape matches")
    total = lambda cut: sum(d if m <= cut else s for m, s, d in rows)
    cuts = sorted({m for m, _, _ in rows})
    best_cut = min(cuts, key=total)
    floor_time = sum(min(s, d) for _, s, d in rows)
    print("shapes: %d; always sparse %.3f s, always dense %.3f s, "
          "the faster path each time %.3f s"
          % (len(rows), total(-1), total(float("inf")), floor_time))
    print("least total time: dense when bits/term <= %.1f (%.3f s)"
          % (best_cut, total(best_cut)))
    print("rule in use: dense when bits/term <= %d (%.3f s)"
          % (layouts.BITS_PER_TERM, total(layouts.BITS_PER_TERM)))


if __name__ == "__main__":
    main()
