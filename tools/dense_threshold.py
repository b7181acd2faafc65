"""Time the product kernels for several values of layouts.RUN_BITS and name
the fastest in total.

    python3 tools/dense_threshold.py [--reps R] [--only TEXT]

Run it from the root of a source checkout; it reads the program from src/.
RUN_BITS is the most bits of empty slots that one run of a factor of
Kronecker.mul_add, which multiplies one int per run, may hold between two
of its nonzero slots: 0 cuts a run at every empty slot, and the last value
tried cuts none, so each factor is one int.  For each heavy call shape --
a (kind, manifold, order) on the catalog surfaces, the seeded benchmark
CY3 of seed 1 (cy3_1) and the diagonal Hodge table of P^30 (p30), whose
slots lie on a line, and the dense one-variable factors of euler_orb on
P^2 and poincare_orb on K3 -- it builds the shape's kind check once,
untimed, and on it the brute series (orbifold._sector_sum) and the closed
one (series.plethystic_exp) once per value, R times with the values
alternating in order, and keeps the best time of each.  --only keeps the
shapes whose 'kind manifold order' contains TEXT.
"""

import argparse
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from symprod import ManifoldData, layouts, orbifold  # noqa: E402
from symprod.cli import catalog_dir, load_manifold  # noqa: E402
import workloads  # noqa: E402

# the heavy shapes and the values tried
HEAVY = [("hodge_orb", "k3", 16), ("hodge_orb", "abelian", 14),
         ("hodge_orb", "k3", 24), ("hodge_orb", "abelian", 24),
         ("hodge_orb", "cy3_1", 10), ("poincare_orb", "cy3_1", 16),
         ("chiy_orb", "cy3_1", 16), ("hodge_orb", "p30", 12),
         ("euler_orb", "p2", 200), ("poincare_orb", "k3", 60)]
RUN_TRIES = (0, 64, 96, 128, 160, 256, 512, 1 << 60)
_label = lambda bits: "one int" if bits == 1 << 60 else str(bits)


def manifolds(directory):
    """{name: ManifoldData}: the catalog surfaces and P^2, the seed-1 CY3
    and P^30."""
    out = {name: load_manifold(catalog_dir() / (name + ".json"))
           for name in ("k3", "abelian", "p2")}
    out["cy3_1"] = load_manifold(workloads.write_inputs(1, directory)["cy3"])
    out["p30"] = ManifoldData("p30", dim_c=30, hodge=[
        [int(p == q) for q in range(31)] for p in range(31)])
    return out


def timed(build, kind, X, order, check):
    start = time.perf_counter()
    build(kind, X, order, check)
    return time.perf_counter() - start


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--reps", type=int, default=3)
    ap.add_argument("--only", default="",
                    help="time only the shapes whose 'kind manifold order' "
                         "contains this text")
    args = ap.parse_args()
    shapes = [s for s in HEAVY if args.only in "%s %s %d" % s]
    if not shapes:
        raise SystemExit("no shape matches")
    saved, totals = layouts.RUN_BITS, dict.fromkeys(RUN_TRIES, 0.0)
    with tempfile.TemporaryDirectory() as tmp:
        Xs = manifolds(Path(tmp))
        try:
            for kind, name, order in shapes:
                check = orbifold.kind_check(kind, Xs[name], order)
                for build in (orbifold.brute_series, orbifold.closed_series):
                    best = dict.fromkeys(RUN_TRIES, float("inf"))
                    for rep in range(args.reps):
                        for bits in RUN_TRIES[::1 if rep % 2 == 0 else -1]:
                            layouts.RUN_BITS = bits
                            t = timed(build, kind, Xs[name], order, check)
                            best[bits] = min(best[bits], t)
                    for bits in RUN_TRIES:
                        totals[bits] += best[bits]
                    print("%-6s %-12s %-8s %3d  " % (
                        build.__name__[:-7], kind, name, order) + "  ".join(
                        "%s: %.4f" % (_label(b), best[b])
                        for b in RUN_TRIES), flush=True)
        finally:
            layouts.RUN_BITS = saved
    fastest = min(RUN_TRIES, key=totals.get)
    print("run bits, total s: " + ", ".join(
        "%s: %.3f" % (_label(b), totals[b]) for b in RUN_TRIES))
    print("fastest: RUN_BITS = %s; in use: %s" % (_label(fastest),
                                                  _label(saved)))


if __name__ == "__main__":
    main()
