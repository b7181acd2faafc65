"""Command-line front end: manifold loading, series printing, verification.

Exit codes: 0 all checks pass, 1 a verification mismatch, 2 input or usage
error, or a stdout that cannot be written (an encoding it cannot hold, or a
closed pipe).  Output is byte-deterministic for identical inputs and flags.

Manifold files are JSON objects:

    {
      "name": "k3",
      "dim_c": 2,                       # or "dim_real" for a real manifold
      "hodge": [[1,0,1],[0,20,0],[1,0,1]],   # rows h[p][q]; or "betti": [...]
      "calabi_yau": true,               # derives hodgeB by Serre duality
      "hodgeB": [[...]],                # optional explicit B-table
      "pairing": [{"degree": 0, "matrix": [[...]]}, ...]   # optional
    }

Every rule on the fields, the pairing's too, lives in manifold.ManifoldData;
load_manifold only reads the JSON object and refuses unknown fields and nulls.

The --manifold argument takes a path, or the name of one of the bundled
catalog manifolds (point, p1, elliptic, genus2, p2, k3, abelian, p1xp1).
Set SYMPROD_CATALOG to override the catalog directory.
"""

import argparse
import json
import os
import sys
from functools import cache
from pathlib import Path

from . import orbifold
from .manifold import InputError, ManifoldData
from .series import SeriesUsageError


def catalog_dir():
    override = os.environ.get("SYMPROD_CATALOG")
    if override:
        return Path(override)
    return Path(__file__).parent / "catalog"


def catalog_names():
    return sorted(p.stem for p in catalog_dir().glob("*.json"))


def _resolve_manifold_path(name_or_path):
    path = Path(name_or_path)
    if path.is_file():
        return path
    candidate = catalog_dir() / (name_or_path + ".json")
    if candidate.is_file():
        return candidate
    raise InputError(
        "manifold %r: no such file and not a catalog name (%s)"
        % (name_or_path, ", ".join(catalog_names()))
    )


def load_manifold(path):
    """Parse a manifold JSON file into ManifoldData, which checks it."""
    path = Path(path)
    # ValueError covers bad JSON, bad UTF-8 and an over-long integer literal,
    # RecursionError JSON nested too deeply to parse
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError("cannot read %s: %s" % (path, exc))
    if not isinstance(raw, dict):
        raise InputError("%s: manifold file must be a JSON object" % path)
    known = {"name", "dim_c", "dim_real", "betti", "hodge", "hodgeB",
             "calabi_yau", "pairing"}
    unknown = set(raw) - known
    if unknown:
        raise InputError("%s: unknown fields %s" % (path, sorted(unknown)))
    # ManifoldData reads None as an absent field; only a pairing may be null
    if None in (v for key, v in raw.items() if key != "pairing"):
        raise InputError("%s: only the pairing may be null" % path)
    raw.setdefault("name", path.stem)
    raw["hodge_b"] = raw.pop("hodgeB", None)
    try:
        return ManifoldData(**raw)
    except ValueError as exc:
        raise InputError("%s: %s" % (path, exc))


def _load(name_or_path):
    return load_manifold(_resolve_manifold_path(name_or_path))


def _emit_results(results):
    failed = 0
    for r in results:
        if r.status == "skip":
            print("SKIP %s (%s)" % (r.name, "; ".join(r.lines)))
            continue
        print("%s %s" % ("PASS" if r.status == "pass" else "FAIL", r.name))
        if r.status == "fail":
            failed += 1
            for line in r.lines:
                print("  " + line)
    ran = sum(1 for r in results if r.status != "skip")
    print("%d checks, %d failed" % (ran, failed))
    return failed


def cmd_series(args):
    X = _load(args.manifold)
    kind = args.kind
    if kind not in orbifold.SERIES_KINDS:
        raise InputError(
            "unknown kind %r (choose from %s)"
            % (kind, ", ".join(orbifold.SERIES_KINDS))
        )
    order = args.order
    if order is None:
        order = orbifold.default_order(kind, X)
    # every mode builds on the one kind check, so a layout is refused
    # alike in each, and the two routes compare as ints
    check, built = orbifold.kind_check(kind, X, order), {}
    for mode, build in (("brute", orbifold.brute_series),
                        ("closed", orbifold.closed_series)):
        if args.mode in (mode, "both"):
            built[mode] = build(kind, X, order, check)
    if args.mode != "both":
        print(built[args.mode])
        return 0
    b, c = built.pop("brute"), built.pop("closed")
    result = orbifold._compare("%s order %d" % (kind, order), b, c)
    if result.status == "pass":
        c = None  # equal series print the same text: b's, rendered once
    # print's separator supplies the second space, so a long series text is
    # written as it is, not copied into a longer line first
    text_b = str(b)
    print("brute: ", text_b)
    print("closed:", text_b if c is None else c)
    if result.status == "pass":
        print("verdict: equal")
        return 0
    print("verdict: mismatch")
    for line in result.lines[:1]:
        print("  " + line)
    return 1


def cmd_fock_verify(args):
    # imported here, not at the top: only fock-verify needs the Fock module,
    # so the other commands skip loading it
    from . import fock
    X = _load(args.manifold)
    results = fock.check_relations(X, args.max_charge)
    print("# fock-verify %s max-charge=%d" % (X.name, args.max_charge))
    return 1 if _emit_results(results) else 0


def cmd_verify_all(args):
    X = _load(args.manifold)
    results = orbifold.verify_all(X, args.order)  # may refuse: print after
    print("# verify-all %s order=%s"
          % (X.name, args.order if args.order is not None else "default"))
    return 1 if _emit_results(results) else 0


def cmd_catalog(args):
    for name in catalog_names():
        print(name)
    return 0


def _nonnegative_int(text):
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            "%r is not a nonnegative integer" % text)
    return value


@cache
def build_parser():
    """The parser, built at the first call and shared by every later one:
    parse_args keeps no state on it, and nothing builds it at import."""
    parser = argparse.ArgumentParser(
        prog="symprod",
        description="Exact generating-function checks for symmetric products",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("series", help="print one generating series")
    p.add_argument("kind")
    p.add_argument("--manifold", required=True)
    p.add_argument("--order", type=_nonnegative_int, default=None)
    p.add_argument("--mode", choices=("brute", "closed", "both"),
                   default="closed")
    p.set_defaults(fn=cmd_series)

    p = sub.add_parser("fock-verify",
                       help="check the Heisenberg relations on the Fock basis")
    p.add_argument("--manifold", required=True)
    p.add_argument("--max-charge", type=_nonnegative_int, default=3)
    p.set_defaults(fn=cmd_fock_verify)

    p = sub.add_parser("verify-all",
                       help="run every applicable identity check")
    p.add_argument("--manifold", required=True)
    p.add_argument("--order", type=_nonnegative_int, default=None)
    p.set_defaults(fn=cmd_verify_all)

    p = sub.add_parser("catalog", help="bundled manifold catalog")
    p.add_argument("action", choices=("list",))
    p.set_defaults(fn=cmd_catalog)

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse already uses exit code 2 for usage errors
        return exc.code if isinstance(exc.code, int) else 0
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except (InputError, SeriesUsageError) as exc:
        # SeriesUsageError: a product layout past layouts.MAX_LAYOUT_BITS
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except AssertionError as exc:
        sys.stderr.write("verification failure: %s\n" % exc)
        return 1
    except (UnicodeEncodeError, BrokenPipeError) as exc:
        # a manifold name that stdout's encoding cannot write, or a stdout
        # closed early, whose buffered rest then goes to devnull at exit
        sys.stderr.write("error: cannot write the output: %s\n" % exc)
        if isinstance(exc, BrokenPipeError):
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return 2


if __name__ == "__main__":
    sys.exit(main())
