"""Command-line front end: manifold loading, series printing, verification.

Exit codes: 0 all checks pass, 1 a verification mismatch, 2 input or usage
error.  Output is byte-deterministic for identical inputs and flags.

Manifold files are JSON objects:

    {
      "name": "k3",
      "dim_c": 2,                       # or "dim_real" for a real manifold
      "hodge": [[1,0,1],[0,20,0],[1,0,1]],   # rows h[p][q]; or "betti": [...]
      "calabi_yau": true,               # derives hodgeB by Serre duality
      "hodgeB": [[...]],                # optional explicit B-table
      "pairing": [{"degree": 0, "matrix": [[...]]}, ...]   # optional
    }

The --manifold argument takes a path, or the name of one of the bundled
catalog manifolds (point, p1, elliptic, genus2, p2, k3, abelian, p1xp1).
Set SYMPROD_CATALOG to override the catalog directory.
"""

import argparse
import json
import os
import sys
from pathlib import Path

from . import orbifold
from .orbifold import InputError, ManifoldData


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


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _check_types(raw):
    """Reject input the JSON types allow but the model does not: bools or
    floats where counts belong, ragged Hodge tables, a calabi_yau flag that
    is not a bool, pairing blocks other than an int degree and a list of
    matrix rows."""
    for key in ("dim_c", "dim_real"):
        if key in raw and not (_is_int(raw[key]) and raw[key] >= 0):
            raise ValueError("%s must be a nonnegative integer" % key)
    betti = raw.get("betti", [])
    if not (isinstance(betti, list) and all(map(_is_int, betti))):
        raise ValueError("betti must be a list of integers")
    for key in ("hodge", "hodgeB"):
        if "hodge" not in raw or key not in raw:
            continue
        rows, size = raw[key], raw["dim_c"] + 1
        if not (isinstance(rows, list) and len(rows) == size and all(
                isinstance(row, list) and len(row) == size
                and all(map(_is_int, row)) for row in rows)):
            raise ValueError("%s must be a %dx%d table of integers (dim_c + 1 "
                             "rows and columns)" % (key, size, size))
    if not isinstance(raw.get("calabi_yau", False), bool):
        raise ValueError("calabi_yau must be true or false")
    pairing = raw.get("pairing")
    if pairing is not None and not (isinstance(pairing, list) and all(
            isinstance(b, dict) and set(b) == {"degree", "matrix"}
            and _is_int(b["degree"]) and isinstance(b["matrix"], list)
            and all(isinstance(row, list) for row in b["matrix"])
            for b in pairing)):
        raise ValueError("pairing must be a list of blocks with exactly the "
                         "keys degree (an integer) and matrix (a list of rows)")


def load_manifold(path):
    """Parse and validate a manifold JSON file into ManifoldData."""
    path = Path(path)
    # ValueError covers bad JSON, bad UTF-8 and an over-long integer literal,
    # RecursionError JSON nested too deeply to parse
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError("cannot read %s: %s" % (path, exc))
    if not isinstance(raw, dict):
        raise InputError("%s: manifold file must be a JSON object" % path)
    name = raw.get("name", path.stem)
    known = {"name", "dim_c", "dim_real", "betti", "hodge", "hodgeB",
             "calabi_yau", "pairing"}
    unknown = set(raw) - known
    if unknown:
        raise InputError("%s: unknown fields %s" % (path, sorted(unknown)))
    try:
        if "hodge" in raw and "dim_c" not in raw:
            raise ValueError("a Hodge table needs dim_c")
        _check_types(raw)
        if not isinstance(name, str) or "".join(name.splitlines()) != name:
            raise ValueError("name must be a string without line breaks")
        if "hodge" in raw:
            X = ManifoldData.from_hodge(
                name,
                raw["dim_c"],
                raw["hodge"],
                calabi_yau=raw.get("calabi_yau", False),
                hodge_b_rows=raw.get("hodgeB"),
                pairing=raw.get("pairing"),
            )
            if "betti" in raw:
                stated = {(2 * d, 0): b
                          for d, b in enumerate(raw["betti"]) if b}
                if stated != X.betti.dims:
                    raise ValueError("stated Betti numbers disagree with "
                                     "the Hodge table")
            if "dim_real" in raw and raw["dim_real"] != 2 * raw["dim_c"]:
                raise ValueError("dim_real inconsistent with dim_c")
        elif "betti" in raw:
            if raw.get("calabi_yau") or "hodgeB" in raw:
                raise ValueError("B-data needs a Hodge table")
            if "dim_real" not in raw:
                raise ValueError("a Betti vector needs dim_real")
            X = ManifoldData.from_betti(name, raw["dim_real"], raw["betti"])
            X.pairing = raw.get("pairing")
        else:
            raise ValueError("need one of 'betti' or 'hodge'")
        if X.pairing is not None:
            from . import fock
            # shapes, entries and invertibility, for every command alike
            fock.pairing_from_blocks(X, X.pairing)
        return X
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


def _assert_integral(s, label):
    if not s.is_integral():
        raise AssertionError(
            "%s has non-integer coefficients: %s" % (label, s)
        )


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
    built = {}
    for mode, build in (("brute", orbifold.brute_series),
                        ("closed", orbifold.closed_series)):
        if args.mode in (mode, "both"):
            built[mode] = build(kind, X, order)
            _assert_integral(built[mode], "%s %s" % (mode, kind))
    if args.mode != "both":
        print(built[args.mode])
        return 0
    b, c = built["brute"], built["closed"]
    # print's separator supplies the second space, so a long series text is
    # written as it is, not copied into a longer line first
    print("brute: ", b)
    print("closed:", c)
    result = orbifold._compare("%s order %d" % (kind, order), b, c,
                               orbifold.KINDS[kind].var)
    if result.status == "pass":
        print("verdict: equal")
        return 0
    print("verdict: mismatch")
    for line in result.lines[:1]:
        print("  " + line)
    return 1


def cmd_fock_verify(args):
    # imported here, not at the top: only fock-verify and a manifold with a
    # pairing need the Fock module, so the other commands skip loading it
    from . import fock
    X = _load(args.manifold)
    results = fock.check_relations(X, args.max_charge)
    print("# fock-verify %s max-charge=%d" % (X.name, args.max_charge))
    return 1 if _emit_results(results) else 0


def cmd_verify_all(args):
    X = _load(args.manifold)
    print("# verify-all %s order=%s"
          % (X.name, args.order if args.order is not None else "default"))
    results = orbifold.verify_all(X, args.order)
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


def build_parser():
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already uses exit code 2 for usage errors
        return exc.code if isinstance(exc.code, int) else 0
    try:
        return args.fn(args)
    except InputError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except AssertionError as exc:
        sys.stderr.write("verification failure: %s\n" % exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
