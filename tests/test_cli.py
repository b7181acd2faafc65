import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import add, traced_peak
from symprod import cli, fock, layouts, manifold, orbifold


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def plus_one(s):
    """s + 1, a closed series made to mismatch."""
    return add(s, orbifold.Series.constant(s.var, None, 1))


def test_catalog_list(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    assert out.split() == [
        "abelian", "elliptic", "genus2", "k3", "p1", "p1xp1", "p2", "point",
    ]


def test_series_both_modes(capsys):
    code, out, _ = run(
        capsys, "series", "euler_orb", "--manifold", "p1",
        "--order", "3", "--mode", "both",
    )
    assert code == 0
    assert out == (
        "brute:  1 + 2*q + 5*q^2 + 10*q^3\n"
        "closed: 1 + 2*q + 5*q^2 + 10*q^3\n"
        "verdict: equal\n"
    )


def test_series_single_mode(capsys):
    code, out, _ = run(
        capsys, "series", "arith_sym", "--manifold", "k3", "--order", "2",
    )
    assert code == 0
    assert out == "1 + 2*q + 3*q^2\n"


def test_series_order_zero(capsys):
    code, out, _ = run(
        capsys, "series", "euler_orb", "--manifold", "k3", "--order", "0",
    )
    assert code == 0
    assert out == "1\n"


def test_series_default_orders(capsys):
    # default order is 8, dropping to 6 for (x, y)-weighted kinds on surfaces
    code, out, _ = run(capsys, "series", "euler_orb", "--manifold", "point")
    assert code == 0
    assert "q^8" in out
    code, out, _ = run(capsys, "series", "hodge_orb", "--manifold", "p1xp1")
    assert code == 0
    assert "q^6" in out and "q^7" not in out


def test_series_unknown_kind(capsys):
    code, _, err = run(capsys, "series", "bogus", "--manifold", "p1")
    assert code == 2
    assert "unknown kind" in err


def test_series_inapplicable_kind(capsys):
    code, _, err = run(capsys, "series", "hodge_orb_B", "--manifold", "p1")
    assert code == 2
    assert "not applicable" in err


def test_unknown_manifold(capsys):
    code, _, err = run(capsys, "series", "euler_orb", "--manifold", "nope")
    assert code == 2
    assert "catalog" in err


def test_verify_all_point(capsys):
    code, out, _ = run(capsys, "verify-all", "--manifold", "point",
                       "--order", "5")
    assert code == 0
    assert "0 failed" in out
    assert "FAIL" not in out


def test_fock_verify_p2(capsys):
    code, out, _ = run(capsys, "fock-verify", "--manifold", "p2",
                       "--max-charge", "3")
    assert code == 0
    assert out.count("PASS") == 5


def test_fock_verify_odd_d(capsys):
    code, _, err = run(capsys, "fock-verify", "--manifold", "p1")
    assert code == 2
    assert "divisible by 4" in err


# sha256 of `verify-all --manifold <name>` stdout; the CLI promises that
# its output bytes do not change.
VERIFY_ALL_SHA256 = {
    "point":
        "4e2923f6bbaeae772a21a1d0ed5c79ff92003a73ccfeca36e176f43a9feb408d",
    "p1": "00f81a34389a253739cc66740dcbc1fb56bf27e6cf41a05dfd93b5417a798373",
    "elliptic":
        "22c4cf383db840be6e4e418462dfd92294dc0cb0ff2aebbd9416e534b7c3e160",
    "genus2":
        "a0fbdf7a4f27814813b6d3b5c6af8bc7040ad5c81997db34a17444d6879354cf",
    "p2": "bbfb91444940414406073aeaddcf3235f4b7d84b9c758ba452134575a88d7217",
    "k3": "9867d046dee66a34434801872a8ee06f6f43de1aa66ae38d93765c2286a4875c",
    "abelian":
        "8ed7db915d9cade8f32af975037f8805836a5c9862706c3f4bad5a16823f2dbc",
    "p1xp1":
        "3c8369501ac30b3591062f99efc951a975ce05c841b54bbd615662836d90ec38",
}


@pytest.mark.parametrize("name", sorted(VERIFY_ALL_SHA256))
def test_verify_all_output_bytes_are_pinned(capsys, name):
    code, out, _ = run(capsys, "verify-all", "--manifold", name)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_SHA256[name]


# sha256 over `series <kind> --manifold <name>` (closed, default order) for
# every kind in SERIES_KINDS order: the exit code, stdout and stderr of each.
SERIES_SHA256 = {
    "abelian":
        "0895da0a45be5913aea6d2c0ed8db5f57131ebc40fb8eaa6fbbcc6aecb160f95",
    "elliptic":
        "6b7436ac74982e96aaee160b0e1bc70811a6fd5d7fbf9aa7bd260c4fd5922bf8",
    "genus2":
        "46e4626928fb0668c114f33c6b29aa23ccb9561cc69c54edca4a9aadfd4ab65d",
    "k3": "6edd5627bc65263ca447daaab04ca94d8dd817cef14fb7449043a61efe41df26",
    "p1": "a616145886406433477f26c2d6133db23842940aadcb35e5878b0be934192cda",
    "p1xp1":
        "3fda7c506114dcbd73c93c459f605431f2d712064895cdd639429e849e00d20d",
    "p2": "675d82816fce28d9f35f225dd04b6ff0204f31b5a6990c2c555c211df8ed32b7",
    "point":
        "e0f0797e3c34d3069d46eeb6144771cde4c32d84e7cedc8472bf2949258a0182",
}


@pytest.mark.parametrize("name", sorted(SERIES_SHA256))
def test_series_output_bytes_are_pinned(capsys, name):
    digest = hashlib.sha256()
    for kind in orbifold.SERIES_KINDS:
        code, out, err = run(capsys, "series", kind, "--manifold", name)
        digest.update(("%d\n%s%s" % (code, out, err)).encode())
    assert digest.hexdigest() == SERIES_SHA256[name]


def test_output_deterministic(capsys):
    args = ("verify-all", "--manifold", "p1", "--order", "4")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert (code1, out1) == (code2, out2)


# -------------------------------------------------------------- file loading


def write(tmp_path, payload, name="m.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def test_load_from_path(tmp_path, capsys):
    path = write(tmp_path, {"name": "mini", "dim_c": 1,
                            "hodge": [[1, 0], [0, 1]]})
    code, out, _ = run(capsys, "series", "euler_orb", "--manifold",
                       str(path), "--order", "2")
    assert code == 0
    assert out == "1 + 2*q + 5*q^2\n"


def test_load_k3_derives_betti(tmp_path):
    path = write(tmp_path, {"dim_c": 2,
                            "hodge": [[1, 0, 1], [0, 20, 0], [1, 0, 1]]})
    X = cli.load_manifold(path)
    assert [X.betti.dims.get((2 * d, 0), 0) for d in range(5)] \
        == [1, 0, 22, 0, 1]


def test_load_point(tmp_path):
    X = cli.load_manifold(write(tmp_path, {"dim_c": 0, "hodge": [[1]]}))
    assert X.dim_real == 0 and X.euler() == 1


def test_load_rejects_parse_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "series", "euler_orb", "--manifold", str(path))
    assert code == 2


# Files the JSON reader itself fails on, each with its own exception type.
@pytest.mark.parametrize("content", [
    b'{"name": "\xff\xfe", "dim_c": 0, "hodge": [[1]]}',  # not UTF-8
    b"[" * 100_000,  # nested past the parser's recursion limit
    b'{"dim_c": 0, "hodge": [[' + b"1" * 4301 + b"]]}",  # int too long
], ids=["invalid-utf8", "deep-nesting", "huge-int"])
def test_unreadable_json_exits_2_without_traceback(tmp_path, capsys, content):
    path = tmp_path / "m.json"
    path.write_bytes(content)
    for argv in (["series", "euler_orb"], ["verify-all"], ["fock-verify"]):
        code, out, err = run(capsys, *argv, "--manifold", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "Traceback" not in err


def long_str(n):
    """str(n) with the interpreter's int-to-str digit limit lifted for the
    call."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


NINES = 10 ** 4000 - 1  # a literal the reader takes: 4,000 digits


def test_series_both_renders_an_equal_series_once(capsys, monkeypatch):
    renders = []
    render = orbifold.Series.__str__
    monkeypatch.setattr(orbifold.Series, "__str__",
                        lambda s: renders.append(s) or render(s))
    argv = ("series", "euler_orb", "--manifold", "p1", "--order", "3",
            "--mode", "both")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and len(renders) == 1
    assert out.splitlines()[:2] == ["brute:  1 + 2*q + 5*q^2 + 10*q^3",
                                    "closed: 1 + 2*q + 5*q^2 + 10*q^3"]
    # a mismatch renders each side
    renders.clear()
    closed = orbifold.closed_series
    monkeypatch.setattr(orbifold, "closed_series",
                        lambda *a: plus_one(closed(*a)))
    code, out, _ = run(capsys, *argv)
    assert code == 1 and len(renders) == 2
    assert out.splitlines()[:3] == ["brute:  1 + 2*q + 5*q^2 + 10*q^3",
                                    "closed: 2 + 2*q + 5*q^2 + 10*q^3",
                                    "verdict: mismatch"]


def test_series_both_builds_no_key_of_an_equal_closed_series(capsys,
                                                             monkeypatch):
    # brute and closed hodge_orb on k3 share a slot-to-key map, so they
    # compare packed, and the one text printed is the brute series': the
    # column step runs once per power of q of the brute series, and never
    # on the closed one's layout
    calls = []
    columns = layouts.Kronecker.columns
    monkeypatch.setattr(layouts.Kronecker, "columns", lambda lay, *a: (
        calls.append(lay) or columns(lay, *a)))
    built = []
    closed = orbifold.closed_series
    monkeypatch.setattr(orbifold, "closed_series",
                        lambda *a: built.append(closed(*a)) or built[-1])
    code, out, _ = run(capsys, "series", "hodge_orb", "--manifold", "k3",
                       "--order", "12", "--mode", "both")
    assert code == 0 and out.endswith("\nverdict: equal\n")
    assert len(calls) == 13 and len(set(map(id, calls))) == 1
    assert built[0]._packed[0] is not calls[0]


def test_series_both_prints_a_mismatch_as_before(capsys, monkeypatch):
    # a packed brute series against a dict-backed closed one: both sides,
    # the verdict and the first-mismatch line, byte for byte
    closed = orbifold.closed_series
    monkeypatch.setattr(orbifold, "closed_series",
                        lambda *a: plus_one(closed(*a)))
    code, out, _ = run(capsys, "series", "hodge_orb", "--manifold", "p1",
                       "--order", "2", "--mode", "both")
    terms = ("q + x*y*q + q^2 + x^(1/2)*y^(1/2)*q^2 + x*y*q^2 + "
             "x^(3/2)*y^(3/2)*q^2 + x^2*y^2*q^2")
    assert (code, out) == (1, "brute:  1 + %s\nclosed: 2 + %s\n"
                              "verdict: mismatch\n"
                              "  first mismatch at 1: 1 vs 2\n"
                              % (terms, terms))


def test_series_both_compares_once(capsys, monkeypatch):
    # the verdict and the closed line's text come from one comparison
    compares = []
    eq = orbifold.Series.__eq__
    monkeypatch.setattr(orbifold.Series, "__eq__",
                        lambda a, b: compares.append(b) or eq(a, b))
    argv = ("series", "euler_orb", "--manifold", "p1", "--order", "3",
            "--mode", "both")
    assert run(capsys, *argv)[0] == 0 and len(compares) == 1
    closed = orbifold.closed_series
    monkeypatch.setattr(orbifold, "closed_series",
                        lambda *a: plus_one(closed(*a)))
    compares.clear()
    assert run(capsys, *argv)[0] == 1 and len(compares) == 1


def test_coefficients_past_the_str_digit_limit_print_in_full(tmp_path,
                                                             capsys):
    # the point with Euler number NINES: prod (1 - q^k)^-NINES has q^2
    # coefficient NINES (NINES + 3) / 2, of 8,000 digits
    path = write(tmp_path, {"dim_c": 0, "hodge": [[NINES]]})
    code, out, err = run(capsys, "series", "euler_orb", "--manifold",
                         str(path), "--order", "2")
    assert (code, err) == (0, "")
    assert out == "1 + %s*q + %s*q^2\n" % (
        long_str(NINES), long_str(NINES * (NINES + 3) // 2))
    code, out, err = run(capsys, "verify-all", "--manifold", str(path),
                         "--order", "2")
    assert (code, err) == (0, "") and out.endswith(" 0 failed\n")
    # a mismatch report prints such coefficients too
    big = orbifold.Series.from_terms("q", 1, [(NINES * NINES, {"q": 1})])
    small = orbifold.Series.from_terms("q", 1, [(NINES, {"q": 1})])
    assert orbifold._compare("c", big, small).lines[0] == \
        "first mismatch at q: %s vs %s" % (long_str(NINES * NINES),
                                           long_str(NINES))
    # the reader still refuses a literal past the limit, before any output
    path.write_text('{"dim_c": 0, "hodge": [[%s]]}' % ("9" * 4301))
    code, out, err = run(capsys, "series", "euler_orb", "--manifold",
                         str(path), "--order", "2")
    assert (code, out) == (2, "") and "Traceback" not in err


def test_fock_verify_takes_a_pairing_past_the_str_digit_limit(tmp_path,
                                                              capsys):
    # pairing entries of 4,000 digits, one a fraction: the relations hold
    # for any nondegenerate pairing, and the scalars m * eta pass the limit
    path = write(tmp_path, {"name": "p2big", "dim_c": 2, "hodge": P2_ROWS,
                            "pairing": [
                                {"degree": 2, "matrix": [[NINES]]},
                                {"degree": 0, "matrix": [["1/%d" % NINES]]}]})
    code, out, err = run(capsys, "fock-verify", "--manifold", str(path),
                         "--max-charge", "3")
    assert (code, err) == (0, "")
    assert out.endswith("5 checks, 0 failed\n")


def test_fock_verify_refuses_a_huge_basis_up_front(tmp_path, capsys):
    # one generator per class of a 4,000-digit Betti number: the basis
    # count from closed poincare_orb refuses it before any is listed
    path = write(tmp_path, {"dim_c": 0, "hodge": [[NINES]]})
    start = time.perf_counter()
    code, out, err = run(capsys, "fock-verify", "--manifold", str(path),
                         "--max-charge", "2")
    assert time.perf_counter() - start < 5
    assert (code, out) == (2, "")
    assert err == "error: %s has over 1000000 Fock states up to charge 2\n" \
        % path.stem
    # the cap admits k3 at charge 5 and refuses it at charge 6
    k3 = cli.load_manifold(cli.catalog_dir() / "k3.json")
    count = [sum(orbifold.closed_series("poincare_orb", k3, c).terms.values())
             for c in (5, 6)]
    assert count == [205_455, 1_279_175]
    assert count[0] <= fock.MAX_STATES < count[1]


@pytest.mark.parametrize("name, error", (
    # the point's basis passes MAX_STATES by charge 49: the count stops
    # there, with no closed series expanded to the requested charge
    ("point", "point has over 1000000 Fock states up to charge 100000"),
    # odd d is refused before the closed series too
    ("p1", "Fock construction needs dim_real divisible by 4; p1 has "
           "dim_real 2")))
def test_fock_verify_refuses_a_deep_charge_up_front(capsys, name, error):
    start = time.perf_counter()
    code, out, err = run(capsys, "fock-verify", "--manifold", name,
                         "--max-charge", "100000")
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (2, "", "error: %s\n" % error)


def test_load_rejects_inconsistent_betti(tmp_path):
    path = write(tmp_path, {"dim_c": 1, "hodge": [[1, 0], [0, 1]],
                            "betti": [1, 1, 1]})
    with pytest.raises(cli.InputError):
        cli.load_manifold(path)


def test_load_rejects_unknown_fields(tmp_path):
    path = write(tmp_path, {"dim_c": 0, "hodge": [[1]], "bogus": 1})
    with pytest.raises(cli.InputError):
        cli.load_manifold(path)


def test_load_rejects_missing_tables(tmp_path):
    path = write(tmp_path, {"name": "empty", "dim_real": 2})
    with pytest.raises(cli.InputError):
        cli.load_manifold(path)


K3_ROWS = [[1, 0, 1], [0, 20, 0], [1, 0, 1]]
P2_ROWS = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


@pytest.mark.parametrize("payload", [
    {"dim_c": 1, "hodge": [[1, 0.5], [0, 1]]},
    {"dim_c": 1, "hodge": [[1, "1"], [0, 1]]},
    {"dim_c": 1, "hodge": [[1, 0], [0, True]]},
    {"dim_c": 1, "hodge": [[1, 0, 0], [0, 1]]},
    {"dim_c": 2, "hodge": [[1, 0], [0, 1]]},
    {"dim_c": 1, "hodge": [[1, 0], [0, 1]], "hodgeB": [[1, 0]]},
    {"dim_c": 1, "hodge": [[1, 0], [0, 1]], "hodgeB": [[1, 0], [0, 1.0]]},
    {"dim_c": True, "hodge": [[1, 0], [0, 1]]},
    {"dim_c": 2.0, "hodge": K3_ROWS},
    {"dim_real": 2, "betti": [True, 0, 1]},
    {"dim_real": 2.0, "betti": [1, 0, 1]},
    {"dim_real": 2, "betti": [1, 0, "1"]},
    {"dim_c": 2, "hodge": K3_ROWS, "pairing": [{"degree": 0}]},
    {"dim_c": 2, "hodge": K3_ROWS, "pairing": [{"matrix": [[1]]}]},
    {"dim_c": 2, "hodge": K3_ROWS, "pairing": {"degree": 0}},
    {"dim_c": 2, "hodge": K3_ROWS,
     "pairing": [{"degree": "a", "matrix": [[1]]}]},
    {"dim_c": 2, "hodge": K3_ROWS, "pairing": [{"degree": 0, "matrix": 5}]},
    {"dim_c": 2, "hodge": K3_ROWS, "pairing": 0},
    {"dim_real": 4, "betti": [1, 0, 1, 0, 1], "pairing": False},
    {"dim_c": 2, "hodge": K3_ROWS, "calabi_yau": "false"},
    {"dim_c": 2, "hodge": K3_ROWS, "calabi_yau": 1},
    {"dim_c": 2, "hodge": K3_ROWS, "name": None},
    {"dim_c": 2, "hodge": K3_ROWS, "name": 5},
    {"dim_c": 2, "hodge": K3_ROWS, "name": [1, 2]},
    {"dim_c": 2, "hodge": K3_ROWS, "name": "a\nb"},
    {"dim_c": 2, "hodge": K3_ROWS, "name": "a\u2028b"},
    # one negative entry: rejected by ManifoldData's validation
    {"dim_c": 1, "hodge": [[1, -1], [0, 1]]},
    {"dim_c": 1, "hodge": [[1, 0], [0, 1]], "hodgeB": [[1, 0], [-1, 1]]},
    {"dim_real": 2, "betti": [1, -2, 1]},
    # dim_c is checked against dim_real on Betti input too
    {"dim_real": 2, "betti": [1, 0, 1], "dim_c": 5},
    # a null is refused next to valid fields: only the library reads None
    # as an absent field
    {"dim_c": 2, "hodge": K3_ROWS, "betti": None},
    {"dim_real": 2, "betti": [1, 0, 1], "hodge": None},
    {"dim_real": 2, "betti": [1, 0, 1], "dim_c": None},
    {"dim_c": 2, "hodge": K3_ROWS, "dim_real": None},
    {"dim_c": 2, "hodge": K3_ROWS, "hodgeB": None},
    {"dim_c": 2, "hodge": K3_ROWS, "calabi_yau": None},
])
def test_load_rejects_malformed_input(tmp_path, capsys, payload):
    path = write(tmp_path, payload)
    with pytest.raises(cli.InputError):
        cli.load_manifold(path)
    for argv in (["verify-all"], ["fock-verify", "--max-charge", "1"]):
        code, out, err = run(capsys, *argv, "--manifold", str(path))
        assert code == 2 and out == "" and err.startswith("error: ")


def test_load_reads_a_null_pairing_as_none(tmp_path, capsys):
    path = write(tmp_path, {"dim_c": 2, "hodge": P2_ROWS, "pairing": None})
    assert cli.load_manifold(path).pairing is None
    code, out, _ = run(capsys, "verify-all", "--manifold", str(path))
    assert code == 0 and out.endswith("23 checks, 0 failed\n")


TOP, MIDDLE = {"degree": 2, "matrix": [[1]]}, {"degree": 0, "matrix": [[1]]}
BAD_PAIRINGS = [
    [{"degree": 2, "matrix": [["1/0"]]}, MIDDLE],
    [TOP, MIDDLE, {"degree": 0, "matrix": [[2]]}],
    [TOP, {"degree": -2, "matrix": [[1]]}, MIDDLE],
    [TOP, {"degree": 0, "matrix": [[1]], "note": "x"}],
    [{"degree": 2, "matrix": [[1, 0]]}, MIDDLE],
    [{"degree": 2, "matrix": [[0]]}, MIDDLE],
]
# Fraction reads these entries, but an entry is an integer or an "a/b"
# string; listed apart, so the cases above keep their test ids
BAD_ENTRIES = [[{"degree": 2, "matrix": [[x]]}, MIDDLE]
               for x in ("0.5", "1e3", " 1/2 ")]


# The pairing is checked on load, so the commands that never build a Fock
# space reject a bad one too.
@pytest.mark.parametrize("pairing, argv", [
    (pairing, None) for pairing in BAD_PAIRINGS
] + [
    (None, ["verify-all", "--order", "-1"]),
    (None, ["fock-verify", "--max-charge", "-1"]),
] + [
    (pairing, argv) for argv in (["verify-all"], ["series", "hodge_orb"])
    for pairing in BAD_PAIRINGS
] + [
    (pairing, argv)
    for argv in (None, ["verify-all"], ["series", "hodge_orb"])
    for pairing in BAD_ENTRIES
])
def test_rejected_input_exits_2_before_any_output(tmp_path, capsys, pairing,
                                                  argv):
    payload = {"name": "p2x", "dim_c": 2, "hodge": P2_ROWS}
    if pairing is not None:
        payload["pairing"] = pairing
    argv = argv or ["fock-verify", "--max-charge", "1"]
    path = write(tmp_path, payload)
    code, out, err = run(capsys, *argv, "--manifold", str(path))
    assert code == 2 and out == ""
    assert "error: " in err and "Traceback" not in err


# Blocks between opposite degrees of different counts: no class in degree 1
# and one in degree 3.  A 0x1 block has no rows, so no rank test finds it
# degenerate; the counts do.
UNEVEN = {"name": "uneven", "dim_real": 4, "betti": [1, 0, 2, 1, 1]}
UNEVEN_PAIRINGS = [
    [TOP, {"degree": j, "matrix": matrix},
     {"degree": 0, "matrix": [[1, 0], [0, 1]]}]
    for j, matrix in ((1, []), (-1, [[]]))
]


@pytest.mark.parametrize("pairing", UNEVEN_PAIRINGS)
@pytest.mark.parametrize("argv", [["fock-verify", "--max-charge", "3"],
                                  ["verify-all"], ["series", "euler_orb"]])
def test_a_block_between_uneven_degrees_is_degenerate(tmp_path, capsys,
                                                      pairing, argv):
    path = write(tmp_path, {**UNEVEN, "pairing": pairing})
    code, out, err = run(capsys, *argv, "--manifold", str(path))
    j = pairing[1]["degree"]
    assert (code, out) == (2, "")
    assert err == "error: %s: pairing block %d is degenerate\n" % (path, j)


def test_a_pairing_is_checked_against_the_counts_alone(tmp_path):
    # a million classes in one degree: the wrong shape of the pairing block
    # is found from the count, and no per-class object is built
    path = write(tmp_path, {"dim_c": 0, "hodge": [[10 ** 6]],
                            "pairing": [MIDDLE]})

    def load():
        with pytest.raises(cli.InputError, match="block 0 has the wrong "
                                                 "shape"):
            cli.load_manifold(path)
    assert traced_peak(load) < 8_000_000


def test_a_pairing_on_a_4000_digit_betti_number_exits_2(tmp_path):
    # the count of the middle classes is compared, never enumerated
    path = write(tmp_path, {"dim_real": 4, "betti": [1, 0, NINES, 0, 1],
                            "pairing": [TOP, MIDDLE]})
    proc = run_fresh("series", "euler_orb", "--manifold", str(path),
                     timeout=10)
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr == (
        "error: %s: pairing block 0 has the wrong shape\n" % path).encode()


def dim_1000_table(tmp_path, *classes):
    """A dim_C 1000 table with one class at each (p, q) of classes."""
    rows = [[0] * 1001 for _ in range(1001)]
    for p, q in classes:
        rows[p][q] = 1
    return write(tmp_path, {"name": "wide", "dim_c": 1000, "hodge": rows})


def test_a_table_too_spread_for_its_layout_exits_2(tmp_path, capsys):
    # dim_C 1000 with classes at (0, 0), (1, 0), (0, 1) and (1000, 1000):
    # the units span all of Z^2, so each power of q fills the box of its x
    # and y exponents, thousands of slots a side at the default order 8,
    # and is refused before it is built
    path = dim_1000_table(tmp_path, (0, 0), (1, 0), (0, 1), (1000, 1000))
    for argv in (["series", "hodge_orb"],
                 ["series", "hodge_orb", "--mode", "brute"],
                 ["verify-all"]):
        code, out, err = run(capsys, *argv, "--manifold", str(path))
        assert code == 2 and "Traceback" not in err
        assert err.startswith("error: the product layout needs ")
        assert "spread too far for order 8" in err
        assert out == ""


def test_a_table_spread_on_a_sparse_lattice_computes(tmp_path, capsys):
    # dim_C 1000 with classes at (0, 0), (1, 999) and (1000, 1000): the box
    # of the exponents was refused (550 MiB of ints), but the units span a
    # lattice of index 499,000, whose slots take a few thousand per int
    path = dim_1000_table(tmp_path, (0, 0), (1, 999), (1000, 1000))
    code, out, err = run(capsys, "series", "hodge_orb", "--mode", "both",
                         "--manifold", str(path))
    assert code == 0 and err == ""
    assert out.endswith("verdict: equal\n")
    assert "x^1000*y^1000*q" in out
    code, out, err = run(capsys, "verify-all", "--manifold", str(path))
    assert code == 0 and err == ""
    assert out.endswith("19 checks, 0 failed\n")


def test_pairing_block_at_negative_degree_is_the_transpose(tmp_path, capsys):
    # p2's degree -2 block is the transpose of its 1x1 degree 2 block
    outs = []
    for top in (TOP, {"degree": -2, "matrix": [[1]]}):
        path = write(tmp_path, {"name": "p2x", "dim_c": 2, "hodge": P2_ROWS,
                                "pairing": [top, MIDDLE]})
        code, out, err = run(capsys, "fock-verify", "--manifold", str(path),
                             "--max-charge", "3")
        assert code == 0 and err == ""
        outs.append(out)
    assert outs[0] == outs[1]
    assert outs[0].endswith("5 checks, 0 failed\n")


def test_fock_verify_parses_a_pairing_once(tmp_path, capsys, monkeypatch):
    # ManifoldData parses the pairing as the file loads, and the Fock space
    # reads the parsed map; every symprod module's name for the parser is
    # counted, so a second parse anywhere shows
    parse, calls = manifold.pairing_from_blocks, []

    def counted(X, blocks):
        calls.append(blocks)
        return parse(X, blocks)
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "symprod" and \
                getattr(module, "pairing_from_blocks", None) is parse:
            monkeypatch.setattr(module, "pairing_from_blocks", counted)
    path = write(tmp_path, {"name": "p2x", "dim_c": 2, "hodge": P2_ROWS,
                            "pairing": [TOP, MIDDLE]})
    code, out, _ = run(capsys, "fock-verify", "--manifold", str(path),
                       "--max-charge", "2")
    assert code == 0 and out.endswith("5 checks, 0 failed\n")
    assert calls == [[TOP, MIDDLE]]


def test_load_betti_only(tmp_path):
    X = cli.load_manifold(
        write(tmp_path, {"name": "sphere4", "dim_real": 4,
                         "betti": [1, 0, 0, 0, 1]})
    )
    assert X.hodge is None and X.euler() == 2


def test_load_betti_with_a_consistent_dim_c(tmp_path, capsys):
    # a consistent dim_c is checked and dropped: without a Hodge table the
    # input is a real manifold, so no surface default order applies
    betti = {"dim_real": 4, "betti": [1, 0, 1, 0, 1]}
    X = cli.load_manifold(write(tmp_path, {**betti, "dim_c": 2}))
    assert (X.dim_real, X.euler(), X.dim_c) == (4, 3, None)
    for argv in (["verify-all"], ["series", "euler_orb"],
                 ["fock-verify", "--max-charge", "2"]):
        outs = [run(capsys, *argv, "--manifold", str(write(tmp_path, payload)))
                for payload in (betti, {**betti, "dim_c": 2})]
        assert outs[0] == outs[1] and outs[0][0] == 0, argv


@pytest.mark.parametrize("argv", [["verify-all"],
                                  ["fock-verify", "--max-charge", "1"]])
def test_a_name_stdout_cannot_encode_exits_2(tmp_path, capsys, monkeypatch,
                                             argv):
    path = write(tmp_path, {"name": "K3\u2013x", "dim_c": 2,
                            "hodge": K3_ROWS})
    outputs = {}
    for encoding in ("ascii", "utf-8"):
        stdout = io.TextIOWrapper(io.BytesIO(), encoding=encoding)
        monkeypatch.setattr(sys, "stdout", stdout)
        code = cli.main([*argv, "--manifold", str(path)])
        stdout.flush()
        outputs[encoding] = code, stdout.buffer.getvalue(), \
            capsys.readouterr().err
    code, out, err = outputs["ascii"]
    assert (code, out) == (2, b"")
    assert err.startswith("error: cannot write the output: 'ascii' codec")
    assert err.count("\n") == 1 and "Traceback" not in err
    code, out, err = outputs["utf-8"]
    assert (code, err) == (0, "")
    assert out.startswith(("# %s K3\u2013x " % argv[0]).encode("utf-8"))


def test_load_hodge_b_explicit(tmp_path):
    path = write(tmp_path, {
        "dim_c": 1,
        "hodge": [[1, 2], [2, 1]],
        "hodgeB": [[2, 1], [1, 2]],
    })
    X = cli.load_manifold(path)
    assert X.hodge_b is not None
    assert X.hodge_b.dims[(0, 0)] == 2


def test_catalog_env_override(tmp_path, capsys, monkeypatch):
    write(tmp_path, {"name": "solo", "dim_c": 0, "hodge": [[1]]},
          name="solo.json")
    monkeypatch.setenv("SYMPROD_CATALOG", str(tmp_path))
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    assert out == "solo\n"
    code, out, _ = run(capsys, "series", "euler_sym", "--manifold", "solo",
                       "--order", "2")
    assert code == 0
    assert out == "1 + q + q^2\n"


def test_verify_all_flags_wrong_b_table(tmp_path, capsys):
    # a Calabi-Yau input with an explicit B-table violating Serre duality
    # must fail verification (exit 1), not crash
    path = write(tmp_path, {
        "name": "liar",
        "dim_c": 1,
        "hodge": [[1, 1], [1, 1]],
        "calabi_yau": True,
        "hodgeB": [[1, 1], [0, 2]],
    })
    code, out, _ = run(capsys, "verify-all", "--manifold", str(path),
                       "--order", "4")
    assert code == 1
    assert "FAIL cross B-genus Serre duality" in out
    assert "first mismatch" in out


def test_duality_violation_surfaces_on_fock(tmp_path, capsys):
    path = write(tmp_path, {"name": "asym", "dim_real": 4,
                            "betti": [1, 0, 1, 2, 1]})
    code, _, err = run(capsys, "fock-verify", "--manifold", str(path),
                       "--max-charge", "2")
    assert code == 2
    assert "duality" in err


# The README's "Manifold files" rule map, restated without symprod: which
# payloads a manifold file must be refused for.


def _is_count(v):
    return type(v) is int and v >= 0


def _is_table(rows, size):
    return isinstance(rows, list) and len(rows) == size and all(
        isinstance(row, list) and len(row) == size and all(map(_is_count, row))
        for row in rows)


def _class_counts(payload):
    """{shifted degree: number of classes} over the degrees with classes,
    shifted by half the real dimension, when the fields of payload pass
    every rule; None when one of them breaks a rule."""
    p = {"name": "m", "calabi_yau": False, **payload}
    name, betti = p["name"], p.get("betti")
    if None in (v for key, v in p.items() if key != "pairing"):
        return None  # only the pairing may be null
    if not isinstance(name, str) or name.splitlines() not in ([], [name]):
        return None
    if not all(_is_count(p[key]) for key in ("dim_c", "dim_real") if key in p):
        return None
    if type(p["calabi_yau"]) is not bool:
        return None
    if betti is not None:
        if not (isinstance(betti, list) and all(map(_is_count, betti))):
            return None
        betti = Counter(dict(enumerate(betti)))
    if "hodge" in p:
        if "dim_c" not in p or not _is_table(p["hodge"], p["dim_c"] + 1):
            return None
        if "hodgeB" in p and not _is_table(p["hodgeB"], p["dim_c"] + 1):
            return None
        dim_real, total = p.get("dim_real", 2 * p["dim_c"]), Counter()
        for a, row in enumerate(p["hodge"]):
            for b, h in enumerate(row):
                total[a + b] += h
        if betti is not None and +betti != +total:
            return None  # the Betti numbers are the Hodge table's
        betti = total
    elif betti is None or "dim_real" not in p or "hodgeB" in p \
            or p["calabi_yau"]:
        return None  # real input: no B-data, and a Betti list needs dim_real
    else:
        dim_real = p["dim_real"]
    if dim_real % 2 or "dim_c" in p and 2 * p["dim_c"] != dim_real:
        return None
    if any(b for d, b in betti.items() if d > dim_real):
        return None
    return {d - dim_real // 2: b for d, b in betti.items() if b}


def _entry(x):
    """A pairing entry as a Fraction: a JSON integer, or an optional sign,
    ASCII digits and an optional '/' with digits, the denominator nonzero;
    None for anything else."""
    if type(x) is int:
        return Fraction(x)
    if not isinstance(x, str):
        return None
    num, slash, den = x.partition("/")
    parts = (num[1:] if num[:1] in ("+", "-") else num,) + (
        (den,) if slash else ())
    if not all(t.isascii() and t.isdigit() for t in parts) or \
            slash and not int(den):
        return None
    return Fraction(int(num), int(den) if slash else 1)


def _det(rows):
    """The determinant by expansion along the first row."""
    if not rows:
        return Fraction(1)
    return sum((-1) ** c * x * _det([r[:c] + r[c + 1:] for r in rows[1:]])
               for c, x in enumerate(rows[0]))


def _pairing_is_refused(blocks, counts, half_dim):
    if not (isinstance(blocks, list) and all(
            isinstance(b, dict) and sorted(b) == ["degree", "matrix"]
            and type(b["degree"]) is int and isinstance(b["matrix"], list)
            and all(isinstance(row, list) for row in b["matrix"])
            for b in blocks)):
        return True
    degrees = [abs(b["degree"]) for b in blocks]
    if len(set(degrees)) < len(degrees) or {abs(j) for j in counts} - set(
            degrees):
        return True  # one block per |degree|, every degree with classes
    for block in blocks:
        j, rows = block["degree"], block["matrix"]
        mat = [[_entry(x) for x in row] for row in rows]
        n, k = counts.get(-j, 0), counts.get(j, 0)
        if any(x is None for row in mat for x in row) or len(mat) != n \
                or any(len(row) != k for row in mat) or n != k \
                or not _det(mat):
            return True
        sign = -1 if half_dim % 2 else 1  # the middle block's symmetry
        if j == 0 and any(mat[r][c] != sign * mat[c][r]
                          for r in range(n) for c in range(n)):
            return True
    return False


def must_refuse(payload):
    """Whether a manifold file holding the JSON object payload breaks a
    rule of the README's rule map."""
    counts = _class_counts(payload)
    if counts is None:
        return True
    if payload.get("pairing") is None:
        return False
    half_dim = payload.get("dim_real", 2 * payload.get("dim_c", 0)) // 2
    return _pairing_is_refused(payload["pairing"], counts, half_dim)


def test_the_reference_decision_reads_the_rule_map():
    p2 = {"dim_c": 2, "hodge": P2_ROWS}
    good = [TOP, {"degree": 0, "matrix": [["1/2"]]}]
    assert not must_refuse(p2) and not must_refuse({**p2, "pairing": good})
    for pairing in BAD_PAIRINGS + BAD_ENTRIES + [5, [MIDDLE]]:
        assert must_refuse({**p2, "pairing": pairing}), pairing
    for payload in [{**UNEVEN, "pairing": pairing}
                    for pairing in UNEVEN_PAIRINGS] + [
            {"dim_real": 2, "betti": [1, 0, 1], "hodge": None},
            {"dim_c": 2, "hodge": K3_ROWS, "name": "a\u2028b"}]:
        assert must_refuse(payload), payload


# A plausible manifold with up to two fields replaced by any JSON value, and
# now and then a pairing of the shapes its Betti numbers ask for.
_ints = st.integers(-2, 5)
_counts = st.integers(0, 3)
_entries = st.one_of(_ints, st.sampled_from(
    ["1/2", "-3", "+0/5", "0.5", "1/0", " 1", "1e3", "\u0663"]))
_values = st.one_of(
    st.none(), _ints, st.booleans(), st.floats(), st.text(max_size=3),
    st.lists(st.one_of(_ints, st.lists(_ints, max_size=4)), max_size=4),
    st.lists(st.fixed_dictionaries({"degree": _ints, "matrix": st.lists(
        st.lists(_entries, max_size=2), max_size=2)}), max_size=2),
)
_betti_manifolds = st.fixed_dictionaries({
    "dim_real": st.integers(0, 4).map(lambda m: 2 * m),
    "betti": st.lists(_counts, max_size=5)})
_hodge_manifolds = st.integers(0, 2).flatmap(lambda d: st.fixed_dictionaries(
    {"dim_c": st.just(d), "hodge": st.lists(st.lists(
        _counts, min_size=d + 1, max_size=d + 1), min_size=d + 1,
        max_size=d + 1)}, optional={"calabi_yau": st.booleans()}))


def _shaped_pairing(payload):
    """payload, or payload with one block per |degree| of the shape its
    class counts ask for and small entries, so that some pairings pass."""
    counts, entry = _class_counts(payload) or {}, _ints | st.just("-1/2")
    blocks = [st.lists(st.lists(entry, min_size=counts.get(j, 0),
                                max_size=counts.get(j, 0)),
                       min_size=counts.get(-j, 0), max_size=counts.get(-j, 0))
              .map(lambda m, j=j: {"degree": j, "matrix": m})
              for j in sorted({abs(j) for j in counts})]
    return st.just(payload) | st.tuples(*blocks).map(
        lambda b: {**payload, "pairing": list(b)})


_manifolds = st.builds(
    lambda base, wild: {**base, **wild},
    st.one_of(_betti_manifolds, _hodge_manifolds),
    st.dictionaries(st.sampled_from((
        "name", "dim_c", "dim_real", "betti", "hodge", "hodgeB", "calabi_yau",
        "pairing")), _values, max_size=2)).flatmap(_shaped_pairing)


# Every command refuses a payload, with one "error: <path>: " line and no
# output, exactly where the rule map does; verify-all runs everywhere else.
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_manifolds)
def test_any_manifold_json_exits_cleanly(tmp_path, payload):
    path = write(tmp_path, payload)
    refused = must_refuse(payload)
    for argv in (["verify-all", "--order", "2"],
                 ["fock-verify", "--max-charge", "1"],
                 ["series", "sign_orb", "--order", "3"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv + ["--manifold", str(path)])
        err = err.getvalue()
        assert err.startswith("error: %s: " % path) == refused, (argv, err)
        if refused:
            assert code == 2, argv
        elif argv[0] == "verify-all":
            assert code in (0, 1), err
        if code == 2:
            assert out.getvalue() == ""
            assert err.startswith("error: ") and err.count("\n") == 1


# The library applies the file's rules: on each fuzzed payload without a
# null (which the library reads as an absent field), ManifoldData raises
# ValueError exactly where load_manifold raises InputError, and builds the
# same tables and pairing otherwise.
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_manifolds.filter(lambda payload: None not in payload.values()))
def test_the_library_path_applies_the_file_rules(tmp_path, payload):
    path = write(tmp_path, payload)
    fields = {"name": path.stem, **payload}
    fields["hodge_b"] = fields.pop("hodgeB", None)
    try:
        X = cli.load_manifold(path)
    except cli.InputError:
        with pytest.raises(ValueError):
            manifold.ManifoldData(**fields)
        return
    Y = manifold.ManifoldData(**fields)
    assert (Y.betti, Y.hodge, Y.hodge_b, Y.pairing) == \
        (X.betti, X.hodge, X.hodge_b, X.pairing)


# ------------------------------------------------- one parser per process

SRC = str(Path(cli.__file__).resolve().parents[1])


def run_fresh(*argv, timeout=120, **kw):
    """python -m symprod.cli in a fresh process, importing this symprod."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("SYMPROD_CATALOG", None)
    return subprocess.run([sys.executable, "-m", "symprod.cli", *argv],
                          capture_output=True, env=env, timeout=timeout, **kw)


def run_code(code, *argv):
    """python -c code in a fresh process, importing this symprod."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, env=env, timeout=60, check=True)


def test_importing_the_cli_builds_no_parser():
    code = ("import symprod.cli as c; "
            "print(c.build_parser.cache_info().currsize)")
    assert run_code(code).stdout == b"0\n"


def test_loading_a_pairing_leaves_fock_unloaded(tmp_path):
    # the pairing is parsed where the manifold is built, so a command that
    # builds no Fock space never imports the Fock module
    path = write(tmp_path, {"name": "p2x", "dim_c": 2, "hodge": P2_ROWS,
                            "pairing": [TOP, {"degree": 0,
                                              "matrix": [["-1/2"]]}]})
    code = ("import sys; from fractions import Fraction; "
            "from symprod import cli; "
            "X = cli.load_manifold(sys.argv[1]); "
            "print(X.pairing == {(0, 2): 1, (2, 0): 1, "
            "(1, 1): Fraction(-1, 2)}, 'symprod.fock' in sys.modules); "
            "code = cli.main(['verify-all', '--manifold', sys.argv[1]]); "
            "print(code, 'symprod.fock' in sys.modules)")
    out = run_code(code, str(path)).stdout.decode().splitlines()
    assert (out[0], out[-1]) == ("True False", "0 False")
    assert out[-2] == "23 checks, 0 failed"


def test_one_process_prints_what_fresh_processes_print(capsys, monkeypatch):
    # a usage error first, so the shared parser has exited once before it
    # parses the commands that follow it
    monkeypatch.delenv("SYMPROD_CATALOG", raising=False)
    commands = [
        ["series", "--order", "-1"],
        ["series", "euler_orb", "--manifold", "p1", "--order", "3",
         "--mode", "both"],
        ["series", "hodge_orb", "--manifold", "k3", "--order", "4"],
        ["verify-all", "--manifold", "p1", "--order", "4"],
        ["fock-verify", "--manifold", "p2", "--max-charge", "3"],
        ["verify-all", "--manifold", "elliptic", "--order", "3"],
    ]
    for argv in commands:
        code = cli.main(argv)
        got = code, capsys.readouterr()
        fresh = run_fresh(*argv)
        assert got == (fresh.returncode, (fresh.stdout.decode(),
                                          fresh.stderr.decode())), argv
    assert cli.build_parser.cache_info().currsize == 1


@pytest.mark.parametrize("argv, head", [
    # 471,396 bytes of output: the reader takes 10 and closes the pipe
    (["series", "hodge_orb", "--manifold", "k3", "--order", "30"],
     b"1 + q + y^"),
    # the reader closes at once, so even output that fits the buffer
    # meets the closed pipe, at main's flush rather than the exit's
    (["catalog", "list"], b""),
])
def test_a_closed_stdout_exits_2_with_one_error_line(argv, head):
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("PYTHONUNBUFFERED", None)  # stdout buffered, as in a shell
    proc = subprocess.Popen(
        [sys.executable, "-m", "symprod.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.read(len(head)) == head
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 2
    assert err.startswith("error: cannot write the output: ")
    assert "Broken pipe" in err
    assert err.count("\n") == 1 and "Traceback" not in err
