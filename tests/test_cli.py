import contextlib
import hashlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from symprod import cli, orbifold


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
])
def test_load_rejects_malformed_input(tmp_path, capsys, payload):
    path = write(tmp_path, payload)
    with pytest.raises(cli.InputError):
        cli.load_manifold(path)
    for argv in (["verify-all"], ["fock-verify", "--max-charge", "1"]):
        code, out, err = run(capsys, *argv, "--manifold", str(path))
        assert code == 2 and out == "" and err.startswith("error: ")


P2_ROWS = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
TOP, MIDDLE = {"degree": 2, "matrix": [[1]]}, {"degree": 0, "matrix": [[1]]}
BAD_PAIRINGS = [
    [{"degree": 2, "matrix": [["1/0"]]}, MIDDLE],
    [TOP, MIDDLE, {"degree": 0, "matrix": [[2]]}],
    [TOP, {"degree": -2, "matrix": [[1]]}, MIDDLE],
    [TOP, {"degree": 0, "matrix": [[1]], "note": "x"}],
    [{"degree": 2, "matrix": [[1, 0]]}, MIDDLE],
    [{"degree": 2, "matrix": [[0]]}, MIDDLE],
]


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


def test_load_betti_only(tmp_path):
    X = cli.load_manifold(
        write(tmp_path, {"name": "sphere4", "dim_real": 4,
                         "betti": [1, 0, 0, 0, 1]})
    )
    assert X.hodge is None and X.euler() == 2


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


# A plausible manifold with up to two fields replaced by any JSON value: the
# CLI exits 0, 1 or 2 and never raises, and an input error (exit 2) writes
# nothing to stdout.
_ints = st.integers(-2, 5)
_counts = st.integers(0, 3)
_values = st.one_of(
    _ints, st.booleans(), st.floats(), st.text(max_size=3),
    st.lists(st.one_of(_ints, st.lists(_ints, max_size=4)), max_size=4),
    st.lists(st.fixed_dictionaries({"degree": _ints, "matrix": st.lists(
        st.lists(_ints, max_size=2), max_size=2)}), max_size=2),
)
_betti_manifolds = st.fixed_dictionaries({
    "dim_real": st.integers(0, 4).map(lambda m: 2 * m),
    "betti": st.lists(_counts, max_size=5)})
_hodge_manifolds = st.integers(0, 2).flatmap(lambda d: st.fixed_dictionaries(
    {"dim_c": st.just(d), "hodge": st.lists(st.lists(
        _counts, min_size=d + 1, max_size=d + 1), min_size=d + 1,
        max_size=d + 1)}, optional={"calabi_yau": st.booleans()}))
_manifolds = st.builds(
    lambda base, wild: {**base, **wild},
    st.one_of(_betti_manifolds, _hodge_manifolds),
    st.dictionaries(st.sampled_from((
        "name", "dim_c", "dim_real", "betti", "hodge", "hodgeB", "calabi_yau",
        "pairing")), _values, max_size=2))


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_manifolds)
def test_any_manifold_json_exits_cleanly(tmp_path, payload):
    path = write(tmp_path, payload)
    for argv in (["verify-all", "--order", "2"],
                 ["fock-verify", "--max-charge", "1"],
                 ["series", "sign_orb", "--order", "3"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv + ["--manifold", str(path)])
        assert code in (0, 1, 2)
        if code == 2:
            assert out.getvalue() == ""
            assert err.getvalue().startswith("error: ")
