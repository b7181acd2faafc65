import json

import pytest

from symprod import cli


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
    assert [X.betti.dims.get(2 * d, 0) for d in range(5)] == [1, 0, 22, 0, 1]


def test_load_point(tmp_path):
    X = cli.load_manifold(write(tmp_path, {"dim_c": 0, "hodge": [[1]]}))
    assert X.dim_real == 0 and X.euler() == 1


def test_load_rejects_parse_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "series", "euler_orb", "--manifold", str(path))
    assert code == 2


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
    {"dim_c": 2, "hodge": K3_ROWS, "calabi_yau": "false"},
    {"dim_c": 2, "hodge": K3_ROWS, "calabi_yau": 1},
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


@pytest.mark.parametrize("pairing, argv", [
    ([{"degree": 2, "matrix": [["1/0"]]}, MIDDLE], None),
    ([TOP, MIDDLE, {"degree": 0, "matrix": [[2]]}], None),
    ([TOP, {"degree": -2, "matrix": [[1]]}, MIDDLE], None),
    ([TOP, {"degree": 0, "matrix": [[1]], "note": "x"}], None),
    ([{"degree": 2, "matrix": [[1, 0]]}, MIDDLE], None),
    ([{"degree": 2, "matrix": [[0]]}, MIDDLE], None),
    (None, ["verify-all", "--order", "-1"]),
    (None, ["fock-verify", "--max-charge", "-1"]),
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
