import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (counting_coefficient, state_charge, state_degree,
                      traced_peak)
from symprod import cli, fock, manifold, orbifold
from symprod.fock import FockSpace
from symprod.manifold import InputError, ManifoldData, default_pairing


ODD4 = ManifoldData("odd4", dim_real=4, betti=[1, 2, 0, 2, 1])


@pytest.fixture(scope="module")
def p2(catalog):
    # charge 6: the highest any test below reads or creates to
    return FockSpace(catalog["p2"], 6)


@pytest.fixture(scope="module")
def k3(catalog):
    return FockSpace(catalog["k3"], 0)


def product(space, s1, s2):
    """The product of two basis states in the symmetric algebra, as a
    vector {state: sign}: the canonical form of the joined word."""
    res = space.canonical_state(s1 + s2)
    return {} if res is None else {res[0]: res[1]}


# ------------------------------------------------------------------- basis


def test_vacuum_only_at_charge_zero(catalog):
    assert FockSpace(catalog["p2"], 0).states == [()]


def test_p2_state_count_charge_two(catalog):
    # vacuum; 3 level-1 singles; 6 level-1 pairs; 3 level-2 singles
    space = FockSpace(catalog["p2"], 2)
    assert len(space.states) == 13
    by_charge = {}
    for s in space.states:
        by_charge.setdefault(state_charge(s), []).append(s)
    assert [len(by_charge.get(c, ())) for c in range(3)] == [1, 3, 9]


def test_charge_dimensions_match_sector_series(catalog):
    series = orbifold.brute_series("poincare_orb", catalog["p2"], 3)
    space = FockSpace(catalog["p2"], 3)
    for n in range(4):
        count = sum(1 for s in space.states if state_charge(s) == n)
        coeff = counting_coefficient(series, n)
        assert count == sum(coeff.values())


@settings(max_examples=60, deadline=None)
@given(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
       st.integers(0, 4), st.sampled_from((0, 6, 40, 10**9)))
def test_basis_size_counts_the_enumerated_basis(half, charge, cap):
    # Betti [b0, b1, b2, b1, b0], all zero too, odd classes at degrees 1 and
    # 3: the count of the states up to charge c, at the first c where it
    # passes cap, else at the requested charge
    b0, b1, b2 = half
    X = ManifoldData("x", dim_real=4, betti=[b0, b1, b2, b1, b0])
    charges = [state_charge(s) for s in FockSpace(X, charge).states]
    running = [sum(c <= n for c in charges) for n in range(charge + 1)]
    assert fock.basis_size(X, charge, cap) == \
        next((count for count in running if count > cap), running[-1])


def test_character_identity(catalog):
    assert FockSpace(catalog["p2"], 3).character() == orbifold.closed_series(
        "poincare_orb", catalog["p2"], 3
    )


@pytest.mark.parametrize("name", ["p2", "odd4"])
def test_each_basis_is_the_low_charge_prefix_of_a_higher_one(catalog, name):
    # the enumeration to charge c lists exactly the charge <= c states of
    # the one to any higher charge, first and in the same order, and carries
    # each state's number, charge and degree as the word gives them
    X = catalog["p2"] if name == "p2" else ODD4
    spaces = [FockSpace(X, c) for c in range(5)]
    for space in spaces:
        assert space.ids == {s: i for i, s in enumerate(space.states)}
        assert space.charge == list(map(state_charge, space.states))
        assert space.degree == [state_degree(space, s) for s in space.states]
    for c, low in enumerate(spaces):
        for high in spaces[c + 1:]:
            assert low.states == high.states[:len(low.states)] == [
                s for s in high.states if state_charge(s) <= c]
    assert len(spaces[-1].states) > len(spaces[-2].states)


def test_odd_d_rejected(catalog):
    with pytest.raises(ValueError):
        FockSpace(catalog["p1"], 0)


# ------------------------------------------------------------------ pairing


def test_default_pairing_p2(p2):
    # generators 0, 1, 2 in degrees 0, 2, 4: blocks H^0 <-> H^4, H^2 middle
    assert p2.eta.get((0, 2), 0) == 1
    assert p2.eta.get((2, 0), 0) == 1
    assert p2.eta.get((1, 1), 0) == 1
    assert p2.eta.get((0, 1), 0) == 0


def test_default_pairing_k3_middle_identity(k3):
    mids = [g for g, j in enumerate(k3.shifted) if j == 0]
    assert len(mids) == 22
    for i in mids:
        assert k3.eta.get((i, i), 0) == 1


def test_default_pairing_odd_middle_is_symplectic(catalog):
    eta = default_pairing(catalog["genus2"])
    # degree-1 generators 1..4 pair antisymmetrically in consecutive pairs
    assert eta[(1, 2)] == 1 and eta[(2, 1)] == -1
    assert eta[(3, 4)] == 1 and eta[(4, 3)] == -1


def test_default_pairing_rejects_odd_middle_of_odd_dimension():
    X = ManifoldData("bad", dim_real=2, betti=[1, 3, 1])
    with pytest.raises(ValueError):
        default_pairing(X)


def test_default_pairing_rejects_broken_duality():
    X = ManifoldData("bad", dim_real=4, betti=[1, 0, 2, 1, 1])
    with pytest.raises(ValueError):
        default_pairing(X)


def _poincare_betti(dim_real):
    """Poincare-symmetric Betti vectors [b_0, ..., b_dim_real]."""
    half = dim_real // 2
    return st.lists(st.integers(0, 3), min_size=half + 1,
                    max_size=half + 1).map(lambda low: low + low[-2::-1])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 4, 6, 8]).flatmap(
    lambda dim: st.tuples(st.just(dim), _poincare_betti(dim))),
    st.integers(0, 8))
def test_default_pairing_structure(dim_betti, k):
    dim_real, betti = dim_betti
    X = ManifoldData("rand", dim_real=dim_real, betti=betti)
    d = dim_real // 2
    # the classes of degree i are numbered from b_0 + ... + b_(i-1) on
    ids = [range(sum(betti[:i]), sum(betti[:i + 1]))
           for i in range(dim_real + 1)]
    mid = ids[d]
    if d % 2 and len(mid) % 2:
        with pytest.raises(InputError, match="odd middle block"):
            default_pairing(X)
    else:
        expect = {}
        # degrees i < d and 2d - i pair by the identity, mirrored with the
        # Koszul sign (the two degrees have one parity, that of i)
        for i in range(d):
            for a, b in zip(ids[i], ids[dim_real - i]):
                expect[(a, b)] = 1
                expect[(b, a)] = -1 if i % 2 else 1
        if d % 2:  # the standard symplectic form
            for a, b in zip(mid[0::2], mid[1::2]):
                expect[(a, b)], expect[(b, a)] = 1, -1
        else:
            for a in mid:
                expect[(a, a)] = 1
        eta = default_pairing(X)
        assert eta == expect
        assert all(type(v) is int for v in eta.values())
    # one more class off the middle degree breaks Poincare duality
    k %= dim_real + 1
    if 2 * k != dim_real:
        broken = betti[:k] + [betti[k] + 1] + betti[k + 1:]
        with pytest.raises(InputError, match="Poincare duality"):
            default_pairing(ManifoldData("bad", dim_real=dim_real,
                                         betti=broken))


def test_pairing_graded_symmetry(catalog):
    for name in ("p2", "k3", "genus2", "elliptic"):
        X = catalog[name]
        eta = default_pairing(X)
        # the parity of each class, numbered in degree order
        odd = [i % 2 for i in range(X.dim_real + 1)
               for _ in range(X.betti.dims.get((2 * i, 0), 0))]
        assert len(odd) == sum(X.betti.dims.values())
        for (i, j), v in eta.items():
            sign = -1 if odd[i] and odd[j] else 1
            assert eta.get((j, i)) == sign * v


@pytest.mark.parametrize("degree, odd_entries", [
    (1, {(1, 3): 1, (3, 1): -1, (1, 4): 2, (4, 1): -2,
         (2, 4): 1, (4, 2): -1}),
    (-1, {(3, 1): 1, (1, 3): -1, (3, 2): 2, (2, 3): -2,
          (4, 2): 1, (2, 4): -1}),
])
def test_user_blocks_are_mirrored_with_the_koszul_sign(degree, odd_entries):
    # odd4 numbers its classes 0 (degree 0), 1, 2 (degree 1), 3, 4 (degree
    # 3) and 5 (degree 4).  The rows of a degree-j block index the classes
    # of shifted degree -j; the mirror of an entry between two odd classes
    # changes sign, one between even classes does not
    blocks = [{"degree": 2, "matrix": [[3]]},
              {"degree": degree, "matrix": [[1, 2], [0, 1]]}]
    assert manifold.pairing_from_blocks(ODD4, blocks) == {
        (0, 5): 3, (5, 0): 3, **odd_entries}


def p2_with_pairing(blocks):
    return ManifoldData("p2", dim_c=2, hodge=[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                        pairing=blocks)


def test_custom_pairing_blocks():
    X = p2_with_pairing([
        {"degree": 2, "matrix": [["2"]]},
        {"degree": 0, "matrix": [[1]]},
    ])
    space = FockSpace(X, 0)
    assert space.eta.get((0, 2), 0) == 2
    assert space.eta.get((2, 0), 0) == 2
    # relations hold for any nondegenerate graded-symmetric pairing
    results = fock.check_relations(X, 3)
    assert all(r.status == "pass" for r in results)


def test_custom_pairing_rejects_degenerate():
    with pytest.raises(ValueError, match="block 2 is degenerate"):
        p2_with_pairing([
            {"degree": 2, "matrix": [[0]]},
            {"degree": 0, "matrix": [[1]]},
        ])


def test_custom_pairing_rejects_missing_block():
    with pytest.raises(ValueError, match="degree 2 missing"):
        p2_with_pairing([{"degree": 0, "matrix": [[1]]}])


@pytest.mark.parametrize("blocks", [
    5, {"degree": 0, "matrix": [[1]]}, [5], [{"degree": 0}],
    [{"degree": "a", "matrix": [[1]]}], [{"degree": True, "matrix": [[1]]}],
    [{"degree": 0, "matrix": 5}], [{"degree": 0, "matrix": [1]}],
    [{"degree": 0, "matrix": [[1]], "note": "x"}],
    [{"degree": 2, "matrix": [["0.5"]]}, {"degree": 0, "matrix": [[1]]}],
])
def test_a_malformed_pairing_is_a_value_error_on_the_library_path(blocks):
    # the library gets the CLI's pairing rules: the constructor parses the
    # pairing, checking the blocks' JSON shape before it reads them, so no
    # TypeError escapes and no malformed manifold reaches a Fock space
    with pytest.raises(ValueError, match="pairing"):
        p2_with_pairing(blocks)


def test_a_wide_middle_degree_costs_no_dense_block():
    # 2,000 middle classes at charge 1: the default pairing pairs each with
    # itself, so the space's peak is linear in the classes.  With a dense
    # 2000x2000 identity block it read 93 MB on Python 3.11, with the
    # pairing built from the counts about 0.9 MB
    X = ManifoldData("wide", dim_real=4, betti=[1, 0, 2000, 0, 1])
    assert traced_peak(lambda: FockSpace(X, 1)) < 8_000_000
    space = FockSpace(X, 1)
    assert len(space.states) == 2003 and len(space.eta) == 2002


# ---------------------------------------------------------------- operators


def images(space, row, s):
    """{g: {t: coeff}}: the row that the row builder row gives the state s,
    read back as states."""
    r = row(s)
    out = {}
    for g, t, c in zip(r[::3], r[1::3], r[2::3]):
        out.setdefault(g, {})[space.states[t]] = c
    return out


def apply(space, row, g, vec):
    """The generator-g entry of a family, given by its row builder, applied
    linearly to a vector {state: coefficient}, dropping zero coefficients."""
    out = {}
    for state, c in vec.items():
        for s, w in images(space, row, state).get(g, {}).items():
            t = out.get(s, 0) + c * w
            if t:
                out[s] = t
            else:
                del out[s]
    return out


def test_annihilate_vacuum(p2):
    for m in (1, 2):
        for g in range(3):
            assert images(p2, p2.rows(-m), ()).get(g, {}) == {}


def test_create_then_annihilate_scalar(p2):
    # annihilate(m, a) create(m, b) |0> = m eta(a, b) |0>
    for m in (1, 2, 3):
        cre, ann = p2.rows(m), p2.rows(-m)
        for a in range(3):
            for b in range(3):
                created = images(p2, cre, ()).get(b, {})
                out = apply(p2, ann, a, created)
                expect = m * p2.eta.get((a, b), 0)
                assert out == ({(): expect} if expect else {})


def test_odd_create_squares_to_zero(catalog):
    # a 4k-dimensional space with odd cohomology exercises the signs
    space = FockSpace(ODD4, 2)
    odd = space.odd.index(1)
    cre = space.rows(1)
    once = images(space, cre, ()).get(odd, {})
    assert once == {((1, odd),): 1}
    assert apply(space, cre, odd, once) == {}


def test_koszul_sign_on_reordering():
    space = FockSpace(ODD4, 0)
    o1, o2 = [g for g, p in enumerate(space.odd) if p][:2]
    s12, sign12 = space.canonical_state([(1, o1), (1, o2)])
    s21, sign21 = space.canonical_state([(1, o2), (1, o1)])
    assert s12 == s21
    assert sign12 == -sign21


def test_canonicalization_is_stable():
    space = FockSpace(ODD4, 3)
    for s in space.states:
        state, sign = space.canonical_state(s)
        assert state == s and sign == 1


def steps(space, s, images):
    """(charge, degree) of each image state minus that of s."""
    return {(state_charge(t) - state_charge(s),
             state_degree(space, t) - state_degree(space, s)) for t in images}


def test_declared_steps_audited(p2):
    # create moves charge by +m and degree by the shifted degree + m*d
    shift = p2.shifted[0]
    created = images(p2, p2.rows(2), ()).get(0, {})
    assert steps(p2, (), created) == {(2, shift + 2 * p2.d)}
    state = ((2, 2),)
    out = images(p2, p2.rows(-2), state).get(0, {})
    assert steps(p2, state, out) == {(-2, shift - 2 * p2.d)}
    assert out == {(): 2 * p2.eta.get((0, 2), 0)}


def test_family_beyond_the_index_raises_value_error(catalog):
    # a state outside the numbered basis, or a creation leaving it, is the
    # caller's fault, not a broken operator
    space = FockSpace(catalog["p2"], 1)
    with pytest.raises(ValueError, match=r"create\(1\) of .* leaves the "
                                         r"basis to charge 1"):
        space.rows(1)(((1, 0),))
    with pytest.raises(ValueError, match="not a state of the basis to "
                                         "charge 1"):
        space.rows(-1)(((2, 0),))
    # on a basis to a higher charge the same calls succeed
    space = FockSpace(catalog["p2"], 2)
    assert images(space, space.rows(1), ((1, 0),))[0] == {((1, 0), (1, 0)): 1}


def test_level_zero_rejected(p2):
    for family in (p2.creators, p2.annihilators, p2.rows):
        with pytest.raises(ValueError):
            family(0)


def test_distinct_levels_commute(p2):
    # [create(1, a), create(2, b)] = 0 exactly, not only modulo truncation
    a, b = 0, 1
    c1, c2 = p2.rows(1), p2.rows(2)
    for s in (s for s in p2.states if state_charge(s) <= 2):
        lhs = apply(p2, c1, a, apply(p2, c2, b, {s: 1}))
        rhs = apply(p2, c2, b, apply(p2, c1, a, {s: 1}))
        assert lhs == rhs


# ------------------------------------------------------------------- Hopf


def test_hopf_product_unit(p2):
    s = ((1, 0), (2, 1))
    assert product(p2, (), s) == {s: 1}
    assert product(p2, s, ()) == {s: 1}


def test_hopf_product_super_commutative():
    space = FockSpace(ODD4, 2)
    for s1 in space.states:
        for s2 in space.states:
            p12 = product(space, s1, s2)
            p21 = product(space, s2, s1)
            par1 = sum(space.odd[g] for _, g in s1)
            par2 = sum(space.odd[g] for _, g in s2)
            sign = -1 if par1 % 2 and par2 % 2 else 1
            assert p12 == {k: sign * v for k, v in p21.items()}


def test_hopf_product_associative():
    space = FockSpace(ODD4, 1)
    states = space.states

    def mul(vec, s2):
        out = {}
        for s1, c in vec.items():
            for k, v in product(space, s1, s2).items():
                t = out.get(k, 0) + c * v
                if t:
                    out[k] = t
                else:
                    del out[k]
        return out

    for a in states:
        for b in states:
            for c in states:
                left = mul(product(space, a, b), c)
                right = {}
                for k, v in product(space, b, c).items():
                    for k2, v2 in product(space, a, k).items():
                        t = right.get(k2, 0) + v * v2
                        if t:
                            right[k2] = t
                        else:
                            del right[k2]
                assert left == right


# ------------------------------------------------------------ full relations


def test_level2_commutator_on_wide_domain(p2):
    # [annihilate(2, a), create(2, b)] = 2 eta(a, b) Id on every state of
    # charge <= 4, checked on a basis truncated high enough not to leak
    states = [s for s in p2.states if state_charge(s) <= 4]
    ann, cre = p2.rows(-2), p2.rows(2)
    for a in range(3):
        for b in range(3):
            expect = 2 * p2.eta.get((a, b), 0)
            for s in states:
                lhs = apply(p2, ann, a, apply(p2, cre, b, {s: 1}))
                rhs = apply(p2, cre, b, apply(p2, ann, a, {s: 1}))
                for k, v in rhs.items():
                    lhs[k] = lhs.get(k, 0) - v
                lhs = {k: v for k, v in lhs.items() if v}
                assert lhs == ({s: expect} if expect else {})


def test_a_built_manifold_is_read_only():
    # blocks assigned to X.pairing after construction would skip the
    # parse, and check_relations died on the raw list with AttributeError;
    # now the assignment itself raises, and X keeps its checked fields
    X = ManifoldData("p2", dim_c=2, hodge=[[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(AttributeError, match="read-only"):
        X.pairing = [{"degree": 2, "matrix": [[1]]},
                     {"degree": 0, "matrix": [[1]]}]
    assert X.pairing is None
    for field in ("name", "dim_real", "betti", "dim_c", "hodge", "hodge_b",
                  "calabi_yau", "m"):
        with pytest.raises(AttributeError):
            setattr(X, field, getattr(X, field))
    assert all(r.status == "pass" for r in fock.check_relations(X, 2))


def test_check_relations_small_spaces(catalog):
    for name, charge in (("point", 4), ("p2", 3)):
        results = fock.check_relations(catalog[name], charge)
        assert all(r.status == "pass" for r in results), name


def test_check_relations_odd_cohomology():
    results = fock.check_relations(ODD4, 3)
    assert all(r.status == "pass" for r in results)


def test_relation_check_peak_memory_stays_under_the_parent(catalog):
    # 205,730 bytes is the tracemalloc peak of this check on Python 3.11
    # when each application rehashed tuple states and the brackets went
    # through a dict per generator pair; numbered states, stored rows and a
    # top-charge row kept only between its first and last visit in one
    # bracket call read 155,222 (110,910 before traced_peak emptied the
    # free lists)
    k3 = catalog["k3"]
    fock.check_relations(k3, 2)  # the closed series' caches stay out
    assert traced_peak(lambda: fock.check_relations(k3, 2)) < 205_730


def test_relation_check_peak_memory_at_charge_3(catalog):
    # 1,248,000 bytes is 1.1 times the tracemalloc peak on Python 3.11 with
    # each top-charge row kept from its first to its last visit in one
    # bracket call; keeping every built row read 1,425,790 bytes, and
    # rebuilding each row at every visit 986,546, all read by traced_peak
    # after it empties the free lists.
    k3 = catalog["k3"]
    fock.check_relations(k3, 3)
    assert traced_peak(lambda: fock.check_relations(k3, 3)) < 1_248_000


@pytest.mark.parametrize("name, charge, total", [("k3", 3, 3752),
                                                 ("p2", 5, 273)])
def test_each_top_charge_row_is_built_once_per_bracket(
        catalog, monkeypatch, name, charge, total):
    # each bracket call's builds past its stored rows, one list per call;
    # total is the number of distinct (call, image) pairs.  Rebuilding at
    # every visit made 8,352 builds at k3 charge 3 and 348 at p2 charge 5.
    calls, violations = [], fock._violations

    def counted(A, B, *rest):
        rows, build = A
        built = []
        calls.append(built)

        def row(s):
            built.append(s)
            return build(s)
        return violations((rows, row), B, *rest)

    monkeypatch.setattr(fock, "_violations", counted)
    fock.check_relations(catalog[name], charge)
    assert all(len(set(built)) == len(built) for built in calls)
    assert sum(map(len, calls)) == total


@pytest.mark.parametrize("name, charge", [("k3", 3), ("p2", 5)])
def test_mirrored_brackets_run_once(catalog, monkeypatch, name, charge):
    # create/create and annihilate/annihilate run only at m <= n, told at
    # m = n that A is B; the mixed bracket runs at every (m, n)
    steps, calls, violations = {}, [], fock._violations
    rows = FockSpace.rows

    def labelled(space, step):
        build = rows(space, step)
        steps[build] = step
        return build

    def counted(A, B, *rest):
        calls.append((steps[A[1]], steps[B[1]], rest[4:]))
        return violations(A, B, *rest)

    monkeypatch.setattr(FockSpace, "rows", labelled)
    monkeypatch.setattr(fock, "_violations", counted)
    fock.check_relations(catalog[name], charge)
    levels = [(m, n) for m in range(1, charge)
              for n in range(1, charge - m + 1)]
    assert sorted(calls) == sorted(
        [(-m, n, ()) for m, n in levels]
        + [(s * m, s * n, (m == n,)) for m, n in levels if m <= n
           for s in (1, -1)])


def fock_verify(capsys, *argv):
    code = cli.main(["fock-verify", *argv])
    return code, capsys.readouterr().out


def test_fock_verify_p2_stdout(capsys):
    assert fock_verify(capsys, "--manifold", "p2", "--max-charge", "4") == (0, (
        "# fock-verify p2 max-charge=4\n"
        "PASS heisenberg mixed commutators (max charge 4)\n"
        "PASS create/create super-commutators vanish\n"
        "PASS annihilate/annihilate super-commutators vanish\n"
        "PASS compositional (Hopf) creation matches direct creation\n"
        "PASS Fock character = regraded sector series\n"
        "5 checks, 0 failed\n"
    ))


def drop_signs(monkeypatch, faulty_sign):
    """Make the creation (faulty_sign 1) or annihilation (-1) families
    return |coefficients|, dropping their Koszul signs; the row builder
    audits and numbers what they return."""
    name = "creators" if faulty_sign > 0 else "annihilators"
    build = getattr(FockSpace, name)

    def faulty(space, level):
        family = build(space, level)
        return lambda s: [(g, t, abs(c)) for g, t, c in family(s)]

    monkeypatch.setattr(FockSpace, name, faulty)


@pytest.mark.parametrize("faulty_sign, expected", [
    # creation loses the Koszul sign of odd generators
    (1, "FAIL heisenberg mixed commutators (max charge 3)\n"
        "  74 violations\n"
        "FAIL create/create super-commutators vanish\n"
        "  92 violations\n"
        "PASS annihilate/annihilate super-commutators vanish\n"
        "FAIL compositional (Hopf) creation matches direct creation\n"
        "  38 violations\n"
        "PASS Fock character = regraded sector series\n"
        "5 checks, 3 failed\n"),
    # annihilation loses the Koszul sign of odd generators
    (-1, "FAIL heisenberg mixed commutators (max charge 3)\n"
         "  106 violations\n"
         "PASS create/create super-commutators vanish\n"
         "FAIL annihilate/annihilate super-commutators vanish\n"
         "  12 violations\n"
         "PASS compositional (Hopf) creation matches direct creation\n"
         "PASS Fock character = regraded sector series\n"
         "5 checks, 2 failed\n"),
])
def test_check_relations_catches_a_dropped_sign(tmp_path, capsys, monkeypatch,
                                                faulty_sign, expected):
    # operators whose charge step has the given sign return |coefficients|:
    # the only signs they produce are Koszul signs, so those are dropped
    drop_signs(monkeypatch, faulty_sign)
    path = tmp_path / "odd4.json"
    path.write_text(json.dumps({"name": "odd4", "dim_real": 4,
                                "betti": [1, 2, 0, 2, 1]}))
    code, out = fock_verify(capsys, "--manifold", str(path),
                            "--max-charge", "3")
    assert code == 1
    assert out == "# fock-verify odd4 max-charge=3\n" + expected


# ------------------------------------------------------- per-pair oracle


def literal_counts(X, C):
    """Violation counts of the four operator checks by a literal loop over
    every (i, j, s), one generator's entry of each family at a time."""
    space = FockSpace(X, C)
    states = space.states
    gens = range(len(space.odd))
    cre = {n: space.rows(n) for n in range(1, C + 1)}
    ann = {m: space.rows(-m) for m in range(1, C)}

    def upto(c):
        return [s for s in states if state_charge(s) <= c]

    def bracket(A, B, domain, scalar):
        bad = 0
        for i in gens:
            for j in gens:
                eps = -1 if space.odd[i] and space.odd[j] else 1
                for s in domain:
                    lhs = apply(space, A, i, apply(space, B, j, {s: 1}))
                    for t, c in apply(space, B, j,
                                      apply(space, A, i, {s: 1})).items():
                        lhs[t] = lhs.get(t, 0) - eps * c
                    if lhs.pop(s, 0) != scalar(i, j) or any(lhs.values()):
                        bad += 1
        return bad

    mixed = cc = aa = 0
    for m in range(1, C):
        for n in range(1, C - m + 1):
            domain = upto(C - max(m, n))
            mixed += bracket(ann[m], cre[n], domain, lambda i, j: (
                m * space.eta.get((i, j), 0) if m == n else 0))
            cc += bracket(cre[m], cre[n], upto(C - m - n), lambda i, j: 0)
            aa += bracket(ann[m], ann[n], domain, lambda i, j: 0)
    hopf = sum(images(space, cre[m], s).get(i, {})
               != product(space, ((m, i),), s)
               for m in range(1, C + 1) for i in gens for s in upto(C - m))
    return [mixed, cc, aa, hopf]


def _betti_with_odd_classes(dim_real):
    """Poincare-symmetric Betti vectors with b_0 = 1, some odd class and at
    most six generators, two of them in one degree now and then."""
    half = dim_real // 2
    return st.lists(st.integers(0, 2), min_size=half, max_size=half).map(
        lambda low: [1] + low[:-1] + [low[-1]] + low[-2::-1] + [1]
    ).filter(lambda b: any(b[1::2]) and sum(b) <= 6)


def _pairing_blocks(betti):
    """User pairing blocks for a Poincare-symmetric Betti list, as
    pairing_from_blocks reads them: one random invertible block per pair of
    opposite degrees, the middle one symmetric (even d), entries integers or
    'a/b' strings.  A block of size two is seldom diagonal, so a class meets
    several partners."""
    d = len(betti) // 2
    entry = st.one_of(st.integers(-2, 2), st.tuples(
        st.integers(-3, 3), st.integers(2, 3)).map(lambda ab: "%d/%d" % ab))
    blocks = []
    for j in (j for j in range(d + 1) if betti[d + j]):
        n = betti[d + j]
        if j:
            rows = st.lists(st.lists(entry, min_size=n, max_size=n),
                            min_size=n, max_size=n)
        else:
            rows = st.lists(entry, min_size=n * n, max_size=n * n).map(
                lambda e, n=n: [[e[min(r, c) * n + max(r, c)]
                                 for c in range(n)] for r in range(n)])
        blocks.append(rows.filter(lambda m: manifold._invertible(
            [[manifold._parse_entry(x) for x in row] for row in m])).map(
            lambda m, j=j: {"degree": j, "matrix": m}))
    return st.tuples(*blocks).map(list)


@settings(max_examples=16, deadline=None)
@given(st.sampled_from([4, 8]).flatmap(
    lambda dim: st.tuples(st.just(dim), _betti_with_odd_classes(dim))),
    st.integers(1, 3), st.data())
def test_check_relations_counts_match_a_per_pair_loop(dim_betti, charge,
                                                      data):
    dim_real, betti = dim_betti
    pairing = data.draw(st.none() | _pairing_blocks(betti), label="pairing")
    X = ManifoldData("rand", dim_real=dim_real, betti=betti, pairing=pairing)
    # clean, either sign dropped, and annihilators that return nothing (so
    # the pairs with a nonzero expected scalar are untouched)
    for fault in (0, 1, -1, "mute"):
        with pytest.MonkeyPatch.context() as mp:
            if fault == "mute":
                mp.setattr(FockSpace, "annihilators",
                           lambda space, m: lambda s: ())
            elif fault:
                drop_signs(mp, fault)
            results = fock.check_relations(X, charge)
            counts = [int(r.lines[0].split()[0]) if r.status == "fail"
                      else 0 for r in results[:4]]
            assert counts == literal_counts(X, charge), (betti, fault)
            # any nondegenerate graded-symmetric pairing satisfies them
            if not fault:
                assert counts == [0, 0, 0, 0], (betti, X.pairing)


def first_partner_only(monkeypatch):
    """Make each factor of a state meet only its first pairing partner in
    the annihilation families."""
    build = FockSpace.annihilators

    def faulty(space, m):
        family = build(space, m)

        def first(s):
            # one factor's images all share one t, the state without it
            seen = set()
            for g, t, c in family(s):
                if t not in seen:
                    seen.add(t)
                    yield g, t, c
        return first

    monkeypatch.setattr(FockSpace, "annihilators", faulty)


def test_first_partner_only_annihilators_break_the_mixed_bracket(
        monkeypatch):
    # a non-diagonal middle block with an 'a/b' entry gives each middle
    # class two partners; the relations hold until one of them is dropped
    X = ManifoldData("two", dim_real=4, betti=[1, 0, 2, 0, 1], pairing=[
        {"degree": 2, "matrix": [[1]]},
        {"degree": 0, "matrix": [[1, 1], [1, "1/2"]]}])
    assert literal_counts(X, 3) == [0, 0, 0, 0]
    first_partner_only(monkeypatch)
    results = fock.check_relations(X, 3)
    counts = [int(r.lines[0].split()[0]) if r.status == "fail" else 0
              for r in results[:4]]
    assert counts[0] > 0 and counts == literal_counts(X, 3)


# ------------------------------------------------------------------ audit


@pytest.mark.parametrize("corrupt, message", [
    ("charge", r"create\(1\) violated its declared charge step"),
    ("degree", r"create\(1\) violated its declared degree step"),
    ("basis", r"create\(1\) violated its declared step: \(\(.*\)\) is "
              r"not an indexed basis state"),
])
def test_family_audit_failure_exits_1(capsys, monkeypatch, corrupt, message):
    # the creation families emit the input state itself (charge step 0),
    # file each image under the next generator (another degree step), or
    # reverse each image's factors (no basis state); the row builder, which
    # audits what they return, must refuse each
    build = FockSpace.creators

    def faulty(space, n):
        family = build(space, n)

        def wrong(s):
            if corrupt == "charge":
                return [(g, s, 1) for g, _, _ in family(s)]
            if corrupt == "degree":
                G = len(space.odd)
                return [((g + 1) % G, t, c) for g, t, c in family(s)]
            return [(g, t[::-1], c) for g, t, c in family(s)]
        return wrong

    monkeypatch.setattr(FockSpace, "creators", faulty)
    code = cli.main(["fock-verify", "--manifold", "p2", "--max-charge", "2"])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert re.search(message, err), err
    assert "Traceback" not in err and "KeyError" not in err
