from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symprod import orbifold as ob
from symprod.graded import BigradedDims, GradedDims
from symprod.orbifold import ManifoldData
from symprod.series import Series, specialize, substitute


def series_coeffs(s, order):
    """[coefficient of q^n] as plain dicts keyed by the residual monomial."""
    return [s.counting_coefficient(n) for n in range(order + 1)]


def scalar_coeffs(s, order):
    out = []
    for n in range(order + 1):
        c = s.counting_coefficient(n)
        assert all(k == (0,) * 5 for k in c), "nonscalar coefficient"
        out.append(c.get((0,) * 5, Fraction(0)))
    return out


def colored_partition_counts(colors, order):
    """Independent DP oracle for prod_l (1 - q^l)^(-colors)."""
    table = [1] + [0] * order
    for part in range(1, order + 1):
        for _ in range(colors):
            for n in range(part, order + 1):
                table[n] += table[n - part]
    return table


# ------------------------------------------------------------- manifold data


def test_from_hodge_derives_betti(catalog):
    k3 = catalog["k3"]
    assert k3.betti == GradedDims({0: 1, 4: 22, 8: 1})
    assert k3.euler() == 24
    assert k3.signature() == -16
    assert k3.arithmetic_genus() == 2


def test_betti_hodge_consistency_enforced():
    hodge = BigradedDims({(0, 0): 1, (2, 2): 1})
    with pytest.raises(ValueError):
        ManifoldData("bad", 2, GradedDims({0: 2}), dim_c=1, hodge=hodge)


def test_real_manifold_without_hodge():
    X = ManifoldData.from_betti("s4", 4, [1, 0, 0, 0, 1])
    assert X.euler() == 2
    assert ob.applicability("hodge_sym", X) is not None
    assert ob.applicability("euler_orb", X) is None


def test_cy_derives_b_table(catalog):
    elliptic = catalog["elliptic"]
    # d = 1 swaps the table rows; the elliptic table is row-symmetric
    assert elliptic.hodge_b == elliptic.hodge
    k3 = catalog["k3"]
    assert k3.hodge_b == k3.hodge


def test_derive_b_table_point(catalog):
    assert ob.derive_B_table(catalog["point"]) == BigradedDims({(0, 0): 1})


def test_derive_b_table_asymmetric():
    # a made-up CY-like table where the row swap is visible
    X = ManifoldData.from_hodge("toy", 1, [[1, 2], [2, 1]])
    got = ob.derive_B_table(X)
    assert got == BigradedDims({(2, 0): 1, (2, 2): 2, (0, 0): 2, (0, 2): 1})


# ------------------------------------------------------------------- genera


def test_genus_k3(catalog):
    k3 = catalog["k3"]
    assert ob.genus(k3.hodge, "signature") == -16
    assert ob.genus(k3.hodge, "arithmetic") == 2


def test_genus_point(catalog):
    pt = catalog["point"].hodge
    for which in ("signature", "arithmetic"):
        assert ob.genus(pt, which) == 1


def test_genus_rejects_half_integer_q_degree():
    w = BigradedDims({(1, 1): 1})
    with pytest.raises(ValueError):
        ob.genus(w, "signature")


def test_chi_minus_y_multiplicative():
    a = BigradedDims({(0, 0): 1, (2, 2): 3})
    b = BigradedDims({(0, 2): 2, (2, 0): 2})
    lhs = ob.chi_minus_y(a.tensor(b))
    rhs = ob.chi_minus_y(a) * ob.chi_minus_y(b)
    assert lhs == rhs


# ----------------------------------------------------------- sector assembly


def sector_coeff(kind, X, n):
    """The q^n coefficient of a brute series: the sum over cycle types."""
    return ob.brute_series(kind, X, n).counting_coefficient(n)


def dims_coeff(dims):
    """A dims table as a q^0 coefficient keyed like sector_coeff."""
    poly = dims.poincare_poly() if isinstance(dims, GradedDims) \
        else dims.hodge_poly()
    return poly.counting_coefficient(0)


def test_sector_dims_p1(catalog):
    p1 = catalog["p1"]
    assert sector_coeff("poincare_orb", p1, 2) == dims_coeff(
        GradedDims({0: 1, 2: 1, 4: 1, 6: 1, 8: 1}))
    assert sector_coeff("poincare_orb", p1, 0) == dims_coeff(GradedDims({0: 1}))
    assert sector_coeff("poincare_orb", p1, 1) == dims_coeff(p1.betti)


def test_sector_hodge_p1(catalog):
    got = sector_coeff("hodge_orb", catalog["p1"], 2)
    assert got == dims_coeff(BigradedDims(
        {(0, 0): 1, (1, 1): 1, (2, 2): 1, (3, 3): 1, (4, 4): 1}
    ))


def test_sector_hodge_elliptic_total(catalog):
    # identity sector Sym^2 of the 4-dimensional super space (dim 8: its
    # two odd classes square to zero) plus the 4-dimensional twisted copy
    got = sector_coeff("hodge_orb", catalog["elliptic"], 2)
    assert all(c > 0 for c in got.values()) and sum(got.values()) == 12
    assert catalog["elliptic"].hodge.sym_power(2).total_dim() == 8


def test_symprod_dims_p1_is_projective_space(catalog):
    got = catalog["p1"].betti.sym_power(3)
    assert got == GradedDims({0: 1, 4: 1, 8: 1, 12: 1})


def test_symprod_dims_genus2_total(catalog):
    # Sym^2 of a genus-2 curve has Betti numbers 1, 4, 7, 4, 1
    got = catalog["genus2"].betti.sym_power(2)
    assert got == GradedDims({0: 1, 2: 4, 4: 7, 6: 4, 8: 1})
    assert got.total_dim() == 17


# ---------------------------------------------------------------- spot values


def test_euler_orb_p1_counts_two_colored_partitions(catalog):
    got = ob.brute_series("euler_orb", catalog["p1"], 4)
    oracle = colored_partition_counts(2, 4)
    assert scalar_coeffs(got, 4) == oracle == [1, 2, 5, 10, 20]


def test_euler_orb_k3_hilbert_scheme_values(catalog):
    got = ob.closed_series("euler_orb", catalog["k3"], 4)
    oracle = colored_partition_counts(24, 4)
    assert scalar_coeffs(got, 4) == oracle
    assert oracle[:4] == [1, 24, 324, 3200]


def test_euler_sym_binomial_growth(catalog):
    got = ob.closed_series("euler_sym", catalog["k3"], 2)
    assert scalar_coeffs(got, 2) == [comb(n + 23, n) for n in range(3)]
    assert scalar_coeffs(got, 2)[2] == 300


def test_poincare_orb_p1_q2_coefficient(catalog):
    got = ob.brute_series("poincare_orb", catalog["p1"], 2)
    coeff = got.counting_coefficient(2)
    t_exps = sorted(k[2] // 2 for k in coeff)
    assert t_exps == [0, 1, 2, 3, 4]
    assert all(c == 1 for c in coeff.values())


def test_arith_sym_k3(catalog):
    got = ob.closed_series("arith_sym", catalog["k3"], 2)
    assert str(got) == "1 + 2*q + 3*q^2"


def test_sign_sym_p1_signatures_of_projective_spaces(catalog):
    got = ob.brute_series("sign_sym", catalog["p1"], 4)
    assert str(got) == "1 + q^2 + q^4"


def test_hodge_orb_k3_matches_hilbert_square_diamond(catalog):
    # classical Hodge diamond of the Hilbert square of a K3 surface
    got = sector_coeff("hodge_orb", catalog["k3"], 2)
    expect = {
        (0, 0): 1, (2, 0): 1, (1, 1): 21, (0, 2): 1,
        (4, 0): 1, (3, 1): 21, (2, 2): 232, (1, 3): 21, (0, 4): 1,
        (4, 2): 1, (3, 3): 21, (2, 4): 1, (4, 4): 1,
    }
    assert got == dims_coeff(BigradedDims(
        {(2 * p, 2 * q): h for (p, q), h in expect.items()}))


def test_constant_terms_are_one(catalog):
    for name, X in catalog.items():
        for kind in ob.SERIES_KINDS:
            if ob.applicability(kind, X):
                continue
            n = 3
            assert ob.brute_series(kind, X, n).constant_term() == 1
            assert ob.closed_series(kind, X, n).constant_term() == 1


def test_brute_coefficients_nonnegative_for_dimension_kinds(catalog):
    for kind in ("poincare_orb", "hodge_orb", "poincare_sym", "hodge_sym"):
        for name in ("p1", "elliptic", "k3"):
            X = catalog[name]
            s = ob.brute_series(kind, X, 4)
            assert all(c > 0 for c in s.terms.values())
            assert s.is_integral()


def test_dmvv_laurent_support_bounded_below(catalog):
    # at p^n the y-exponents reach no lower than -k*n
    for name in ("elliptic", "k3"):
        X = catalog[name]
        s = ob.brute_series("dmvv_q0", X, 5)
        k2 = X.dim_c
        for n in range(6):
            for key in s.counting_coefficient(n):
                assert key[4] >= -k2 * n  # doubled y-exponent


# ----------------------------------------------------------------- verify API


def test_verify_pass(catalog):
    r = ob.verify("euler_orb", catalog["p1"], 8)
    assert r.status == "pass"


def test_verify_skip(catalog):
    r = ob.verify("sign_orb", catalog["p1"], 4)
    assert r.status == "skip"


def test_verify_mismatch_carries_both_series():
    a = Series.term("q", 2, 1, {}) + Series.term("q", 2, 2, {"q": 1})
    b = Series.term("q", 2, 1, {}) + Series.term("q", 2, 3, {"q": 1})
    r = ob._compare("fabricated", a, b, "q")
    assert r.status == "fail"
    assert any("first mismatch" in line for line in r.lines)
    assert any("lhs:" in line for line in r.lines)


small = st.integers(min_value=0, max_value=2)


@st.composite
def small_manifolds(draw):
    """Random Betti tables (odd classes included) or Hodge tables with
    dim_C in {1, 2, 3} (odd dim_C gives half-integer sector shifts), the
    latter sometimes with an explicit B-table."""
    if draw(st.booleans()):
        dim_real = draw(st.sampled_from((0, 2, 4, 6)))
        betti = draw(st.lists(small, min_size=dim_real + 1,
                              max_size=dim_real + 1))
        return ManifoldData.from_betti("betti", dim_real, betti)
    d = draw(st.sampled_from((1, 2, 3)))
    row = st.lists(small, min_size=d + 1, max_size=d + 1)
    table = st.lists(row, min_size=d + 1, max_size=d + 1)
    return ManifoldData.from_hodge("hodge", d, draw(table),
                                   hodge_b_rows=draw(st.none() | table))


@settings(max_examples=15, deadline=None)
@given(small_manifolds(), st.integers(min_value=0, max_value=4))
def test_brute_equals_closed_on_random_tables(X, order):
    for kind in ob.SERIES_KINDS:
        if ob.applicability(kind, X) is None:
            assert ob.brute_series(kind, X, order) == \
                ob.closed_series(kind, X, order), kind


def test_kind_rejection(catalog):
    with pytest.raises(ValueError):
        ob.brute_series("hodge_orb_B", catalog["p1"], 2)
    with pytest.raises(ValueError):
        ob.brute_series("no_such_kind", catalog["p1"], 2)


def test_verify_all_point_passes(catalog):
    results = ob.verify_all(catalog["point"], order=5)
    assert all(r.status != "fail" for r in results)
    ran = [r for r in results if r.status != "skip"]
    assert len(ran) >= 20


# ------------------------------------------------- convention cross-instances


def test_arith_orb_point_formula_breaks_down(catalog):
    # For a zero-dimensional X every sector sits in bidegree (0, 0), so the
    # sector sum of arithmetic genera counts all partitions, while the
    # closed product formula (whose derivation needs dim_C >= 1) would give
    # 1/(1-q).  The kind is therefore gated on dim_C >= 1.
    pt = catalog["point"]
    assert ob.applicability("arith_orb", pt) is not None
    chiy = ob.brute_series("chiy_orb", pt, 4)
    got = specialize(chiy, {"y": 0})
    assert scalar_coeffs(got, 4) == colored_partition_counts(1, 4)


def test_poincare_vs_euler_gradings_differ_for_odd_m(catalog):
    # with odd-dimensional fixed-locus shifts the regraded Euler number of
    # the q^2 sector of P^1 is 1, while the sector-sum Euler number is 5
    p1 = catalog["p1"]
    regraded = specialize(ob.brute_series("poincare_orb", p1, 2), {"t": -1})
    plain = ob.brute_series("euler_orb", p1, 2)
    assert scalar_coeffs(regraded, 2) == [1, 2, 1]
    assert scalar_coeffs(plain, 2) == [1, 2, 5]


def test_chiy_orb_specializations(catalog):
    for name in ("p1", "k3"):
        X = catalog[name]
        chiy = ob.brute_series("chiy_orb", X, 5)
        assert specialize(chiy, {"y": 1}) == ob.brute_series("euler_orb", X, 5)
    k3 = catalog["k3"]
    chiy = ob.brute_series("chiy_orb", k3, 5)
    assert specialize(chiy, {"y": -1}) == ob.brute_series("sign_orb", k3, 5)


def test_hodge_orb_collapses_to_poincare_orb(catalog):
    for name in ("p1", "elliptic", "k3"):
        X = catalog[name]
        h = ob.brute_series("hodge_orb", X, 4)
        collapsed = substitute(substitute(h, "x", {"t": 1}), "y", {"t": 1})
        assert collapsed == ob.brute_series("poincare_orb", X, 4)


def test_dmvv_brute_is_substituted_chiy(catalog):
    k3 = catalog["k3"]
    chiy = ob.brute_series("chiy_orb", k3, 4)
    moved = substitute(chiy, "q", {"y": Fraction(-2, 2), "p": 1})
    assert moved == ob.brute_series("dmvv_q0", k3, 4)
