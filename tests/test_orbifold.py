import sys
from collections import Counter
from fractions import Fraction
from functools import cache, reduce
from inspect import CO_NEWLOCALS
from math import comb
from operator import add, mul
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (CATALOG_NAMES, counting_coefficient, cycle_types,
                      dsum, euler_number, shift, specialize, sym_power,
                      sym_power_oracle, tensor, traced_peak, twist, zero)
import symprod
from symprod import series
from symprod import orbifold as ob
from symprod.graded import GradedDims
from symprod.layouts import Kronecker
from symprod.manifold import InputError, ManifoldData, derive_B_table
from symprod.series import Series, plethystic_exp, substitute


def series_coeffs(s, order):
    """[coefficient of q^n] as plain dicts keyed by the residual monomial."""
    return [counting_coefficient(s, n) for n in range(order + 1)]


def scalar_coeffs(s, order):
    out = []
    for n in range(order + 1):
        c = counting_coefficient(s, n)
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
    assert k3.betti == GradedDims({(0, 0): 1, (4, 0): 22, (8, 0): 1})
    assert k3.euler() == 24
    assert ob.genus(k3.hodge, "signature") == -16
    assert ob.genus(k3.hodge, "arithmetic") == 2


def test_betti_hodge_consistency_enforced():
    with pytest.raises(ValueError):
        ManifoldData("bad", 2, [2], dim_c=1, hodge=[[1, 0], [0, 1]])


BETTI_S2 = [1, 0, 1]
P1_ROWS = [[1, 0], [0, 1]]


@pytest.mark.parametrize("build, message", [
    (lambda: ManifoldData("neg", 2, [1, -2, 1]), "nonnegative"),
    (lambda: ManifoldData("neg", dim_c=1, hodge=[[1, -1], [0, 1]]),
     "nonnegative"),
    (lambda: ManifoldData("neg", dim_c=1, hodge=P1_ROWS,
                          hodge_b=[[1, 0], [-1, 1]]),
     "nonnegative"),
    (lambda: ManifoldData("high", 2, [1, 0, 0, 1]),
     "Betti degree out of range"),
    (lambda: ManifoldData("high", 2, BETTI_S2, dim_c=1,
                          hodge=[[1, 0, 1], [0, 0, 0], [0, 0, 0]]),
     "hodge must be a 2 x 2 table"),
    (lambda: ManifoldData("high", 2, BETTI_S2, dim_c=1, hodge=P1_ROWS,
                          hodge_b=[[0, 0, 0], [0, 0, 0], [1, 0, 0]]),
     "hodgeB must be a 2 x 2 table"),
    (lambda: ManifoldData("none"), "need one of 'betti' or 'hodge'"),
    (lambda: ManifoldData("s2", betti=BETTI_S2, dim_c=1),
     "a Betti vector needs dim_real"),
    (lambda: ManifoldData("pt", 0, hodge=[[1]]),
     "a Hodge table needs dim_c"),
    (lambda: ManifoldData("s2", 2, BETTI_S2, dim_c=5),
     "dim_real inconsistent with dim_c"),
    (lambda: ManifoldData("pt", 2, dim_c=0, hodge=[[1]]),
     "dim_real inconsistent with dim_c"),
    (lambda: ManifoldData("s2", 2, BETTI_S2, calabi_yau=True),
     "a Calabi-Yau input needs a Hodge table"),
    (lambda: ManifoldData("s2", 2, BETTI_S2, hodge_b=P1_ROWS),
     "a B-table needs a Hodge table"),
    (lambda: ManifoldData("x", dim_c=1, hodge=[[1.5, 0], [0, 1]]),
     "hodge must be a 2 x 2 table of nonnegative integers"),
    (lambda: ManifoldData("y", 2, [True, 0, 1]),
     "betti must be a list of nonnegative integers"),
    (lambda: ManifoldData("y", 2.0, BETTI_S2),
     "dim_real must be a nonnegative integer"),
    (lambda: ManifoldData("x", dim_c=True, hodge=P1_ROWS),
     "dim_c must be a nonnegative integer"),
], ids=["negative betti", "negative hodge", "negative hodgeB", "betti high",
        "hodge high", "hodgeB high", "no table", "betti without dim_real",
        "hodge without dim_c", "betti with another dim_c",
        "hodge with another dim_real", "calabi_yau without hodge",
        "hodgeB without hodge", "float entry", "bool entry",
        "float dim_real", "bool dim_c"])
def test_validate_rejects_bad_tables(build, message):
    # the rows enter through GradedDims.from_rows; ManifoldData is the
    # boundary for files and library callers alike
    with pytest.raises(ValueError, match=message):
        build()


def test_dim_c_on_real_input_is_checked_and_dropped():
    # the manifold reader's rule, on the library path too: without a Hodge
    # table a consistent dim_c is dropped, so no surface default order
    # applies to a real manifold
    X = ManifoldData("s4", 4, BETTI_S2, dim_c=2)
    assert X.dim_c is None
    assert ob.default_order("hodge_orb", X) == 8


def test_real_manifold_without_hodge():
    X = ManifoldData("s4", dim_real=4, betti=[1, 0, 0, 0, 1])
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
    assert derive_B_table(catalog["point"]) == GradedDims({(0, 0): 1})


def test_derive_b_table_asymmetric():
    # a made-up CY-like table where the row swap is visible
    X = ManifoldData("toy", dim_c=1, hodge=[[1, 2], [2, 1]])
    got = derive_B_table(X)
    assert got == GradedDims({(2, 0): 1, (2, 2): 2, (0, 0): 2, (0, 2): 1})


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
    w = GradedDims({(1, 1): 1})
    with pytest.raises(ValueError):
        ob.genus(w, "signature")


def test_chi_minus_y_multiplicative():
    a = GradedDims({(0, 0): 1, (2, 2): 3})
    b = GradedDims({(0, 2): 2, (2, 0): 2})
    lhs = ob.chi_minus_y(tensor(a, b))
    rhs = ob.chi_minus_y(a) * ob.chi_minus_y(b)
    assert lhs == rhs


# ----------------------------------------------------------- sector assembly


def sector_coeff(kind, X, n):
    """The q^n coefficient of a brute series: the sum over cycle types."""
    return counting_coefficient(ob.brute_series(kind, X, n), n)


def dims_coeff(dims, x):
    """A dims table as a q^0 coefficient keyed like sector_coeff: its
    Poincare polynomial with x = "t", its Hodge polynomial with x = "x"."""
    return counting_coefficient(dims.poly(x), 0)


def test_sector_dims_p1(catalog):
    p1 = catalog["p1"]
    assert sector_coeff("poincare_orb", p1, 2) == dims_coeff(GradedDims(
        {(0, 0): 1, (2, 0): 1, (4, 0): 1, (6, 0): 1, (8, 0): 1}), "t")
    assert sector_coeff("poincare_orb", p1, 0) == dims_coeff(
        GradedDims({(0, 0): 1}), "t")
    assert sector_coeff("poincare_orb", p1, 1) == dims_coeff(p1.betti, "t")


def test_sector_hodge_p1(catalog):
    got = sector_coeff("hodge_orb", catalog["p1"], 2)
    assert got == dims_coeff(GradedDims(
        {(0, 0): 1, (1, 1): 1, (2, 2): 1, (3, 3): 1, (4, 4): 1}
    ), "x")


def test_sector_hodge_elliptic_total(catalog):
    # identity sector Sym^2 of the 4-dimensional super space (dim 8: its
    # two odd classes square to zero) plus the 4-dimensional twisted copy
    got = sector_coeff("hodge_orb", catalog["elliptic"], 2)
    assert all(c > 0 for c in got.values()) and sum(got.values()) == 12
    assert sum(sym_power(catalog["elliptic"].hodge, 2).dims.values()) == 8


def q_power(c, order, n):
    """c q^n, truncated at order."""
    return c * Series.term("q", order, 1, {"q": n})


def block_series(layout, block, n, order=None, var="q"):
    """A block of degree n, an int or a factor of mul_add, as a series in
    var: a factor (a shift and (shift, coeff) pairs above it) is first
    summed to one int."""
    if type(block) is not int:
        block = sum(c << s for s, c in block[1]) << block[0]
    return Series.from_layout(var, order, layout, [0] * n + [block])


def cycle_type_sector_sum(order, cycles, level, layout, var="q"):
    """The sector picture term by term: for each n, a fresh product
    prod_l block(l, N_l) q^(l N_l) per cycle type of S_n with no cycle
    longer than cycles, summed.  Each block(l, N) is the top of its own
    level(l, N), so each Sym^N comes from its own DP, not from the one DP
    per level of _sector_sum; it is read into a Series at its power of
    var, so the products multiply 5-tuple keys, not codes or packed ints."""
    block = cache(lambda l, nl: block_series(layout, level(l, nl)[nl],
                                             l * nl, order, var))

    def sectors(n):
        terms = [reduce(mul, (block(l, nl) for l, nl in ct.items()),
                        block(1, 0))
                 for ct in cycle_types(n) if all(l <= cycles for l in ct)]
        return reduce(add, terms)

    return reduce(add, (sectors(n) for n in range(order + 1)))


def test_sector_sum_counts_partitions():
    # every block is the int 1 on a one-slot layout (a factor at l >= 2),
    # and each level shares one list
    lay = Kronecker([(1, (0,) * 5)], 8, 22)
    ones = lambda l, count: [1 if l == 1 else lay.factor(1)] * (count + 1)
    got = ob._sector_sum(8, 8, ones, lay)
    assert scalar_coeffs(got, 8) == [1, 1, 2, 3, 5, 7, 11, 15, 22]
    # partitions into parts of length at most 1 and at most 2
    got = ob._sector_sum(8, 1, ones, lay)
    assert scalar_coeffs(got, 8) == [1] * 9
    got = ob._sector_sum(8, 2, ones, lay)
    assert scalar_coeffs(got, 8) == [1, 1, 2, 2, 3, 3, 4, 4, 5]


# Hodge tables need not be symmetric: the Hopf surface S^1 x S^3 is not
# Kahler, and has h^{0,1} = 1 but h^{1,0} = 0.
HOPF = ManifoldData("hopf", dim_c=2, hodge=[[1, 1, 0], [0, 0, 1], [0, 0, 1]])


def layouts_chosen(monkeypatch):
    """The layout of every brute sector sum and plethystic_exp from now on,
    in a list."""
    seen = []
    for module, name in ((ob, "sector_layout"), (series, "Kronecker")):
        def record(*args, pick=getattr(module, name)):
            seen.append(pick(*args))
            return seen[-1]
        monkeypatch.setattr(module, name, record)
    return seen


@pytest.mark.parametrize("name", CATALOG_NAMES + ("hopf",))
def test_sector_sum_matches_the_cycle_type_sum(catalog, monkeypatch, name):
    # every applicable brute series up to order 8 against the cycle-type
    # oracle
    X = catalog[name] if name in catalog else HOPF
    kinds = [k for k in ob.SERIES_KINDS if ob.applicability(k, X) is None]
    got = {(k, n): ob.brute_series(k, X, n) for k in kinds for n in range(9)}
    monkeypatch.setattr(ob, "_sector_sum", cycle_type_sector_sum)
    for (kind, n), s in got.items():
        assert ob.brute_series(kind, X, n) == s, (kind, n)


@pytest.mark.parametrize("order", (12, 16))
def test_k3_hodge_orb_takes_the_dense_path_on_both_sides(catalog, monkeypatch,
                                                          order):
    seen = layouts_chosen(monkeypatch)
    b = ob.brute_series("hodge_orb", catalog["k3"], order)
    c = ob.closed_series("hodge_orb", catalog["k3"], order)
    assert [type(layout) for layout in seen] == [Kronecker, Kronecker]
    assert b == c


@st.composite
def sparse_hodge_manifolds(draw):
    """Hodge tables of dim_C 1, 2 or 3 with at most four nonzero entries,
    each 1 or 2: odd classes where p + q is odd, and half-integer sector
    shifts at odd dim_C, on a basis the oracle can enumerate."""
    d = draw(st.sampled_from((1, 2, 3)))
    cell = st.integers(0, d)
    entries = draw(st.dictionaries(st.tuples(cell, cell), st.integers(1, 2),
                                   max_size=4))
    return ManifoldData("sparse", dim_c=d, hodge=[
        [entries.get((p, q), 0) for q in range(d + 1)] for p in range(d + 1)])


def oracle_block(kind, X, l, N):
    """block(l, N) of a kind from the basis of Sym^N (sym_power_oracle) of
    the table regraded for N l-cycles, at q^(l N): the regraded Hodge or
    Poincare polynomial, or the genus image times its sector weight; the
    dmvv_q0 block sits at p^(l N), its sector weight y^(k m N) cancelled
    by the y^(-k l N) of q -> p y^(-k) to one y^(-k) per cycle."""
    d, m = X.dim_c, l - 1
    at = Series.term("q", None, 1, {"q": l * N})
    if kind == "hodge_orb":
        return sym_power_oracle(shift(X.hodge, m * d, m * d), N).poly("x") * at
    if kind == "poincare_orb":
        return sym_power_oracle(shift(X.betti, 2 * m * X.m), N).poly("t") * at
    S = sym_power_oracle(X.hodge, N)
    if kind == "euler_orb":
        return euler_number(S) * at
    if kind == "sign_orb":
        return ob.genus(S, "signature") * (-1) ** (d // 2 * m * N) * at
    if kind == "arith_orb":  # y^(k m N) at y = 0
        return ob.genus(S, "arithmetic") * int(d * m * N == 0) * at
    if kind == "dmvv_q0":
        return ob.chi_minus_y(S, "p") * Series.term(
            "p", None, 1, {"p": l * N, "y": Fraction(-d * N, 2)})
    return ob.chi_minus_y(S) * Series.term(
        "q", None, 1, {"q": l * N, "y": Fraction(d * m * N, 2)})


@settings(max_examples=60, deadline=None)
@given(sparse_hodge_manifolds(),
       st.sampled_from(("hodge_orb", "poincare_orb", "euler_orb",
                        "chiy_orb", "arith_orb", "sign_orb", "dmvv_q0")))
# a curve with arithmetic genus 1, so twisted arith blocks must vanish, and
# a curve with odd classes and half-integer y^(-k) in p
@example(ManifoldData("p1", dim_c=1, hodge=[[1, 0], [0, 1]]), "arith_orb")
@example(ManifoldData("curve", dim_c=1, hodge=[[1, 2], [2, 1]]), "dmvv_q0")
def test_level_blocks_are_the_symmetric_powers_of_the_basis(X, kind):
    # every block(l, N) that a kind's levels hand to _sector_sum against
    # the basis enumeration of its regraded Sym^N
    assume(ob.applicability(kind, X) is None)
    order, seen = 4, []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ob, "_sector_sum",
                   lambda order, cycles, level, layout, var="q": seen.append(
                       (level, layout, var)) or zero(var, order))
        ob.brute_series(kind, X, order)
    [(level, layout, var)] = seen
    for l in range(1, order + 1):
        for N, block in enumerate(level(l, order // l)):
            assert block_series(layout, block, l * N, var=var) == \
                oracle_block(kind, X, l, N), (l, N)


@pytest.mark.parametrize("build, bound", ((ob.brute_series, 728_000),
                                          (ob.closed_series, 800_000)))
def test_dense_hodge_orb_peak_memory(catalog, build, bound):
    # on the Kronecker layout; Python 3.11 read 633,307 bytes (brute) and
    # 696,244 (closed) when the bounds were set at 1.15 times that.  In a
    # fresh process it reads 203,095 and 232,623 now, with the result held
    # packed, and read 544,907 and 587,055 with its dict built at once
    k3 = catalog["k3"]
    build("hodge_orb", k3, 16)  # first calls also fill interpreter caches
    assert traced_peak(lambda: build("hodge_orb", k3, 16)) <= bound


def test_printing_peak_memory(catalog):
    # the text of a series is each hodge_deep job's memory peak; the factor
    # texts made once per call must not raise it.  The bound is 1.25 times
    # the 350,457 bytes that str() of brute k3 hodge_orb at order 16 read
    # on Python 3.11 with a factor text per term; it read 358,204 from
    # the sorted keys of a dict and reads 344,420 from the key columns
    b = ob.brute_series("hodge_orb", catalog["k3"], 16)
    str(b)  # the first call also fills interpreter caches
    assert traced_peak(lambda: str(b)) <= 438_071


def test_brute_peak_memory_stays_within_one_top_power(catalog):
    # the genus kinds run their DP on the class images: sign_orb on k3 at
    # order 18 holds a few one-slot ints per power (4,516 bytes on Python
    # 3.11).  The bound is 1.25 times the tracemalloc peak of
    # k3.hodge.sym_power(18) on the dict DP of the first layouts (267,788
    # to 357,108 bytes), at the low end; sign_orb read 15,383 bytes there.
    # sym_power(18) itself now reads 141,526 bytes
    k3 = catalog["k3"]
    assert traced_peak(lambda: ob.brute_series("sign_orb", k3, 18)) \
        <= 334_735


def test_brute_levels_pack_each_power_as_it_is_yielded(catalog, monkeypatch):
    # hodge_orb builds each level by one DP on the layout's packed ints,
    # with no unpacked power alive.  The levels are built and dropped
    # without the product, whose result would outweigh them.
    k3 = catalog["k3"]

    def levels_only(order, cycles, level, layout, var="q"):
        for l in range(1, cycles + 1):
            level(l, order // l)

    monkeypatch.setattr(ob, "_sector_sum", levels_only)
    levels = lambda: ob.brute_series("hodge_orb", k3, 16)
    levels()  # the first call also allocates the interpreter's caches
    # 2.75 times the 143,704-byte tracemalloc peak of k3.hodge.sym_power(16)
    # on the dict DP of the first layouts (Python 3.11); the levels read
    # 244,770 bytes there and 122,039 now, and sym_power(16) 101,438
    assert traced_peak(levels) <= 395_186


def test_sym_power_peak_memory(catalog):
    # Sym^18 of the k3 Hodge table, one DP on the ints of its sector
    # layout, reads 141,526 bytes on Python 3.11.  The bound leaves 1.75
    # times that, well under the 845,084 bytes of a DP that keeps every
    # lower power as a {code: coeff} map and copies the map it grows
    k3 = catalog["k3"]
    sym_power(k3.hodge, 18)  # the first call also fills interpreter caches
    assert traced_peak(lambda: sym_power(k3.hodge, 18)) <= 250_000


def test_symprod_dims_p1_is_projective_space(catalog):
    got = sym_power(catalog["p1"].betti, 3)
    assert got == GradedDims({(0, 0): 1, (4, 0): 1, (8, 0): 1, (12, 0): 1})


def test_symprod_dims_genus2_total(catalog):
    # Sym^2 of a genus-2 curve has Betti numbers 1, 4, 7, 4, 1
    got = sym_power(catalog["genus2"].betti, 2)
    assert got == GradedDims(
        {(0, 0): 1, (2, 0): 4, (4, 0): 7, (6, 0): 4, (8, 0): 1})
    assert sum(got.dims.values()) == 17


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


def all_even_blocks(T, image=lambda p, q, s: ((0, 0, 0, p, q), s)):
    """GradedDims.blocks with every class even (super sign s = 1)."""
    merged = Counter()
    for (p, q), b in T.dims.items():
        merged[image(p, q, 1)] += b
    return [(key, e, a) for (key, a), e in merged.items() if e]


@pytest.mark.parametrize("kind, name", [("euler_orb", "elliptic"),
                                        ("euler_sym", "genus2"),
                                        ("sign_orb", "abelian")])
def test_closed_euler_numbers_do_not_read_the_brute_super_signs(
        catalog, monkeypatch, kind, name):
    # only the brute side reads blocks' signs; the closed kinds take the
    # Euler number from ManifoldData.euler, so the mutation shows up
    X = catalog[name]
    assert ob.verify(kind, X, 6).status == "pass"
    monkeypatch.setattr(GradedDims, "blocks", all_even_blocks)
    assert X.euler() == {"elliptic": 0, "genus2": -2, "abelian": 0}[name]
    assert ob.verify(kind, X, 6).status == "fail"


def test_euler_sym_binomial_growth(catalog):
    got = ob.closed_series("euler_sym", catalog["k3"], 2)
    assert scalar_coeffs(got, 2) == [comb(n + 23, n) for n in range(3)]
    assert scalar_coeffs(got, 2)[2] == 300


def test_poincare_orb_p1_q2_coefficient(catalog):
    got = ob.brute_series("poincare_orb", catalog["p1"], 2)
    coeff = counting_coefficient(got, 2)
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
    assert got == dims_coeff(GradedDims(
        {(2 * p, 2 * q): h for (p, q), h in expect.items()}), "x")


def test_constant_terms_are_one(catalog):
    for name, X in catalog.items():
        for kind in ob.SERIES_KINDS:
            if ob.applicability(kind, X):
                continue
            for build in (ob.brute_series, ob.closed_series):
                assert counting_coefficient(build(kind, X, 3), 0) \
                    == {(0, 0, 0, 0, 0): 1}


def test_catalog_series_hold_only_int_coefficients(catalog):
    # integer generating functions are computed in plain int arithmetic
    for X in catalog.values():
        for kind in ob.SERIES_KINDS:
            if ob.applicability(kind, X):
                continue
            order = ob.default_order(kind, X)
            for build in (ob.brute_series, ob.closed_series):
                types = {type(c) for c in build(kind, X, order).terms.values()}
                assert types == {int}, (kind, X.name, build.__name__, types)


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
            for key in counting_coefficient(s, n):
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
    r = ob._compare("fabricated", a, b)
    assert r.status == "fail"
    assert any("first mismatch" in line for line in r.lines)
    assert any("lhs:" in line for line in r.lines)


def test_mismatch_report_is_bounded():
    # 3 powers of q times 31 powers of t: 93 terms a side, all differing
    pairs = [(1, {"t": j, "q": i}) for i in range(3) for j in range(31)]
    a = Series.from_terms("q", 2, pairs)
    b = Series.from_terms("q", 2, [(2, exps) for _, exps in pairs])
    r = ob._compare("fabricated", a, b)
    more = " \u2026 (%d more terms)" % (93 - ob.DUMP_TERMS)
    assert r.lines[:2] == [
        "first mismatch at 1: 1 vs 2",
        "differing coefficients per power of q: q^0: 31, q^1: 31, q^2: 31"]
    for line, s in zip(r.lines[2:], (a, b)):
        head = line[len("lhs: "):-len(more)]
        assert line.endswith(more) and str(s).startswith(head + " + ")
        assert head.count(" + ") == ob.DUMP_TERMS - 1
    assert len(r.lines) == 4


small = st.integers(min_value=0, max_value=2)


@st.composite
def hodge_manifolds(draw):
    """Random Hodge tables with dim_C in {1, 2, 3} (odd dim_C gives
    half-integer sector shifts), sometimes with an explicit B-table."""
    d = draw(st.sampled_from((1, 2, 3)))
    row = st.lists(small, min_size=d + 1, max_size=d + 1)
    table = st.lists(row, min_size=d + 1, max_size=d + 1)
    return ManifoldData("hodge", dim_c=d, hodge=draw(table),
                        hodge_b=draw(st.none() | table))


@st.composite
def small_manifolds(draw):
    """Random Betti tables (odd classes included) or Hodge tables."""
    if draw(st.booleans()):
        dim_real = draw(st.sampled_from((0, 2, 4, 6)))
        betti = draw(st.lists(small, min_size=dim_real + 1,
                              max_size=dim_real + 1))
        return ManifoldData("betti", dim_real=dim_real, betti=betti)
    return draw(hodge_manifolds())


@settings(max_examples=15, deadline=None)
@given(small_manifolds(), st.integers(min_value=0, max_value=4))
def test_brute_equals_closed_on_random_tables(X, order):
    for kind in ob.SERIES_KINDS:
        if ob.applicability(kind, X) is None:
            assert ob.brute_series(kind, X, order) == \
                ob.closed_series(kind, X, order), kind


entry = st.integers(min_value=0, max_value=40)


@st.composite
def integer_manifolds(draw):
    """Random Betti tables, or Hodge tables of dim_C 0 to 4 (odd ones and
    asymmetric ones included), with or without an explicit B-table."""
    if draw(st.booleans()):
        dim_real = 2 * draw(st.integers(0, 4))
        return ManifoldData("betti", dim_real=dim_real, betti=draw(st.lists(
            entry, min_size=dim_real + 1, max_size=dim_real + 1)))
    d = draw(st.integers(0, 4))
    row = st.lists(entry, min_size=d + 1, max_size=d + 1)
    table = st.lists(row, min_size=d + 1, max_size=d + 1)
    return ManifoldData("hodge", dim_c=d, hodge=draw(table),
                        hodge_b=draw(st.none() | table))


@settings(max_examples=60, deadline=None)
@given(integer_manifolds(), st.integers(min_value=0, max_value=3))
def test_single_particle_series_are_integral_on_integer_tables(X, order):
    # plethystic_exp refuses a Fraction coefficient, so every closed form
    # needs an integral f.  The one candidate, (chi -+ sgn)/2 of _sign_f,
    # is an integer: chi - sgn and chi + sgn are twice a sum of Hodge
    # numbers.  So closed_series never raises SeriesUsageError, and the
    # CLI keeps its exit codes
    for kind, spec in ob.KINDS.items():
        if ob.applicability(kind, X) is None:
            f = spec.single(X, getattr(X, spec.table), order,
                            spec.cycles or order)
            assert f.is_integral(), kind
            assert ob.closed_series(kind, X, order).is_integral(), kind


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


# The kinds in their published order; the first four need Betti numbers only.
PUBLISHED_KINDS = (
    "euler_sym", "euler_orb", "poincare_sym", "poincare_orb", "hodge_sym",
    "hodge_orb", "chiy_sym", "chiy_orb", "arith_sym", "arith_orb", "sign_sym",
    "sign_orb", "hodge_sym_B", "chiy_sym_B", "hodge_orb_B", "chiy_orb_B",
    "gottsche_poincare", "gottsche_hodge", "dmvv_q0", "dmvv_q0_B",
)


@pytest.mark.parametrize("dim_real, betti, crosses", [
    # S^4 has even m = 2, so only the t = -1 identity applies
    (4, [1, 0, 0, 0, 1], [("cross poincare_orb(t=-1) = euler_orb", "pass")]),
    (2, [1, 2, 1], []),
])
def test_verify_all_on_betti_only_input(dim_real, betti, crosses):
    X = ManifoldData("X", dim_real=dim_real, betti=betti)
    got = [(r.name, r.status) for r in ob.verify_all(X)]
    assert got == [("%s order 8" % kind, "pass" if i < 4 else "skip")
                   for i, kind in enumerate(PUBLISHED_KINDS)] + crosses


# ------------------------------------------------------- the run's build memo

# The CY3 that perfbench/workloads.py draws for seed 1, and a surface whose
# explicit B-table differs from its Hodge table.
SEED1_CY3 = ManifoldData(
    "cy3", dim_c=3,
    hodge=[[1, 0, 0, 1], [0, 4, 113, 0], [0, 113, 4, 0], [1, 0, 0, 1]],
    calabi_yau=True)
SURFACE_WITH_B = ManifoldData(
    "surface_b", dim_c=2, hodge=[[1, 0, 1], [0, 20, 0], [1, 0, 1]],
    hodge_b=[[1, 0, 0], [0, 3, 1], [2, 0, 1]])


def counted_builds(monkeypatch):
    """The (route, kind, order) of every brute_series and closed_series
    call from here on."""
    builds = []
    for name in ("brute_series", "closed_series"):
        def counted(kind, X, order, route=getattr(ob, name), name=name):
            builds.append((name, kind, order))
            return route(kind, X, order)
        monkeypatch.setattr(ob, name, counted)
    return builds


def test_verify_all_builds_each_distinct_series_once(catalog, monkeypatch):
    # keyed by kind name the memo made 40 builds on k3 and 256 across the
    # catalog: gottsche_* repeat the brute hodge_orb and poincare_orb, and
    # on Calabi-Yau input whose B-table equals the Hodge table every _B
    # kind repeats its plain kind
    builds = counted_builds(monkeypatch)
    ob.verify_all(catalog["k3"])
    assert len(builds) == 28
    for name in CATALOG_NAMES:
        if name != "k3":
            ob.verify_all(catalog[name])
    assert len(builds) == 208


def used_series(monkeypatch):
    """The (route, kind, order, series) of every memo request from here
    on, hits included."""
    used, series_of = [], ob._series_of

    def recording(X):
        built = series_of(X)

        def request(build, kind, order):
            series = built(build, kind, order)
            used.append((build, kind, order, series))
            return series
        return request
    monkeypatch.setattr(ob, "_series_of", recording)
    return used


@pytest.mark.parametrize("X", [SEED1_CY3, SURFACE_WITH_B],
                         ids=lambda X: X.name)
def test_B_series_are_built_on_the_B_table(X, monkeypatch):
    # the memo key holds the table's contents: where the B-table differs
    # from the Hodge table, no _B kind gets a series of its plain kind
    assert X.hodge_b.dims != X.hodge.dims
    used = used_series(monkeypatch)
    assert all(r.status != "fail" for r in ob.verify_all(X))
    checked = Counter()
    for build, kind, order, series in used:
        if kind.endswith("_B"):
            assert series == build(kind, X, order), (build.__name__, kind)
            checked[build.__name__] += 1
    assert checked == {"brute_series": 5, "closed_series": 5}


def test_no_cross_check_compares_a_build_with_itself(catalog):
    for X in [*catalog.values(), SEED1_CY3, SURFACE_WITH_B]:
        for name, route, lhs, _, rhs, _ in ob.CROSS_CHECKS:
            n = ob.default_order(lhs, X)
            assert ob._build_key(X, route, lhs, n) != \
                ob._build_key(X, route, rhs, n), (X.name, name)


def test_a_matching_key_still_checks_applicability(catalog):
    # on a curve the brute gottsche_hodge reads what the brute hodge_orb
    # reads, but a Hilbert-scheme series needs a surface
    X = catalog["elliptic"]
    built = ob._series_of(X)
    assert ob._build_key(X, ob.brute_series, "gottsche_hodge", 3) == \
        ob._build_key(X, ob.brute_series, "hodge_orb", 3)
    built(ob.brute_series, "hodge_orb", 3)
    with pytest.raises(InputError, match="need a surface"):
        built(ob.brute_series, "gottsche_hodge", 3)


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


def check_dmvv_rekeys_chiy(X, order):
    """dmvv_q0 brute, summed in p, is chiy_orb brute re-keyed by
    q -> p y^(-k), k = dim_C/2: q^n y^r goes to p^n y^(r - kn).  Both
    tables, where the kinds apply."""
    for suffix in ("", "_B"):
        if ob.applicability("dmvv_q0" + suffix, X) is None:
            chiy = ob.brute_series("chiy_orb" + suffix, X, order)
            moved = Series("p", order, {
                (0, n, t, x, y - X.dim_c * n // 2): c
                for (n, _, t, x, y), c in chiy.terms.items()})
            assert ob.brute_series("dmvv_q0" + suffix, X, order) == moved, \
                (suffix, order)


def check_arith_is_chiy_at_zero(X, order):
    """arith brute is chiy brute at y = 0, for both families."""
    for family in ("_sym", "_orb"):
        if ob.applicability("arith" + family, X) is None:
            chiy = ob.brute_series("chiy" + family, X, order)
            assert ob.brute_series("arith" + family, X, order) == \
                specialize(chiy, {"y": 0}), (family, order)


def test_dmvv_brute_is_substituted_chiy(catalog):
    for name in CATALOG_NAMES:  # every catalog input has a Hodge table
        check_dmvv_rekeys_chiy(catalog[name], 6)


def test_arith_brute_is_chiy_brute_at_y_zero(catalog):
    for name in CATALOG_NAMES:
        check_arith_is_chiy_at_zero(catalog[name], 8)


@settings(max_examples=25, deadline=None)
@given(hodge_manifolds(), st.integers(min_value=0, max_value=5))
def test_dmvv_and_arith_brute_are_chiy_brute_on_random_tables(X, order):
    check_dmvv_rekeys_chiy(X, order)
    check_arith_is_chiy_at_zero(X, order)


def test_brute_route_substitutes_nothing(catalog, monkeypatch):
    # every brute kind is one sector sum: no specialization or substitution
    # of another kind's series on the way
    def refuse(*args):
        raise AssertionError("the brute route substituted")

    monkeypatch.setattr(series, "substitute", refuse)
    monkeypatch.setattr(ob, "substitute", refuse)
    X = catalog["k3"]
    for kind in ob.SERIES_KINDS:
        if ob.applicability(kind, X) is None:
            ob.brute_series(kind, X, 4)


# ----------------------------------------------------------- Sym^n(X) kinds

# Each Sym^n(X) kind as its own literal sum sum_n q^n INV(Sym^n V), V the
# table it reads: (V(X), INV).  Its closed form is Macdonald's PE[INV(V) q],
# super-signed for the twisted kinds, except that the signature is the
# y -> -1 corner of chi_(-y), where psi_2 sends y to 1, so its
# single-particle series is s q + (e - s)/2 q^2.
SYM_ORACLES = {
    "euler_sym": (lambda X: X.betti, euler_number),
    "poincare_sym": (lambda X: X.betti, lambda V: V.poly("t")),
    "hodge_sym": (lambda X: X.hodge, lambda V: V.poly("x")),
    "chiy_sym": (lambda X: X.hodge, ob.chi_minus_y),
    "arith_sym": (lambda X: X.hodge, lambda V: ob.genus(V, "arithmetic")),
    "sign_sym": (lambda X: X.hodge, lambda V: ob.genus(V, "signature")),
    "hodge_sym_B": (lambda X: X.hodge_b, lambda V: V.poly("x")),
    "chiy_sym_B": (lambda X: X.hodge_b, ob.chi_minus_y),
}
TWISTED_SYM = ("poincare_sym", "hodge_sym", "hodge_sym_B")


def sym_powers_by_fold(V, top):
    """(Sym^0 V, ..., Sym^top V), folded in one class at a time with
    conftest's dsum and tensor, no layouts code: Sym^N (U + L) is the sum
    over j of Sym^(N-j) U (x) Sym^j L, where Sym^j L of an even class L is
    one class at j times its bidegree and of an odd one vanishes at j >= 2.
    Kinds that read one table share its fold."""
    return _fold(tuple(sorted(V.dims.items())), top)


@cache
def _fold(classes, top):
    powers = [GradedDims({(0, 0): 1})] + [GradedDims({})] * top
    for (p, q), b in classes:
        most = 1 if (p + q) // 2 % 2 else top
        for _ in range(b):
            powers = [reduce(dsum, (
                tensor(powers[N - j], GradedDims({(j * p, j * q): 1}))
                for j in range(min(N, most) + 1))) for N in range(top + 1)]
    return tuple(powers)


def test_the_fold_is_the_basis_enumeration(catalog):
    for X in [catalog[name] for name in CATALOG_NAMES] + [
            ManifoldData("odd", dim_real=4, betti=[1, 2, 0, 2, 1])]:
        for V in (X.betti, X.hodge, X.hodge_b):
            if V is not None:
                assert sym_powers_by_fold(V, 4) == tuple(
                    sym_power_oracle(V, n) for n in range(5)), X.name


def sym_oracle(kind, X, order):
    """(sum_n q^n INV(Sym^n V), PE[f]) for a Sym^n(X) kind, literally:
    Sym^n V from the fold, never from the layouts DP the brute side runs."""
    table, inv = SYM_ORACLES[kind]
    V = table(X)
    brute = reduce(add, (q_power(inv(power), order, n) for n, power in
                         enumerate(sym_powers_by_fold(V, order))))
    f = q_power(inv(V), order, 1)
    if kind == "sign_sym":
        f = f + q_power(Fraction(X.euler() - inv(V), 2), order, 2)
    if kind in TWISTED_SYM:
        return brute, twist(plethystic_exp(twist(f)))
    return brute, plethystic_exp(f)


def check_sym_kinds(X, orders):
    for kind in SYM_ORACLES:
        if ob.applicability(kind, X) is None:
            for order in orders:
                brute, closed = sym_oracle(kind, X, order)
                assert ob.brute_series(kind, X, order) == brute, (kind, order)
                assert ob.closed_series(kind, X, order) == closed, \
                    (kind, order)


def test_sym_oracles_cover_every_sym_kind():
    assert set(SYM_ORACLES) == {k for k in ob.SERIES_KINDS if "_sym" in k}


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_sym_kinds_are_symmetric_power_sums(catalog, name):
    check_sym_kinds(catalog[name], range(7))


@settings(max_examples=15, deadline=None)
@given(hodge_manifolds())
def test_sym_kinds_are_symmetric_power_sums_on_random_tables(X):
    check_sym_kinds(X, range(7))


@pytest.mark.parametrize("family", ("euler", "poincare", "hodge", "chiy",
                                    "arith", "sign"))
def test_sym_kind_is_its_orb_kind_cut_to_one_cycles(family):
    sym, orb = ob.KINDS[family + "_sym"], ob.KINDS[family + "_orb"]
    assert sym.brute is orb.brute and sym.single is orb.single
    assert (sym.cycles, orb.cycles) == (1, None)
    differ = {f for f in ob.KindSpec._fields
              if getattr(sym, f) != getattr(orb, f)}
    assert differ == ({"cycles", "needs"} if family in ("arith", "sign")
                      else {"cycles"})


# ------------------------------------------------- what the two routes share

# Every named symprod function that brute_series and closed_series both
# reach, on the kinds and manifolds of the audit below, with the test that
# checks it without the other route.  A fault in a shared function could
# move both routes alike and pass every kind check, so a function that
# becomes shared fails the audit until it is listed here with its oracle.
SHARED_WITH_ORACLE = {
    "layouts.Kronecker.__init__":
        "test_layouts.test_kronecker_product_matches_mul_add_and_tuple_keys",
    "layouts.Kronecker.slot":
        "test_layouts.test_kronecker_product_matches_mul_add_and_tuple_keys",
    "layouts.Kronecker._one_int":
        "test_layouts.test_kronecker_product_matches_mul_add_and_tuple_keys",
    "layouts.Kronecker.mul_add":
        "test_layouts.test_kronecker_product_matches_mul_add_and_tuple_keys",
    "layouts.Kronecker._flagged":
        "test_layouts.test_read_matches_the_divmod_decoder",
    "layouts.Kronecker._digits":
        "test_layouts.test_read_matches_the_divmod_decoder",
    "layouts.Kronecker.decode":
        "test_layouts.test_read_matches_the_divmod_decoder",
    "layouts._lattice":
        "test_layouts.test_two_variables_divide_by_the_lattice_index",
    "layouts.euler_transform":
        "test_layouts.test_euler_transform_is_the_colored_partition_count",
    "orbifold.applicability":
        "test_orbifold.test_a_matching_key_still_checks_applicability",
    "orbifold._require":
        "test_orbifold.test_a_matching_key_still_checks_applicability",
    "manifold.ManifoldData.m":
        "test_acceptance.test_criterion_2_regraded_poincare",
    "series.Series.from_layout":
        "test_layouts.test_read_matches_the_divmod_decoder",
    "series.Series.__init__":
        "test_series.test_from_terms_sums_duplicates_and_drops_cancellations",
    "series._counting_index":
        "test_series.test_entry_rejects_the_other_counting_variable",
}


def symprod_qualnames():
    """{(file, first line, name): "module.qualname"} for every function of
    symprod, from the code objects compiled from its sources; the same
    names on every Python, where co_qualname is new in 3.11."""
    names = {}

    def walk(code, prefix):
        for c in code.co_consts:
            if hasattr(c, "co_consts"):
                name = prefix + c.co_name
                names[c.co_filename, c.co_firstlineno, c.co_name] = name
                walk(c, name + (".<locals>." if c.co_flags & CO_NEWLOCALS
                                else "."))

    for path in Path(symprod.__file__).parent.glob("*.py"):
        walk(compile(path.read_text(), str(path), "exec"), path.stem + ".")
    return names


def reached(names, build, *args):
    """The named symprod functions that build(*args) calls; lambdas and
    comprehensions count as their enclosing function."""
    seen = set()

    def hook(frame, event, arg):
        code = frame.f_code
        if event == "call" and not code.co_name.startswith("<"):
            seen.add(names.get(
                (code.co_filename, code.co_firstlineno, code.co_name)))

    sys.setprofile(hook)
    try:
        build(*args)
    finally:
        sys.setprofile(None)
    return seen - {None}


def test_the_routes_share_only_functions_with_an_oracle(catalog):
    names, shared = symprod_qualnames(), set()
    for X in (catalog["k3"], catalog["elliptic"], catalog["p2"],
              ManifoldData("odd", dim_real=4, betti=[1, 2, 0, 2, 1])):
        for kind in ob.SERIES_KINDS:
            if ob.applicability(kind, X) is None:
                shared |= reached(names, ob.brute_series, kind, X, 6) \
                    & reached(names, ob.closed_series, kind, X, 6)
    assert shared == set(SHARED_WITH_ORACLE)
    tests = Path(__file__).parent
    for oracle in SHARED_WITH_ORACLE.values():
        module, test = oracle.split(".")
        assert "\ndef %s(" % test in (tests / (module + ".py")).read_text()
