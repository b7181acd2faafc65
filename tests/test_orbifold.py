import ast
import contextlib
import io
import sys
import trace
from collections import Counter
from fractions import Fraction
from functools import cache, reduce
from inspect import CO_NEWLOCALS
from math import comb
from pathlib import Path

import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from conftest import (CATALOG_NAMES, add, counting_coefficient, cycle_types,
                      dsum, euler_number, kronecker, mul, scale, shift,
                      specialize, sym_power, sym_power_oracle, tensor, term,
                      traced_peak, twist, zero)
import symprod
from symprod import cli, layouts, series
from symprod import orbifold as ob
from symprod.graded import GradedDims
from symprod.layouts import Kronecker, SlotMap, sector_units
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
        out.append(c.get((0,) * 5, 0))
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
    rhs = mul(ob.chi_minus_y(a), ob.chi_minus_y(b))
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
    """c q^n, truncated at order; c a series or an int."""
    at = term("q", order, 1, {"q": n})
    return mul(c, at) if isinstance(c, Series) else scale(c, at)


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
    longer than cycles, summed.  The levels are asked for as _sector_sum
    asks, level(l, order // l) once per l, l ascending from 1; each block
    is read into a Series at its power of var, so the products multiply
    5-tuple keys, not codes or packed ints."""
    levels = [None, level(1, order)] + [level(l, order // l)
                                        for l in range(2, cycles + 1)]
    block = cache(lambda l, nl: block_series(layout, levels[l][nl], l * nl,
                                             order, var))

    def sectors(n):
        terms = [reduce(mul, (block(l, nl) for l, nl in ct.items()),
                        block(1, 0))
                 for ct in cycle_types(n) if all(l <= cycles for l in ct)]
        return reduce(add, terms)

    return reduce(add, (sectors(n) for n in range(order + 1)))


def test_sector_sum_counts_partitions():
    # every block is the int 1 on a one-slot layout (a factor at l >= 2),
    # and each level shares one list
    lay = kronecker([(1, (0,) * 5)], 8, 22)
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
    for module in (ob, series):
        def record(*args, pick=module.Kronecker):
            seen.append(pick(*args))
            return seen[-1]
        monkeypatch.setattr(module, "Kronecker", record)
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


def check_kind_slot_maps(X, orders):
    """Each applicable kind's check is built with neither route run, and
    each route reads the same terms on its slot map as on the map of its
    own units, at the slot width of its own bound."""
    for kind in ob.SERIES_KINDS:
        if ob.applicability(kind, X) is not None:
            continue
        for order in orders:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(ob, "_sector_sum", None)
                mp.setattr(ob, "plethystic_exp", None)
                check = ob.kind_check(kind, X, order)
            keys = [key for key, _, _ in check.blocks]
            own = {ob.brute_series: ob._sym_sum(
                check.sectors, check.blocks, order, check.cycles,
                SlotMap(sector_units(check.cycles, keys,
                                     check.sectors.shift), order)),
                ob.closed_series: plethystic_exp(
                    check.f, super_signs=check.spec.twisted)}
            for build, alone in own.items():
                shared = build(kind, X, order, check)
                assert shared._packed[0].map is check.slot_map
                assert shared._packed[0].width == alone._packed[0].width
                assert shared.terms == alone.terms, (kind, order)


@pytest.mark.parametrize("name", CATALOG_NAMES + ("hopf",))
def test_each_route_reads_alike_on_its_kind_slot_map(catalog, name):
    check_kind_slot_maps(catalog[name] if name in catalog else HOPF,
                         (0, 1, 3, 6))


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


@cache
def _basis_power(classes, N):
    return sym_power_oracle(GradedDims(dict(classes)), N)


def basis_power(V, N):
    """sym_power_oracle(V, N), enumerated once per table and N."""
    return _basis_power(frozenset(V.dims.items()), N)


def oracle_block(kind, X, l, N):
    """block(l, N) of a kind from the basis of Sym^N (sym_power_oracle) of
    its table regraded for N l-cycles, at q^(l N): the regraded Hodge or
    Poincare polynomial, or the genus image times its sector weight; a
    gottsche kind's blocks are those of its _orb kind with k = 1, and a _B
    kind's are taken from the B-table.  The dmvv_q0 block sits at
    p^(l N), its sector weight y^(k m N) cancelled by the y^(-k l N) of
    q -> p y^(-k) to one y^(-k) per cycle."""
    family = kind.removeprefix("gottsche_").split("_")[0]
    T = X.hodge_b if kind.endswith("_B") else X.hodge
    d, m = X.dim_c, l - 1
    at = term("q", None, 1, {"q": l * N})
    if family == "hodge":
        return mul(basis_power(shift(T, m * d, m * d), N).poly("x"), at)
    if family == "poincare":
        return mul(basis_power(shift(X.betti, 2 * m * X.m), N).poly("t"), at)
    if family == "euler":
        return scale(euler_number(basis_power(X.betti, N)), at)
    S = basis_power(T, N)
    if family == "sign":
        return scale(ob.genus(S, "signature") * (-1) ** (d // 2 * m * N), at)
    if family == "arith":  # y^(k m N) at y = 0
        return scale(ob.genus(S, "arithmetic") * int(d * m * N == 0), at)
    if family == "dmvv":
        return mul(ob.chi_minus_y(S, "p"), term(
            "p", None, 1, {"p": l * N, "y": Fraction(-d * N, 2)}))
    return mul(ob.chi_minus_y(S), term(
        "q", None, 1, {"q": l * N, "y": Fraction(d * m * N, 2)}))


def basis_sector_sum(kind, X, order):
    """The brute series of a kind with no level called: for each n, the
    sum over the cycle types of S_n, 1-cycles alone for a _sym kind, of
    prod_l oracle_block(kind, X, l, N_l)."""
    var = "p" if kind.startswith("dmvv") else "q"
    cycles = 1 if "_sym" in kind else order
    total = zero(var, order)
    for n in range(order + 1):
        for ct in cycle_types(n):
            if all(l <= cycles for l in ct):
                total = add(total, reduce(mul, (
                    oracle_block(kind, X, l, N) for l, N in ct.items()),
                    Series.constant(var)))
    return total


def check_basis_sector_sums(X, order):
    """Every applicable kind's brute series at orders 0 to order against
    basis_sector_sum, truncated."""
    for kind in ob.SERIES_KINDS:
        if ob.applicability(kind, X) is None:
            expected = basis_sector_sum(kind, X, order)
            for n in range(order + 1):
                assert ob.brute_series(kind, X, n) == Series(
                    expected.var, n, dict(expected.terms)), (kind, n)


# The orders where every enumerated Sym^N basis stays small: k3 to order 4
# enumerates C(27, 4) = 17,550 states of Sym^4.
BASIS_ORDERS = {"k3": 4, "abelian": 4}


@pytest.mark.parametrize("name", CATALOG_NAMES + ("hopf",))
def test_brute_series_are_basis_blocks_summed_over_cycle_types(catalog, name):
    check_basis_sector_sums(catalog[name] if name in catalog else HOPF,
                            BASIS_ORDERS.get(name, 6))


@settings(max_examples=20, deadline=None)
@given(sparse_hodge_manifolds())
def test_brute_series_are_basis_blocks_summed_on_sparse_tables(X):
    check_basis_sector_sums(X, 4)


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
            assert all(type(c) is int for c in s.terms.values())


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
    a = add(term("q", 2, 1, {}), term("q", 2, 2, {"q": 1}))
    b = add(term("q", 2, 1, {}), term("q", 2, 3, {"q": 1}))
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
    # a Series holds int coefficients only, so every closed form needs an
    # integral f.  The one candidate, (chi -+ sgn)/2 of _sign_f, is an
    # integer: chi - sgn and chi + sgn are twice a sum of Hodge numbers.
    # So closed_series never raises SeriesUsageError, and the CLI keeps its
    # exit codes
    for kind, spec in ob.KINDS.items():
        if ob.applicability(kind, X) is None:
            f = spec.single(X, getattr(X, spec.table), order,
                            spec.cycles or order)
            if isinstance(f, ob.Levels):
                f = ob._levels(f.poly, order, f.shift,
                               f.cycles or spec.cycles or order)
            for s in (f, ob.closed_series(kind, X, order)):
                assert all(type(c) is int for c in s.terms.values()), kind


@settings(max_examples=100, deadline=None)
@given(integer_manifolds(), st.integers(min_value=0, max_value=4))
def test_sign_f_halves_an_even_number(X, order):
    # chi - sgn = -2 sum_(p odd) (-1)^q h^(p,q): chi -+ sgn is even, so the
    # floor division of _sign_f is the exact (chi -+ sgn) / 2
    assume(X.hodge is not None)
    chi, sgn = X.euler(), ob.genus(X.hodge, "signature")
    assert chi - sgn == -2 * sum(h if q % 4 == 0 else -h
                                 for (p, q), h in X.hodge.dims.items()
                                 if p % 4 == 2)
    f = ob._sign_f(X, X.hodge, order, order)
    assert all(type(c) is int for c in f.terms.values())
    # the same series with the halves taken as exact rationals
    expected = Counter()
    for m in range(1, order + 1):
        e = -sgn if X.dim_c // 2 % 2 and m % 2 == 0 else sgn
        expected[2 * m] += e
        expected[4 * m] += Fraction(chi - e, 2)
    assert f.terms == {(d, 0, 0, 0, 0): c for d, c in expected.items()
                       if c and d <= 2 * order}


hodge_rows = st.integers(1, 3).flatmap(lambda d: st.tuples(st.just(d), *(
    st.lists(st.lists(st.integers(0, 2), min_size=d + 1, max_size=d + 1),
             min_size=d + 1, max_size=d + 1),) * 2, st.booleans()))


@settings(max_examples=60, deadline=None)
@given(hodge_rows)
def test_serre_row_matches_the_product_of_its_factors(case):
    # the Serre row builds its rhs (-1)^d y^d chi_(-1/y) as one term map;
    # the dict product of its two factors is its oracle, on Hodge tables
    # with and without Serre symmetry and on derived and explicit B-tables
    d, hodge, hodge_b, explicit = case
    X = ManifoldData("cy", dim_c=d, calabi_yau=True, hodge=hodge,
                     hodge_b=hodge_b if explicit else None)
    rhs = mul(substitute(ob.chi_minus_y(X.hodge, "q"), "y", {"y": -1}),
              term("q", None, (-1) ** d, {"y": d}))
    holds = ob.chi_minus_y(X.hodge_b, "q") == rhs
    event("holds" if holds else "fails")
    [row] = [r for r in ob.cross_checks(X, 0)
             if r.name == "cross B-genus Serre duality"]
    assert row.status == ("pass" if holds else "fail")


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
        def counted(kind, X, order, *check, route=getattr(ob, name),
                    name=name):
            builds.append((name, kind, order))
            return route(kind, X, order, *check)
        monkeypatch.setattr(ob, name, counted)
    return builds


def test_verify_all_builds_each_distinct_series_once(catalog, monkeypatch):
    # keyed by kind name the memo made 40 builds on k3 and 256 across the
    # catalog: gottsche_* repeat the brute hodge_orb and poincare_orb, and
    # on Calabi-Yau input whose B-table equals the Hodge table every _B
    # kind repeats its plain kind.  The count holds the cross checks'
    # builds, which reach the wrapper by route name: on a surface one
    # builds poincare_orb at hodge_orb's order
    builds = counted_builds(monkeypatch)
    ob.verify_all(catalog["k3"])
    assert len(builds) == 29
    for name in CATALOG_NAMES:
        if name != "k3":
            ob.verify_all(catalog[name])
    assert len(builds) == 212


def test_both_routes_of_a_kind_check_get_one_slot_map(catalog, monkeypatch):
    # one kind check per kind and order, built only where a route builds:
    # on k3, 29 builds take 16 checks, the gottsche_* closed forms taking
    # theirs where their brute series is hodge_orb's and poincare_orb's.
    # Both routes of a check get it, and with it its one slot map
    checks, passed = [], {}
    kind_check = ob.kind_check
    monkeypatch.setattr(ob, "kind_check", lambda *args: checks.append(
        kind_check(*args)) or checks[-1])
    for name in ("brute_series", "closed_series"):
        def record(kind, X, order, check, route=getattr(ob, name),
                   name=name):
            passed[name, kind, order] = check
            return route(kind, X, order, check)
        monkeypatch.setattr(ob, name, record)
    assert all(r.status == "pass" for r in ob.verify_all(catalog["k3"]))
    assert (len(passed), len(checks)) == (29, 16)
    for (name, kind, order), check in passed.items():
        if name == "brute_series" and ("closed_series", kind, order) in passed:
            assert passed["closed_series", kind, order] is check, kind


def test_a_kind_check_runs_each_builder_once(catalog, monkeypatch):
    # the kind's brute and single-particle builders and the blocks of the
    # brute sectors run once per kind check, which both routes read, and
    # never again in a route: verify_all builds 16 checks on k3
    calls, wrapped = Counter(), {}

    def counting(name, build):
        def count(*args):
            calls[name] += 1
            return build(*args)
        return count

    for kind, spec in ob.KINDS.items():
        # one wrapper per builder, so kinds that share one share a build
        for field in ("brute", "single"):
            build = getattr(spec, field)
            if build not in wrapped:
                wrapped[build] = counting(field, build)
        monkeypatch.setitem(ob.KINDS, kind, spec._replace(
            brute=wrapped[spec.brute], single=wrapped[spec.single]))
    monkeypatch.setattr(GradedDims, "blocks",
                        counting("blocks", GradedDims.blocks))
    assert all(r.status == "pass" for r in ob.verify_all(catalog["k3"]))
    assert calls == {"brute": 16, "single": 16, "blocks": 16}


def test_a_wrapped_route_builds_under_the_same_key(catalog, monkeypatch):
    # the memo keys a route by its name and looks the route's function up
    # only to build, so with brute_series replaced by a pass-through
    # wrapper, as perfbench's tracer replaces it, the cross checks still
    # find the brute series verify built: 14 sector sums on k3 either way
    sums, counts = [], []
    sym_sum, brute = ob._sym_sum, ob.brute_series
    monkeypatch.setattr(ob, "_sym_sum",
                        lambda *args: sums.append(args) or sym_sum(*args))
    for route in (brute, lambda *args: brute(*args)):
        monkeypatch.setattr(ob, "brute_series", route)
        sums.clear()
        assert all(r.status == "pass" for r in ob.verify_all(catalog["k3"]))
        counts.append(len(sums))
    assert counts == [14, 14]


def used_series(monkeypatch):
    """The (route, kind, order, series) of every memo request from here
    on, hits included."""
    used, series_of = [], ob._series_of

    def recording(X):
        built = series_of(X)

        def request(route, kind, order):
            series = built(route, kind, order)
            used.append((route, kind, order, series))
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
    for route, kind, order, series in used:
        if kind.endswith("_B"):
            build = getattr(ob, route + "_series")
            assert series == build(kind, X, order), (route, kind)
            checked[route] += 1
    assert checked == {"brute": 5, "closed": 5}


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
    assert ob._build_key(X, "brute", "gottsche_hodge", 3) == \
        ob._build_key(X, "brute", "hodge_orb", 3)
    built("brute", "hodge_orb", 3)
    with pytest.raises(InputError, match="need a surface"):
        built("brute", "gottsche_hodge", 3)


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
        half, odd = divmod(X.euler() - inv(V), 2)
        assert not odd  # chi - sgn is even
        f = add(f, q_power(half, order, 2))
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
def test_each_route_reads_alike_on_kind_slot_maps_of_random_tables(X):
    check_kind_slot_maps(X, (4,))


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
# reach, each with what its kind check calls for its input alone, on the
# kinds and manifolds of the audit below, with the test that
# checks it without the other route.  A fault in a shared function could
# move both routes alike and pass every kind check, so a function that
# becomes shared fails the audit until it is listed here with its oracle.
SHARED_WITH_ORACLE = {
    "layouts.Kronecker.__init__":
        "test_layouts.test_kronecker_product_matches_mul_add_and_tuple_keys",
    "layouts.SlotMap.slot":
        "test_layouts.test_kronecker_product_matches_mul_add_and_tuple_keys",
    "layouts.Kronecker.mul_add":
        "test_layouts.test_kronecker_product_matches_mul_add_and_tuple_keys",
    "layouts.euler_transform":
        "test_layouts.test_euler_transform_is_the_colored_partition_count",
    "manifold.ManifoldData.m":
        "test_acceptance.test_criterion_2_regraded_poincare",
    "series.Series.from_layout":
        "test_layouts.test_read_matches_the_divmod_decoder",
    "series.Series.__init__":
        "test_series.test_from_terms_sums_duplicates_and_drops_cancellations",
    "series._counting_index":
        "test_series.test_entry_rejects_the_other_counting_variable",
}

# What a kind check runs once, before either route, for both: the
# applicability gate, and the slot map of their units, with the tests that
# show it moves no coefficient of either route, whatever units it holds
# beyond a route's own.
SLOT_MAP_WITH_ORACLE = {
    "orbifold.kind_check":
        "test_orbifold.test_each_route_reads_alike_on_its_kind_slot_map",
    "orbifold.applicability":
        "test_orbifold.test_a_matching_key_still_checks_applicability",
    "orbifold._require":
        "test_orbifold.test_a_matching_key_still_checks_applicability",
    "layouts.SlotMap.__init__":
        "test_layouts.test_a_slot_map_of_more_units_holds_every_product",
    "layouts._lattice":
        "test_layouts.test_two_variables_divide_by_the_lattice_index",
    "layouts.sector_units": "test_layouts."
        "test_a_sector_layout_is_the_layout_of_every_cycle_length",
    "series.plethystic_units":
        "test_layouts.test_plethystic_exp_matches_the_oracle",
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
                if c.co_flags & CO_NEWLOCALS:  # a function, not a class body
                    names[c.co_filename, c.co_firstlineno, c.co_name] = name
                walk(c, name + (".<locals>." if c.co_flags & CO_NEWLOCALS
                                else "."))

    for path in Path(symprod.__file__).parent.glob("*.py"):
        walk(compile(path.read_text(), str(path), "exec"), path.stem + ".")
    return names


def reached(names, build, *args, roots=None):
    """The named symprod functions that build(*args) calls; lambdas and
    comprehensions count as their enclosing function.  With roots, a
    {code: side} map, {side: the functions called beneath a root of that
    side, the innermost one}, and at None those called beneath none."""
    seen, sides = {}, [None]

    def hook(frame, event, arg):
        code = frame.f_code
        if event == "call":
            sides.append((roots or {}).get(code, sides[-1]))
            if not code.co_name.startswith("<"):
                seen.setdefault(sides[-1], set()).add(names.get(
                    (code.co_filename, code.co_firstlineno, code.co_name)))
        elif event == "return" and len(sides) > 1:
            sides.pop()

    sys.setprofile(hook)
    try:
        build(*args)
    finally:
        sys.setprofile(None)
    seen = {side: found - {None} for side, found in seen.items()}
    return seen if roots else seen.get(None, set())


def test_the_routes_share_only_functions_with_an_oracle(catalog):
    # the routes as a kind check runs them, on the kind's slot map, with
    # the memos of slot maps and sector bounds emptied; each route also
    # reaches what the check calls for its own input alone, beneath the
    # kind's brute builder and GradedDims.blocks or beneath its single
    # builder and _levels
    ob._slot_map.cache_clear()
    layouts.sector_bound.cache_clear()
    names, shared, mapped = symprod_qualnames(), set(), set()
    for X in (catalog["k3"], catalog["elliptic"], catalog["p2"],
              ManifoldData("odd", dim_real=4, betti=[1, 2, 0, 2, 1])):
        for kind in ob.SERIES_KINDS:
            if ob.applicability(kind, X) is None:
                spec = ob.KINDS[kind]
                roots = {spec.brute.__code__: ob.brute_series,
                         GradedDims.blocks.__code__: ob.brute_series,
                         spec.single.__code__: ob.closed_series,
                         ob._levels.__code__: ob.closed_series}
                sides = reached(names, ob.kind_check, kind, X, 6,
                                roots=roots)
                mapped |= set().union(*sides.values())
                check = ob.kind_check(kind, X, 6)
                brute, closed = (
                    sides.get(route, set())
                    | reached(names, route, kind, X, 6, check)
                    for route in (ob.brute_series, ob.closed_series))
                shared |= brute & closed
    assert shared == set(SHARED_WITH_ORACLE)
    assert set(SLOT_MAP_WITH_ORACLE) <= mapped
    tests = Path(__file__).parent
    for oracle in [*SHARED_WITH_ORACLE.values(),
                   *SLOT_MAP_WITH_ORACLE.values()]:
        module, test = oracle.split(".")
        assert "\ndef %s(" % test in (tests / (module + ".py")).read_text()


# Every named symprod function that the jobs of the production-reach audit
# below leave unreached, and why it stays: aim 2 keeps no API that only its
# own unit test calls.
UNREACHED_IN_PRODUCTION = {
    "fock.FockSpace.word": "reached only by a failing check: its messages "
                           "print states as (level, class) words",
    "series.mismatches": "reached only by a failing check: the mismatch "
                         "report",
    "series.render_head": "reached only by a failing check: the mismatch "
                          "report",
    "series.render_key": "reached only by a failing check: the mismatch "
                         "report",
    "series._sorted_chunk": "reached only by a failing check: the report "
                            "renders both sides from their term dicts",
    "orbifold._family": "runs at import, building KINDS",
    "graded.GradedDims.__repr__": "a __repr__",
    "manifold.ManifoldData.__repr__": "a __repr__",
    "orbifold.CheckResult.__repr__": "a __repr__",
    "series.Series.__repr__": "a __repr__",
    "series.Series.__setattr__": "a read-only guard",
}

REFUSED = "an error path that a refused input reaches"
REPORT = "a failing check's report"
GUARD = "a guard: production never calls it outside its contract"
# Each statement that the audit's jobs leave unreached inside a function
# they reach, as (function, first line of the statement, why it stays).
UNREACHED_STATEMENTS = [
    ("cli._emit_results", "failed += 1", REPORT),
    ("cli._emit_results", "for line in r.lines:", REPORT),
    ("cli._emit_results", 'print("  " + line)', REPORT),
    ("cli._nonnegative_int", "value = -1", REFUSED),
    ("cli._nonnegative_int", "raise argparse.ArgumentTypeError(", REFUSED),
    ("cli._resolve_manifold_path", "raise InputError(", REFUSED),
    ("cli.cmd_series", "raise InputError(", REFUSED),
    ("cli.cmd_series", 'print("verdict: mismatch")', REPORT),
    ("cli.cmd_series", "for line in result.lines[:1]:", REPORT),
    ("cli.cmd_series", 'print("  " + line)', REPORT),
    ("cli.cmd_series", "return 1", REPORT),
    ("cli.load_manifold",
     'raise InputError("cannot read %s: %s" % (path, exc))', REFUSED),
    ("cli.load_manifold", 'raise InputError("%s: manifold file must be a '
     'JSON object" % path)', REFUSED),
    ("cli.load_manifold", 'raise InputError("%s: unknown fields %s" % '
     '(path, sorted(unknown)))', REFUSED),
    ("cli.load_manifold",
     'raise InputError("%s: only the pairing may be null" % path)', REFUSED),
    ("cli.load_manifold", 'raise InputError("%s: %s" % (path, exc))',
     REFUSED),
    ("cli.main", "return exc.code if isinstance(exc.code, int) else 0",
     REFUSED),
    ("cli.main", 'sys.stderr.write("error: %s\\n" % exc)', REFUSED),
    ("cli.main", "return 2", REFUSED),
    ("cli.main", 'sys.stderr.write("verification failure: %s\\n" % exc)',
     REPORT),
    ("cli.main", "return 1", REPORT),
    ("cli.main", 'sys.stderr.write("error: cannot write the output: %s\\n" '
     '% exc)', "an error path: a stdout that cannot be written"),
    ("cli.main", "if isinstance(exc, BrokenPipeError):",
     "an error path: a stdout that cannot be written"),
    ("cli.main", "devnull = os.open(os.devnull, os.O_WRONLY)",
     "an error path: a stdout that cannot be written"),
    ("cli.main", "os.dup2(devnull, sys.stdout.fileno())",
     "an error path: a stdout that cannot be written"),
    ("cli.main", "os.close(devnull)",
     "an error path: a stdout that cannot be written"),
    ("cli.main", "return 2", "an error path: a stdout that cannot be "
     "written"),
    ("fock.FockSpace.__init__", "raise InputError(", REFUSED),
    ("fock.FockSpace.annihilators",
     'raise ValueError("level must be >= 1")', GUARD),
    ("fock.FockSpace.creators", 'raise ValueError("level must be >= 1")',
     GUARD),
    ("fock.FockSpace.rows.<locals>.row", 'raise ValueError("%r is not a '
     'state of the basis to charge "', GUARD),
    ("fock.FockSpace.rows.<locals>.row",
     'raise ValueError("%s of %r leaves the basis to charge %d"', GUARD),
    ("fock.FockSpace.rows.<locals>.row",
     'what = "step: %r is not an indexed basis state" % (', REPORT),
    ("fock.FockSpace.rows.<locals>.row", 'what = "charge step"', REPORT),
    ("fock.FockSpace.rows.<locals>.row", 'what = "degree step"', REPORT),
    ("fock.FockSpace.rows.<locals>.row",
     'raise AssertionError("%s violated its declared %s"', REPORT),
    # an odd class's operator squares to zero, so only a family at fault
    # leaves a term A_i A_i s
    ("fock._violations", "k = iGN + iN + u", REPORT),
    ("fock._violations", "acc[k] = acc.get(k, 0) + 2 * c * w", REPORT),
    ("fock._violations", "pairs = {k // N for k, v in acc.items() if v}",
     REPORT),
    ("fock._violations",
     "bad += len(pairs) + (sum(p // G != p % G for p in pairs)", REPORT),
    ("fock.basis_size", "break", REFUSED),
    ("fock.check_relations",
     'raise InputError("%s has over %d Fock states up to charge %d"',
     REFUSED),
    ("graded.GradedDims.blocks", "raise ValueError(", GUARD),
    ("graded.GradedDims.from_rows",
     'raise ValueError("%s must be %s of nonnegative integers" % (',
     REFUSED),
    ("layouts.Kronecker.__init__", "raise SeriesUsageError(", REFUSED),
    ("manifold.ManifoldData.__setattr__", 'raise AttributeError('
     '"ManifoldData values are read-only once "', GUARD),
    ("manifold.ManifoldData._validate", 'raise ValueError("name must be a '
     'string without line breaks")', REFUSED),
    ("manifold.ManifoldData._validate", 'raise ValueError("%s must be a '
     'nonnegative integer" % key)', REFUSED),
    ("manifold.ManifoldData._validate",
     'raise ValueError("calabi_yau must be true or false")', REFUSED),
    ("manifold.ManifoldData._validate",
     'raise ValueError("a Hodge table needs dim_c")', REFUSED),
    ("manifold.ManifoldData._validate",
     'raise ValueError("need one of \'betti\' or \'hodge\'")', REFUSED),
    ("manifold.ManifoldData._validate",
     'raise ValueError("a Betti vector needs dim_real")', REFUSED),
    ("manifold.ManifoldData._validate",
     'raise ValueError("dim_real inconsistent with dim_c")', REFUSED),
    ("manifold.ManifoldData._validate", 'raise ValueError("dim_real must be '
     'a nonnegative even integer")', REFUSED),
    ("manifold.ManifoldData._validate",
     'raise ValueError("Betti degree out of range")', REFUSED),
    ("manifold.ManifoldData._validate", 'raise ValueError("Betti numbers '
     'disagree with the Hodge table")', REFUSED),
    ("manifold.ManifoldData._validate", 'raise ValueError("a Calabi-Yau '
     'input needs a Hodge table")', REFUSED),
    ("manifold.ManifoldData._validate",
     'raise ValueError("a B-table needs a Hodge table")', REFUSED),
    ("manifold._invertible", "return False", REFUSED),
    ("manifold._parse_entry", "pass", REFUSED),
    ("manifold._parse_entry", 'raise ValueError("pairing entries must be '
     'integers or \'a/b\' strings, "', REFUSED),
    ("manifold.default_pairing", 'raise InputError("default pairing needs '
     'Poincare duality on %s"', REFUSED),
    # FockSpace refuses a dim_real that 4 does not divide before it asks
    # for a default pairing, so the middle parity X.m % 2 is always even
    ("manifold.default_pairing", 'raise InputError("default pairing needs '
     'an even middle degree on %s"', GUARD),
    ("manifold.pairing_from_blocks", 'raise ValueError("pairing must be a '
     'list of blocks with exactly the "', REFUSED),
    ("manifold.pairing_from_blocks", 'raise ValueError("pairing block for '
     'degree %d given twice" % abs(j))', REFUSED),
    ("manifold.pairing_from_blocks",
     'raise ValueError("pairing block %d has the wrong shape" % j)',
     REFUSED),
    ("manifold.pairing_from_blocks",
     'raise ValueError("pairing block %d is degenerate" % j)', REFUSED),
    ("manifold.pairing_from_blocks", "raise ValueError(", REFUSED),
    ("manifold.pairing_from_blocks", 'raise ValueError("pairing block for '
     'degree %d missing" % abs(j))', REFUSED),
    ("orbifold._compare", "lines, diffs = [], mismatches(a, b)", REPORT),
    ("orbifold._compare", "if diffs:", REPORT),
    ("orbifold._compare", "key, ca, cb = diffs[0]", REPORT),
    ("orbifold._compare",
     "ti = VARS.index(a.var)  # diffs ascend in this exponent", REPORT),
    ("orbifold._compare",
     'counts = ("%s^%d: %d" % (a.var, e // 2, len(list(run)))', REPORT),
    ("orbifold._compare", 'lines = ["first mismatch at %s: %s vs %s"',
     REPORT),
    ("orbifold._compare",
     'lines.append("lhs: %s" % render_head(a, DUMP_TERMS))', REPORT),
    ("orbifold._compare",
     'lines.append("rhs: %s" % render_head(b, DUMP_TERMS))', REPORT),
    ("orbifold._compare", 'return CheckResult(name, "fail", lines)',
     REPORT),
    ("orbifold._require",
     'raise InputError("kind %s not applicable to %s: %s"', REFUSED),
    ("orbifold.applicability",
     'raise ValueError("unknown series kind %r" % (kind,))', GUARD),
    ("orbifold.genus", 'raise ValueError("unknown genus %r" % (which,))',
     GUARD),
    ("orbifold.genus", 'raise ValueError("genus %r needs integer second '
     'degrees" % (which,))', GUARD),
    ("series.Series.__eq__", "return NotImplemented", GUARD),
    ("series.Series.__eq__", "return False", GUARD),
    ("series.Series.__init__", 'raise SeriesUsageError("order must be a '
     'nonnegative integer or None")', GUARD),
    ("series.Series.from_terms", "raise SeriesUsageError(", GUARD),
    ("series.Series.from_terms",
     'raise SeriesUsageError("a %s-series holds no power of %s"', GUARD),
    ("series._counting_index", 'raise SeriesUsageError("counting variable '
     'must be q or p, got %r" % (var,))', GUARD),
    ("series._dexp", 'raise SeriesUsageError("exponents must lie in '
     '(1/2)Z, got %r" % (e,))', GUARD),
    ("series._exact",
     'raise SeriesUsageError("coefficients must be ints, got %r" % (c,))',
     GUARD),
    # the cross checks substitute 1 and -1 alone
    ("series._int_power", "if d < 0:", "reached only by unit tests: no "
     "cross check substitutes 0"),
    ("series._int_power",
     'raise SeriesDomainError("zero raised to a negative power")', GUARD),
    ("series._int_power", "return base", "reached only by unit tests: no "
     "cross check substitutes 0"),
    ("series._int_power", 'raise SeriesDomainError("%s raised to the '
     'negative power %s is not "', GUARD),
    ("series._int_power", "raise SeriesDomainError(", GUARD),
    ("series._render", 'return "0"', "a guard: every series the CLI prints "
     "holds the constant 1"),
    ("series.coeff_str", 'return "-" + coeff_str(-c)', "a failing check's "
     "report: _render writes each sign itself"),
    ("series.monomial_key",
     'raise SeriesUsageError("unknown variable %r" % (v,))', GUARD),
    ("series.plethystic_exp", 'raise SeriesDomainError("a half-integer '
     'total degree has no parity")', GUARD),
    ("series.plethystic_exp", 'raise SeriesUsageError("plethystic_exp needs '
     'a finite truncation order")', GUARD),
    ("series.plethystic_exp", 'raise SeriesUsageError("plethystic_exp needs '
     'every term to carry "', GUARD),
    ("series.substitute",
     'raise SeriesUsageError("unknown variable %r" % (v,))', GUARD),
    ("series.substitute", "raise SeriesUsageError(", GUARD),
    ("series.substitute", "raise SeriesDomainError(", GUARD),
    ("series.substitute", "continue", "reached only by unit tests: no "
     "cross check substitutes 0"),
]


def symprod_statements():
    """{(file, line): (function, first, statement)} for each line of
    symprod that compiles to code in the body of a named function: the
    function as symprod_qualnames names it, and the first line number and
    that line's text, stripped, of the innermost statement that holds the
    line.  A lambda or a
    comprehension is part of its statement, and a def line a statement of
    the function around it."""
    out = {}
    for path in Path(symprod.__file__).parent.glob("*.py"):
        source = path.read_text()
        text = source.splitlines()
        spans = []  # (first line, last line, function, statement)

        def visit(node, function, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.stmt) and function:
                    spans.append((child.lineno, child.end_lineno, function,
                                  text[child.lineno - 1].strip()))
                if isinstance(child, ast.FunctionDef):
                    name = prefix + child.name
                    visit(child, name, name + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, None, prefix + child.name + ".")
                else:
                    visit(child, function, prefix)

        visit(ast.parse(source), None, path.stem + ".")
        lines, todo = set(), [compile(source, str(path), "exec")]
        while todo:
            code = todo.pop()
            lines.update(line for _, _, line in code.co_lines() if line)
            todo += [c for c in code.co_consts if hasattr(c, "co_lines")]
        for line in lines:
            inside = [s for s in spans if s[0] <= line <= s[1]]
            if inside:  # the innermost statement spans the fewest lines
                first, _, function, stmt = min(inside,
                                               key=lambda s: s[1] - s[0])
                out[str(path), line] = function, first, stmt
    return out


def test_production_reaches_every_function_it_keeps(tmp_path, monkeypatch):
    # the commands on the catalog, Fock input with odd classes, a pairing
    # file, the empty Fock space and an explicit B-table; series printed
    # with negative coefficients, negative and half-integer exponents, the
    # default order, ints past 4,300 digits in slots past 8 bytes, and the
    # per-term factors of a CY3; and a catalog directory set by
    # SYMPROD_CATALOG
    inputs = {
        "odd": '{"dim_real": 4, "betti": [1, 2, 0, 2, 1]}',
        "p2x": '{"dim_c": 2, "hodge": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],'
               ' "pairing": [{"degree": 2, "matrix": [[1]]},'
               ' {"degree": 0, "matrix": [["1/2"]]}]}',
        "p2b": '{"dim_c": 2, "hodge": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],'
               ' "hodgeB": [[0, 0, 1], [0, 1, 0], [1, 0, 0]]}',
        "empty": '{"dim_real": 0, "betti": [0]}',
        "huge": '{"dim_real": 2, "betti": [1, %s, 1]}' % ("9" * 4000),
        "cy3": '{"dim_c": 3, "calabi_yau": true, "hodge": [[1, 0, 0, 1],'
               ' [0, 1, 101, 0], [0, 101, 1, 0], [1, 0, 0, 1]]}'}
    for name, text in inputs.items():
        (tmp_path / (name + ".json")).write_text(text)
    odd, p2x, p2b, empty, huge, cy3 = (str(tmp_path / (name + ".json"))
                                       for name in inputs)
    jobs = [["verify-all", "--manifold", name] for name in CATALOG_NAMES] + [
        ["fock-verify", "--manifold", "p2", "--max-charge", "3"],
        ["fock-verify", "--manifold", odd, "--max-charge", "2"],
        ["fock-verify", "--manifold", empty, "--max-charge", "2"],
        ["verify-all", "--manifold", p2x],
        ["verify-all", "--manifold", p2b],
        ["series", "hodge_orb", "--manifold", "k3", "--order", "6",
         "--mode", "both"],
        ["series", "hodge_orb", "--manifold", "p1", "--order", "2"],
        ["series", "chiy_orb", "--manifold", "k3", "--order", "3"],
        ["series", "dmvv_q0", "--manifold", "k3", "--order", "2"],
        ["series", "euler_orb", "--manifold", "p1", "--mode", "brute"],
        ["series", "euler_orb", "--manifold", huge, "--order", "3",
         "--mode", "both"],
        ["series", "hodge_orb", "--manifold", cy3, "--order", "4",
         "--mode", "both"],
        ["catalog", "list"]]
    catalog = str(cli.catalog_dir())

    def run_jobs():
        # built once per process, and memos that a run may find filled
        cli.build_parser.cache_clear()
        ob._slot_map.cache_clear()
        layouts.sector_bound.cache_clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert [cli.main(argv) for argv in jobs] == [0] * len(jobs)
            monkeypatch.setenv("SYMPROD_CATALOG", catalog)
            assert cli.main(["catalog", "list"]) == 0
            monkeypatch.delenv("SYMPROD_CATALOG")

    names = symprod_qualnames()
    named = {name for name in names.values()
             if not name.rpartition(".")[2].startswith("<")}
    kept = reached(names, run_jobs)
    assert named - kept == set(UNREACHED_IN_PRODUCTION)

    # statement by statement, with stdlib trace: a statement is reached
    # when any line it compiles to runs
    tracer = trace.Trace(count=1, trace=0)
    tracer.runfunc(run_jobs)
    ran, statements = set(tracer.results().counts), {}
    for where, (function, first, stmt) in symprod_statements().items():
        statements.setdefault((function, where[0], first, stmt),
                              set()).add(where)
    unreached = Counter((function, stmt)
                        for (function, _, _, stmt), lines in statements.items()
                        if function in kept and not lines & ran)
    assert unreached == Counter(
        (function, stmt) for function, stmt, _ in UNREACHED_STATEMENTS)


# ------------------------------------------------------- duality invariants
#
# Complex conjugation and Serre duality make the Hodge numbers of a compact
# X symmetric under (p, q) -> (q, p) and (p, q) -> (D - p, D - q), D =
# dim_C, and Poincare duality makes its Betti numbers palindromic.  The age
# shift keeps both on every q^n coefficient of the orbifold series, since
# age(g) = age(g^-1), and so does the untwisted sector alone.  Keys hold
# twice each exponent, and key[0] is 2n.

DUALITIES = {
    # kind: the images of a key (2n, ., t, x, y) under the invariant maps
    "hodge": lambda k, D: [(*k[:3], k[4], k[3]),
                           (*k[:3], k[0] * D - k[3], k[0] * D - k[4])],
    "chiy": lambda k, D: [(*k[:4], k[0] * D - k[4])],
    "poincare": lambda k, D: [(k[0], k[1], 2 * k[0] * D - k[2], *k[3:])],
}


def assert_dual(kind, X, order):
    """Both routes of kind on X are fixed by the invariant maps of its
    family (the kind name before its first _), with D = dim_C, or
    dim_real / 2 where X has no Hodge table."""
    D = X.dim_c if X.dim_c is not None else X.dim_real // 2
    images = DUALITIES[kind.split("_")[0]]
    for route in (ob.brute_series, ob.closed_series):
        terms = route(kind, X, order).terms
        for image in zip(*(images(k, D) for k in terms)):
            assert dict(zip(image, terms.values())) == terms, (
                kind, route.__name__, X.name)


@st.composite
def dual_hodge_manifolds(draw):
    """Random Hodge tables of dim_C 1 to 3 symmetrized under both maps,
    Calabi-Yau (a B-table by Serre duality) now and then."""
    d = draw(st.integers(1, 3))
    h = draw(st.lists(st.lists(st.integers(0, 1), min_size=d + 1,
                               max_size=d + 1), min_size=d + 1,
                      max_size=d + 1))
    return ManifoldData("dual", dim_c=d, calabi_yau=draw(st.booleans()),
                        hodge=[[h[p][q] + h[q][p] + h[d - p][d - q]
                                + h[d - q][d - p] for q in range(d + 1)]
                               for p in range(d + 1)])


@st.composite
def palindromic_betti_manifolds(draw):
    """Random Betti lists palindromic about dim_real, odd classes
    included."""
    dim_real = draw(st.sampled_from((2, 4, 6)))
    low = draw(st.lists(st.integers(0, 2), min_size=dim_real // 2 + 1,
                        max_size=dim_real // 2 + 1))
    return ManifoldData("betti", dim_real=dim_real, betti=low + low[-2::-1])


HODGE_DUAL_KINDS = ("hodge_orb", "hodge_sym", "chiy_orb", "chiy_sym",
                    "poincare_orb")


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_catalog_series_keep_their_dualities(catalog, name):
    X = catalog[name]
    for kind in HODGE_DUAL_KINDS + ("chiy_orb_B",) * X.calabi_yau:
        assert_dual(kind, X, 3)


@settings(max_examples=12, deadline=None)
@given(dual_hodge_manifolds(), st.integers(0, 3))
def test_random_symmetric_tables_keep_their_dualities(X, order):
    for kind in HODGE_DUAL_KINDS + ("chiy_orb_B",) * X.calabi_yau:
        assert_dual(kind, X, order)


@settings(max_examples=12, deadline=None)
@given(palindromic_betti_manifolds(), st.integers(0, 4))
def test_random_palindromic_betti_keep_poincare_duality(X, order):
    assert_dual("poincare_orb", X, order)
