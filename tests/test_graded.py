import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (GradedDims, add, dsum, kronecker, read, shift,
                      sym_power_oracle, tensor, twist, zero)
from symprod.layouts import symmetric_powers
from symprod.series import Series, plethystic_exp, substitute

# degrees below are doubled: GradedDims({(0, 0): 1, (4, 0): 1}) is one class
# in degree 0 and one in degree 2


def G(natural):
    """A Betti table: degree d at (d, 0)."""
    return GradedDims({(2 * d, 0): b for d, b in natural.items()})


def B(natural):
    return GradedDims({(2 * p, 2 * q): h for (p, q), h in natural.items()})


K3 = B({(0, 0): 1, (2, 0): 1, (0, 2): 1, (1, 1): 20, (2, 2): 1})


# ---------------------------------------------------------------- shift / sums


def test_shift_translation():
    assert shift(G({0: 1, 2: 1}), 2) == G({1: 1, 3: 1})


def test_shift_zero_is_identity():
    v = G({0: 2, 3: 1})
    assert shift(v, 0) == v


def test_shift_half_step_on_k3():
    got = shift(K3, 1, 1)
    expect = GradedDims(
        {(1, 1): 1, (5, 1): 1, (1, 5): 1, (3, 3): 20, (5, 5): 1}
    )
    assert got == expect


def test_dsum_and_tensor_units():
    assert tensor(G({0: 1}), G({5: 7})) == G({5: 7})
    assert dsum(G({0: 1}), G({0: 2})) == G({0: 3})
    v = G({0: 1, 1: 1})
    assert tensor(v, v) == G({0: 1, 1: 2, 2: 1})


def test_odd_total_degree_has_no_parity():
    w = GradedDims({(1, 2): 1})
    with pytest.raises(ValueError):
        w.sym_power(2)
    with pytest.raises(ValueError):
        w.blocks()


# -------------------------------------------------------------- sym powers


def test_sym_power_two_even_classes():
    assert G({0: 1, 2: 1}).sym_power(2) == G({0: 1, 2: 1, 4: 1})


def test_sym_power_odd_generator_squares_to_zero():
    assert G({1: 1}).sym_power(2) == GradedDims({})


def test_sym_power_mixed_parity():
    assert G({0: 1, 1: 1}).sym_power(2) == G({0: 1, 1: 1})


def test_sym_power_exterior_square():
    assert G({1: 2}).sym_power(2) == G({2: 1})


def test_sym_power_zero_is_unit():
    assert G({3: 4}).sym_power(0) == G({0: 1})


def test_sym_power_rejects_half_integer_degrees():
    with pytest.raises(ValueError):
        GradedDims({(1, 0): 1}).sym_power(2)


def test_sym_power_matches_oracle_exhaustively():
    spaces = [
        G({0: 1, 2: 1}),
        G({1: 2}),
        G({0: 1, 1: 1, 2: 1}),
        G({1: 1, 2: 2, 3: 1}),
        G({0: 2, 1: 2, 3: 2}),
        G({0: 1, 1: 4, 2: 1}),
    ]
    for v in spaces:
        assert sum(v.dims.values()) <= 6
        for n in range(5):
            assert v.sym_power(n) == sym_power_oracle(v, n), (v, n)


def test_sym_power2_matches_oracle():
    tables = [
        B({(0, 0): 1, (1, 1): 1}),
        B({(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1}),
        B({(0, 1): 2, (1, 0): 2}),
        B({(0, 0): 1, (1, 1): 3, (2, 2): 1}),
    ]
    for w in tables:
        for n in range(5):
            assert w.sym_power(n) == sym_power_oracle(w, n), (w, n)


def test_sym_power2_half_integer_support():
    w = shift(B({(0, 0): 1, (1, 1): 1}), 1, 1)
    got = w.sym_power(2)
    # both shifted classes have odd total degree, so they anticommute
    assert got == GradedDims({(4, 4): 1})


@st.composite
def small_graded(draw):
    support = draw(
        st.dictionaries(
            st.integers(min_value=0, max_value=4),
            st.integers(min_value=1, max_value=2),
            max_size=3,
        )
    )
    return G(support)


@st.composite
def small_bigraded(draw):
    corner = st.integers(min_value=0, max_value=2)
    return B(draw(st.dictionaries(st.tuples(corner, corner),
                                  st.integers(min_value=1, max_value=2),
                                  max_size=3)))


def layout_of(v, n):
    """A Kronecker layout that holds every Sym^N of v, N <= n, at its
    (p, q) in x and y."""
    keys = [(0, 0, 0, p, q) for p, q in v.dims] or [(0,) * 5]
    bound = max([1] + [c for N in range(n + 1)
                       for c in sym_power_oracle(v, N).dims.values()])
    return kronecker([(1, k) for k in keys], n, bound)


@settings(max_examples=40, deadline=None)
@given(st.one_of(small_graded(), small_bigraded()),
       st.integers(min_value=0, max_value=4))
@example(GradedDims({}), 3)
@example(G({1: 2, 3: 1}), 4)
@example(K3, 0)
def test_symmetric_powers_match_the_oracle_at_every_power(v, n):
    # the DP of every power at once, and sym_power
    layout = layout_of(v, n)
    for N, power in enumerate(symmetric_powers(layout, v.blocks(), 1, n)):
        got = read(layout, [0] * N + [power])
        assert GradedDims({k[3:]: c for k, c in got.items()}) \
            == sym_power_oracle(v, N), N
    assert v.sym_power(n) == sym_power_oracle(v, n)


def test_sym_power_rejects_a_negative_power():
    with pytest.raises(ValueError, match="nonnegative"):
        G({0: 1}).sym_power(-1)
    with pytest.raises(ValueError, match="half-integer"):
        GradedDims({(1, 0): 1}).sym_power(2)


@settings(max_examples=40, deadline=None)
@given(small_graded(), small_graded(), st.integers(min_value=0, max_value=3))
def test_sym_power_of_direct_sum(v, w, n):
    lhs = dsum(v, w).sym_power(n)
    rhs = GradedDims({})
    for p in range(n + 1):
        rhs = dsum(rhs, tensor(v.sym_power(p), w.sym_power(n - p)))
    assert lhs == rhs


@settings(max_examples=25, deadline=None)
@given(small_graded())
def test_sym_power_generating_law(v):
    # sum_n p_t(Sym^n V) q^n = prod_{d odd}(1+t^d q)^{b_d}
    #                          / prod_{d even}(1-t^d q)^{b_d}
    order = 4
    lhs = zero("q", order)
    for n in range(order + 1):
        lhs = add(lhs, v.sym_power(n).poly("t") * Series.term(
            "q", order, 1, {"q": n}))
    f = v.poly("t") * Series.term("q", order, 1, {"q": 1})
    assert lhs == twist(plethystic_exp(twist(f)))


def test_shifted_generating_law():
    # sym powers of W[l,m] match the exponent-shifted product formula
    w = B({(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1})
    l2 = m2 = 1  # shift by (1/2, 1/2)
    shifted = shift(w, l2, m2)
    order = 4
    lhs = zero("q", order)
    for n in range(order + 1):
        lhs = add(lhs, shifted.sym_power(n).poly("x") * Series.term(
            "q", order, 1, {"q": n}))
    f = shifted.poly("x") * Series.term("q", order, 1, {"q": 1})
    assert lhs == twist(plethystic_exp(twist(f)))


# ------------------------------------------------------------------ series


def test_poincare_poly_read_off():
    assert str(G({0: 1, 2: 1}).poly("t")) == "1 + t^2"
    assert str(GradedDims({}).poly("t")) == "0"


def test_hodge_poly_k3():
    # canonical term order: x-exponent ascending before y
    got = K3.poly("x")
    assert str(got) == "1 + y^2 + 20*x*y + x^2 + x^2*y^2"


def test_partition_series_from_single_even_class():
    # one even generator: sym powers count one state per n
    v = G({0: 1})
    order = 5
    lhs = zero("q", order)
    for n in range(order + 1):
        lhs = add(lhs, v.sym_power(n).poly("t") * Series.term(
            "q", order, 1, {"q": n}))
    f = v.poly("t") * Series.term("q", order, 1, {"q": 1})
    assert lhs == twist(plethystic_exp(twist(f)))


def test_collapse_to_total_degree():
    assert K3.collapse() == G({0: 1, 1: 0, 2: 22, 3: 0, 4: 1})
    # the Poincare polynomial of the collapse is the Hodge one at x = y = t
    at_t = substitute(substitute(K3.poly("x"), "x", {"t": 1}), "y", {"t": 1})
    assert at_t == K3.collapse().poly("t")
