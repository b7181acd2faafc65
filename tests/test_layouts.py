import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import pe_oracle
from symprod import layouts
from symprod.layouts import MAX_LAYOUT_BITS, Kronecker
from symprod.series import VARS, Series, SeriesUsageError, plethystic_exp


# Doubled exponents: odd ones are half-integers, negative ones Laurent.
exponent = st.integers(-4, 4)
# Coefficients of both signs, small and past 2^64.
coefficient = st.one_of(st.integers(-3, 3), st.integers(-2**80, 2**80))


@st.composite
def integral_f(draw):
    """An integral f over q or p, up to order 6, in two of the four other
    variables (the other counting one included), so the slots stay few."""
    var = draw(st.sampled_from(("q", "p")))
    ti = VARS.index(var)
    order = draw(st.integers(0, 6))
    free = draw(st.lists(st.sampled_from([i for i in range(5) if i != ti]),
                         min_size=2, max_size=2, unique=True))
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        key = [0] * 5
        for i in free:
            key[i] = draw(exponent)
        key[ti] = 2 * draw(st.integers(1, max(order, 1)))
        terms[tuple(key)] = draw(coefficient)
    return Series(var, order, terms)


@settings(max_examples=150, deadline=None)
@given(integral_f())
@example(Series("p", 3, {(0, 2, -3, 0, 1): -2**70, (0, 4, 1, 0, -3): 5}))
def test_plethystic_exp_matches_the_oracle(f):
    assert plethystic_exp(f) == pe_oracle(f)


@st.composite
def factor_pair(draw):
    """Two {key: coeff} maps of degrees da and db in x and y."""
    def side():
        d = draw(st.integers(1, 3))
        keys = st.tuples(exponent, exponent).map(lambda e: (0, 0, 0) + e)
        return d, draw(st.dictionaries(keys, coefficient, max_size=6))
    return side(), side()


def as_series(terms, n):
    """The map of degree n as a q-series: the key with 2n at q."""
    return Series("q", None, {(2 * n,) + key[1:]: c
                              for key, c in terms.items()})


@settings(max_examples=150, deadline=None)
@given(factor_pair(), st.sampled_from((0, 256, 1 << 40)))
def test_kronecker_product_matches_mul_add_and_tuple_keys(pair, factor_bits):
    (da, a), (db, b) = pair
    expected = as_series(a, da) * as_series(b, db)
    units = [(da, key) for key in a] + [(db, key) for key in b]
    # no digit of a, of b or of the product outgrows this
    sa, sb = sum(map(abs, a.values())), sum(map(abs, b.values()))
    bound = max(sa * sb, sa, sb)
    lay, saved = Kronecker(units, da + db, bound), layouts.FACTOR_BITS
    layouts.FACTOR_BITS = factor_bits  # one int, or a shift-add per term
    try:
        value = lay.mul_add(0, lay.packed(a, da),
                            lay.factor(lay.packed(b, db)))
    finally:
        layouts.FACTOR_BITS = saved
    got = lay.read([0] * (da + db) + [value], 0)
    assert Series("q", None, got) == expected


def test_a_digit_at_the_width_bound_is_exact():
    # a bound of 2^63 has 64 bits: the slots take a sign bit more, so 72
    c = 2**63
    x = (0, 0, 0, 2, 0)
    lay = Kronecker([(1, x)], 1, c)
    assert lay.width == 72
    assert lay.read([0, lay.packed({x: c}, 1)], 0) == {(2, 0, 0, 2, 0): c}
    assert lay.read([0, lay.packed({x: -c}, 1)], 0) == {(2, 0, 0, 2, 0): -c}
    # PE[c x q] = 1 + c x q at order 1: n F_n reaches the bound exactly
    f = Series("q", 1, {(2, 0, 0, 2, 0): c})
    assert plethystic_exp(f) == Series("q", 1, {(0,) * 5: 1,
                                                (2, 0, 0, 2, 0): c})
    f = Series("q", 2, {(2, 0, 0, 2, 0): c - 1, (4, 0, 0, 1, 0): -c})
    assert plethystic_exp(f) == pe_oracle(f)


def test_plethystic_exp_refuses_fraction_coefficients():
    # the Kronecker layout holds ints: a Fraction is refused before any
    # layout is built, and so is one Fraction among int terms
    f = Series("q", 3, {(2, 0, 0, 2, 0): Fraction(1, 2)})
    with pytest.raises(SeriesUsageError, match="integer coefficients"):
        plethystic_exp(f)
    f = Series("q", 3, {(2, 0, 0, 0, 0): 1, (4, 0, 0, 2, 0): Fraction(-1, 3)})
    with pytest.raises(SeriesUsageError, match="integer coefficients"):
        plethystic_exp(f)


def test_a_layout_too_sparse_for_its_units_is_refused():
    # units 2^21 apart in x and in y (no common step): a square of 2^46
    # slots for a few dozen monomials is refused before any of it is built
    units = [(1, (0, 0, 0, 1, 0)), (1, (0, 0, 0, 2**21, 0)),
             (1, (0, 0, 0, 0, 1)), (1, (0, 0, 0, 0, 2**21))]
    tracemalloc.start()
    try:
        with pytest.raises(SeriesUsageError, match="spread too far"):
            Kronecker(units, 4, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    f = Series("q", 4, {(2, *key[1:]): 1 for _, key in units})
    with pytest.raises(SeriesUsageError, match="spread too far for order 4"):
        plethystic_exp(f)


def test_the_layout_limit_counts_every_slot_up_to_the_order():
    # one-byte slots, units x and x^e at order 1: 1 + e slots in all
    def layout(e):
        return Kronecker([(1, (0, 0, 0, 1, 0)), (1, (0, 0, 0, e, 0))], 1, 1)
    assert layout(MAX_LAYOUT_BITS // 8 - 1).width == 8
    with pytest.raises(SeriesUsageError, match="17 MiB"):
        layout(MAX_LAYOUT_BITS // 8)
