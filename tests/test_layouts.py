from contextlib import contextmanager
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import pe_oracle
from symprod import layouts
from symprod.layouts import Codec, Kronecker, mul_add
from symprod.series import VARS, Series, plethystic_exp


@contextmanager
def path(bits_per_term):
    """Force the dense (inf) or the sparse (-1) path of choose_layout."""
    saved = layouts.BITS_PER_TERM
    layouts.BITS_PER_TERM = bits_per_term
    try:
        yield
    finally:
        layouts.BITS_PER_TERM = saved


def dense_pe(f):
    with path(float("inf")):
        return plethystic_exp(f)


def sparse_pe(f):
    with path(-1):
        return plethystic_exp(f)


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
def test_dense_plethystic_exp_matches_the_sparse_path_and_the_oracle(f):
    dense = dense_pe(f)
    assert dense == pe_oracle(f)
    assert dense == sparse_pe(f)


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
    codec = Codec(8 * (da + db))
    sparse = mul_add({}, codec.packed(a), codec.packed(b))
    assert Series("q", None, codec.read(
        [{}] * (da + db) + [sparse], 0)) == expected


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
    assert dense_pe(f) == Series("q", 1, {(0,) * 5: 1, (2, 0, 0, 2, 0): c})
    f = Series("q", 2, {(2, 0, 0, 2, 0): c - 1, (4, 0, 0, 1, 0): -c})
    assert dense_pe(f) == pe_oracle(f)


def test_fraction_coefficients_take_the_sparse_path():
    f = Series("q", 3, {(2, 0, 0, 2, 0): Fraction(1, 2)})
    with path(float("inf")):
        assert plethystic_exp(f) == pe_oracle(f)
    assert isinstance(layouts.choose_layout([(1, (0,) * 5)], 3, None), Codec)


def test_a_layout_too_sparse_for_its_units_is_refused():
    # units 2^21 apart in x and in y (no common step): a square of 2^46
    # slots for a few dozen monomials is refused before any of it is built
    units = [(1, (0, 0, 0, 1, 0)), (1, (0, 0, 0, 2**21, 0)),
             (1, (0, 0, 0, 0, 1)), (1, (0, 0, 0, 0, 2**21))]
    lay, bits = layouts.layout_measure(units, 4, 10)
    assert bits > layouts.BITS_PER_TERM
    assert isinstance(layouts.choose_layout(units, 4, 10), Codec)
