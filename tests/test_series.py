from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from conftest import (add, mul, pe_oracle, ref_render, ref_sort_key,
                      ref_term, scale, specialize, term, twist, zero)
from symprod.series import (
    VARS,
    Series,
    SeriesDomainError,
    SeriesUsageError,
    mismatches,
    monomial_key,
    plethystic_exp,
    render_head,
    render_key,
    substitute,
)

H = Fraction(1, 2)


def S(terms, order=None, var="q"):
    return Series.from_terms(var, order, terms)


# ---------------------------------------------------------------- from_terms


def test_from_terms_sums_duplicates_and_drops_cancellations():
    s = Series.from_terms("q", 3, [
        (2, {"t": 1}), (1, {"q": 1}), (3, {"t": 1}), (-1, {"q": 1}),
        (4, {"x": H, "q": 2}),
    ])
    assert s.terms == {monomial_key({"t": 1}): 5,
                       monomial_key({"x": H, "q": 2}): 4}


def test_from_terms_truncates_above_order():
    s = Series.from_terms("q", 2, [(1, {}), (1, {"q": 2}), (7, {"q": 3})])
    assert str(s) == "1 + q^2"
    assert s == add(Series.constant("q", 2, 1), term("q", 2, 1, {"q": 2}))


def test_from_terms_rejects_float_coefficients():
    with pytest.raises(SeriesUsageError):
        Series.from_terms("q", 2, [(1.5, {"q": 1})])
    with pytest.raises(SeriesUsageError):
        Series.from_terms("q", 2, [(1.5, {"q": 1}), (-1.5, {"q": 1})])
    # counting exponents are checked where terms enter, even beyond the order
    for q in (-1, H, Fraction(21, 2)):
        with pytest.raises(SeriesUsageError):
            Series.from_terms("q", 2, [(1, {"q": q})])
    s = S([(1, {"q": 1})], 2)
    with pytest.raises(SeriesUsageError):
        scale(1.5, s)
    # a bool enters as the int it equals
    one = Series.constant("q", 2, True)
    assert str(one) == "1"
    assert [type(c) for c in one.terms.values()] == [int]
    assert [type(c) for c in scale(True, s).terms.values()] == [int]


def test_a_series_takes_no_sum_and_no_scalar_factor():
    # a Series has no arithmetic operator, a product of two included
    s = S([(1, {"q": 1})], 2)
    for op in (lambda: s * 3, lambda: 3 * s, lambda: s * 1.5,
               lambda: 1.5 * s, lambda: s + s, lambda: s + 1, lambda: 1 + s,
               lambda: s * s):
        with pytest.raises(TypeError):
            op()


def test_entry_rejects_the_other_counting_variable():
    # a q-series holds no power of p and a p-series none of q, at any
    # exponent and even beyond the order; constant takes no exponents
    for var, other in (("q", "p"), ("p", "q")):
        for e in (1, -1, H, 9):
            with pytest.raises(SeriesUsageError):
                Series.from_terms(var, 2, [(1, {}), (1, {var: 1, other: e})])
            with pytest.raises(SeriesUsageError):
                term(var, None, 1, {other: e})
        assert term(var, 2, 1, {other: 0}) == Series.constant(var, 2)


# ---------------------------------------------------------------- add / mul


def test_add_cancellation():
    a = S([(1, {}), (1, {"q": 1})], 3)
    b = S([(1, {}), (-1, {"q": 1})], 3)
    assert add(a, b) == Series.constant("q", 3, 2)


def test_add_identity():
    s = S([(2, {"q": 1}), (1, {"t": 3, "q": 2})], 5)
    assert add(s, zero("q", 5)) == s


def test_add_hand_expansion():
    a = S([(1, {"q": 1}), (1, {"t": 1, "q": 2})], 2)
    b = S([(1, {"t": 1, "q": 2})], 2)
    assert add(a, b) == S([(1, {"q": 1}), (2, {"t": 1, "q": 2})], 2)


def test_add_mismatched_vars():
    a, b = S([(1, {})], 3, "q"), S([(1, {})], 3, "p")
    with pytest.raises(SeriesUsageError):
        add(a, b)
    with pytest.raises(SeriesUsageError):
        mul(a, b)
    with pytest.raises(SeriesUsageError):
        mismatches(a, b)


def test_mul_difference_of_squares():
    a = S([(1, {}), (1, {"q": 1})], 2)
    b = S([(1, {}), (-1, {"q": 1})], 2)
    assert mul(a, b) == S([(1, {}), (-1, {"q": 2})], 2)


def test_mul_identity():
    s = S([(3, {"q": 1}), (1, {"x": H, "q": 2})], 4)
    assert mul(s, Series.constant("q", 4, 1)) == s


def test_mul_hand_expansion():
    a = S([(1, {}), (1, {"t": 1, "q": 1})], 2)
    b = S([(1, {}), (1, {"t": 3, "q": 1})], 2)
    expect = S(
        [(1, {}), (1, {"t": 1, "q": 1}), (1, {"t": 3, "q": 1}),
         (1, {"t": 4, "q": 2})],
        2,
    )
    assert mul(a, b) == expect


def test_mul_truncates_at_min_order():
    a = S([(1, {}), (1, {"q": 1})], 5)
    b = S([(1, {}), (1, {"q": 1})], 2)
    assert mul(a, b).order == 2


# ------------------------------------------------ plethystic exponential
# PE[c*M] = (1 - M)^(-c) for a monomial M, and PE[f + g] = PE[f] PE[g].


def PE(terms, order, var="q"):
    return plethystic_exp(S(terms, order, var))


def partition_counts(order):
    """Independent oracle: the partition-count DP."""
    table = [1] + [0] * order
    for part in range(1, order + 1):
        for n in range(part, order + 1):
            table[n] += table[n - part]
    return table


def test_binom_negative_two():
    # (1-q)^-2 = sum (j+1) q^j
    got = PE([(2, {"q": 1})], 3)
    assert got == S([(j + 1, {"q": j}) for j in range(4)], 3)


def test_binom_alpha_zero():
    assert PE([(0, {"t": 2, "q": 1})], 4) == Series.constant("q", 4, 1)


def test_binom_integer_alpha_matches_repeated_mul():
    # t*q is odd, so the twisted PE of e*t*q is (1 + t*q)^e
    base = S([(1, {}), (1, {"t": 1, "q": 1})], 5)
    power = Series.constant("q", 5, 1)
    for e in range(4):
        f = S([(e, {"t": 1, "q": 1})], 5)
        assert twist(plethystic_exp(twist(f))) == power
        assert plethystic_exp(f, super_signs=True) == power
        power = mul(power, base)


def test_binom_constant_monomial_rejected():
    with pytest.raises(SeriesUsageError):
        PE([(-1, {"t": 2})], 3)


def test_exp_zero():
    assert plethystic_exp(zero("q", 5)) == Series.constant("q", 5, 1)


def test_exp_of_scaled_log_matches_binomial():
    # PE[2q] = exp(-2 log(1-q)) = (1-q)^-2 through its ring law
    once = PE([(1, {"q": 1})], 3)
    assert PE([(2, {"q": 1})], 3) == mul(once, once)


def test_log1m_definition():
    # PE[-M] = exp(log(1 - M)) = 1 - M
    got = PE([(-1, {"t": 1, "q": 1})], 3)
    assert got == S([(1, {}), (-1, {"t": 1, "q": 1})], 3)


def test_exp_log_roundtrip_on_monomials():
    for exps in ({"q": 1}, {"q": 2}, {"t": 1, "q": 1}, {"x": H, "q": 2}):
        lhs = PE([(1, exps)], 6)
        rhs = add(Series.constant("q", 6, 1), term("q", 6, -1, exps))
        assert mul(lhs, rhs) == Series.constant("q", 6, 1)


def test_exp_rejects_constant_term():
    with pytest.raises(SeriesUsageError):
        plethystic_exp(Series.constant("q", 3, 1))


def test_exp_rejects_exact_series():
    with pytest.raises(SeriesUsageError):
        plethystic_exp(term("q", None, 1, {"q": 1}))


def test_levels_two_colors():
    # prod_l (1 - q^l)^-2 = PE[sum_l 2 q^l]
    got = PE([(2, {"q": l}) for l in range(1, 4)], 3)
    assert got == S([(1, {}), (2, {"q": 1}), (5, {"q": 2}), (10, {"q": 3})], 3)


def test_levels_all_one():
    assert PE([], 4) == Series.constant("q", 4, 1)


def test_levels_partition_numbers():
    got = PE([(1, {"q": l}) for l in range(1, 6)], 5)
    table = partition_counts(5)
    assert got == S([(table[n], {"q": n}) for n in range(6)], 5)


def test_levels_reject_bad_constant():
    with pytest.raises(SeriesUsageError):
        PE([(2, {}), (1, {"q": 1})], 3)


def test_levels_reject_low_order_terms():
    # every term needs a positive power of the counting variable, p included
    with pytest.raises(SeriesUsageError):
        PE([(1, {"y": -H}), (1, {"y": -H, "p": 1})], 3, var="p")


def test_pe_partition_numbers_at_high_order():
    # PE[q/(1-q)] is the partition generating function
    got = PE([(1, {"q": l}) for l in range(1, 31)], 30)
    assert [got.terms[(2 * n, 0, 0, 0, 0)] for n in range(31)] == \
        partition_counts(30)


# Doubled exponents of every size: odd (half-integer) and negative (Laurent)
# ones, and ones past 2^16 times the order, which no 16-bit field holds.
doubled = st.one_of(st.integers(-5, 5), st.integers(-2**20, 2**20))


@st.composite
def pe_input(draw):
    """f over q or p, up to order 6, every term carrying the counting
    variable, with int coefficients; the other four exponents are any
    doubled exponents."""
    var = draw(st.sampled_from(("q", "p")))
    order = draw(st.integers(0, 6))
    ti = VARS.index(var)
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        key = [draw(doubled) for _ in VARS]
        key[ti] = 2 * draw(st.integers(1, max(order, 1)))
        terms[tuple(key)] = draw(st.integers(-3, 3))
    return Series(var, order, terms)


@settings(max_examples=120, deadline=None)
@given(pe_input())
@example(Series("q", 0))
@example(Series("p", 4))
@example(Series("q", 5, {(2, 0, -2**19 - 1, 3, -7): 1,
                         (4, 2**18, 0, -1, 0): -3}))
def test_packed_plethystic_exp_matches_the_tuple_key_recurrence(f):
    # a Kronecker layout whose slots, on the lattice the units span, pass
    # layouts.MAX_LAYOUT_BITS (exponents far apart on a lattice of small
    # index) is refused up front, and every other f is expanded exactly
    try:
        got = plethystic_exp(f)
    except SeriesUsageError as exc:
        assert "spread too far" in str(exc)
        event("refused")
        return
    assert got == pe_oracle(f)


@settings(max_examples=40, deadline=None)
@given(pe_input())
@example(Series("q", 4, {(2, 0, 2, 0, 0): 3, (4, 0, 0, 1, 1): -2,
                         (2, 0, 0, 3, 1): 1}))
def test_super_signs_match_the_twisted_plethystic_exp(f):
    # the super PE in one recurrence is twist(PE[twist(f)]) wherever every
    # total t, x, y degree is an integer; a half-integer one has no parity
    if any((k[2] + k[3] + k[4]) % 2 for k in f.terms):
        with pytest.raises(SeriesDomainError, match="no parity"):
            plethystic_exp(f, super_signs=True)
        f = Series(f.var, f.order, {
            k[:4] + (k[4] + (k[2] + k[3] + k[4]) % 2,): c
            for k, c in f.terms.items()})
    try:
        expected = twist(plethystic_exp(twist(f)))
    except SeriesUsageError as exc:
        assert "spread too far" in str(exc)
        with pytest.raises(SeriesUsageError, match="spread too far"):
            plethystic_exp(f, super_signs=True)
        return
    assert plethystic_exp(f, super_signs=True) == expected


def test_twist_is_an_involution_and_signs_odd_degree():
    s = S([(1, {}), (2, {"t": 1, "q": 1}), (3, {"x": H, "y": H, "q": 1}),
           (5, {"x": 1, "y": 1, "q": 2})], 2)
    assert twist(twist(s)) == s
    assert twist(s) == S([(1, {}), (-2, {"t": 1, "q": 1}),
                          (-3, {"x": H, "y": H, "q": 1}),
                          (5, {"x": 1, "y": 1, "q": 2})], 2)
    with pytest.raises(SeriesDomainError):
        twist(S([(1, {"x": H, "q": 1})], 2))


# ---------------------------------------------------------------- substitute


def test_substitute_plain_variable():
    s = S([(1, {}), (1, {"t": 1, "q": 1})], 3)
    assert substitute(s, "t", {"t": 2}) == S([(1, {}), (1, {"t": 2, "q": 1})], 3)


def test_substitute_to_one():
    s = S([(1, {}), (1, {"x": 1, "q": 1})], 3)
    assert substitute(s, "x", {}) == S([(1, {}), (1, {"q": 1})], 3)


def test_substitute_rejects_vanishing_counting_var():
    # substitute neither replaces a counting variable (q or p, the
    # series' own or the other) nor brings one in, so it never moves a
    # series to another counting variable or order
    s = S([(1, {"y": 1, "q": 1})], 2)
    for v, exps in (("q", {"t": 1}), ("q", {"y": -H, "p": 1}),
                    ("q", {"q": 2}), ("p", {"t": 1}), ("p", {}),
                    ("t", {"q": 1}), ("y", {"p": 1, "y": 1})):
        with pytest.raises(SeriesUsageError, match="counting variable"):
            substitute(s, v, exps)
    p_series = S([(1, {"y": -H, "p": 1})], 2, var="p")
    for v, exps in (("p", {"p": 1}), ("q", {"t": 1}), ("x", {"q": 1})):
        with pytest.raises(SeriesUsageError, match="counting variable"):
            substitute(p_series, v, exps)
    with pytest.raises(SeriesUsageError, match="counting variable"):
        specialize(s, {"p": 1})


def test_substitute_zero_coefficient():
    s = S([(1, {}), (2, {"y": 1, "q": 1}), (3, {"y": H, "t": 1, "q": 2})], 2)
    assert substitute(s, "y", {}, 0) == S([(1, {})], 2)
    assert substitute(s, "y", {"t": 1}, 0) == S([(1, {})], 2)
    with pytest.raises(SeriesDomainError):
        substitute(S([(1, {}), (1, {"y": -1, "q": 1})], 2), "y", {}, 0)


def test_substitute_rejects_quarter_exponents():
    s = S([(1, {"x": H, "q": 1})], 2)
    with pytest.raises(SeriesDomainError):
        substitute(s, "x", {"x": H})


# ---------------------------------------------------------------- specialize


def test_specialize_signs():
    s = S([(1, {}), (1, {"x": 1, "y": 1, "q": 1})], 2)
    assert specialize(s, {"x": -1, "y": -1}) == S([(1, {}), (1, {"q": 1})], 2)


def test_specialize_half_exponent_negative_base_rejected():
    s = S([(1, {}), (1, {"x": H, "q": 1})], 2)
    with pytest.raises(SeriesDomainError):
        specialize(s, {"x": -1})


def test_specialize_half_exponent_at_one():
    s = S([(1, {}), (3, {"x": H, "q": 1})], 2)
    assert specialize(s, {"x": 1}) == S([(1, {}), (3, {"q": 1})], 2)


def test_specialize_zero_kills_positive_powers():
    s = S([(1, {}), (1, {"y": 1, "q": 1}), (1, {"q": 2})], 2)
    assert specialize(s, {"y": 0}) == S([(1, {}), (1, {"q": 2})], 2)


def test_specialize_counting_variable_rejected():
    with pytest.raises(SeriesUsageError):
        specialize(S([(1, {"q": 1})], 2), {"q": 1})


def test_substitute_specialize_commute_on_disjoint_vars():
    s = S([(1, {"t": 1, "x": 2, "q": 1}), (2, {"x": 1, "q": 2})], 3)
    a = specialize(substitute(s, "t", {"t": 3}), {"x": -1})
    b = substitute(specialize(s, {"x": -1}), "t", {"t": 3})
    assert a == b


# Of these ints only 0 and 1 have an integer square root, and they are the
# ones specialize takes at a strict half-integer exponent, and only 1 and -1
# have an integer inverse; so the oracle's "a^e when an integer, else
# rejected" is specialize's contract on every int draw.  A Fraction value
# is refused on entry.
VALUES = (-2, -1, 0, 1, 2, H, Fraction(-1, 3), Fraction(4, 2))


def power(a, e):
    """a^e for rational a and e in (1/2)Z; None when it is not rational."""
    a = Fraction(a)
    if a == 0 and e < 0:
        return None
    if e.denominator == 1:
        return a ** int(e)
    if a < 0:
        return None
    root = Fraction(isqrt(a.numerator), isqrt(a.denominator))
    return root ** int(2 * e) if root * root == a else None


def merge(pairs):
    """Sum (coeff, {var: exponent}) pairs by monomial; zeros drop."""
    merged = {}
    for c, exps in pairs:
        key = tuple(sorted((v, e) for v, e in exps.items() if e))
        merged[key] = merged.get(key, 0) + c
    return [(c, dict(key)) for key, c in merged.items() if c]


def evaluate(pairs, assignments):
    """The oracle: evaluate (coeff, {var: exponent}) pairs term by term, one
    variable after another.  Returns the evaluated pairs, or the error type
    of a rejected case."""
    pairs = merge(pairs)
    for v, a in assignments.items():
        if v == "q" or type(a) is not int:
            return SeriesUsageError
        out = []
        for c, exps in pairs:
            factor = power(a, Fraction(exps.get(v, 0)))
            if factor is None or factor.denominator != 1:
                return SeriesDomainError
            out.append((c * int(factor),
                        {w: e for w, e in exps.items() if w != v}))
        pairs = merge(out)
    return pairs


# (coeff, exps) pairs in q up to q^3 with t, x, y exponents in
# {-3/2, ..., 3/2}, half-integers included
laurent_terms = st.lists(st.tuples(
    st.integers(-3, 3).filter(bool),
    st.fixed_dictionaries({"q": st.integers(0, 3)}, optional={
        v: st.integers(-3, 3).map(lambda d: Fraction(d, 2)) for v in "txy"}),
), max_size=6)


assignments = st.lists(
    st.tuples(st.sampled_from("txyq"), st.sampled_from(VALUES)),
    min_size=1, max_size=3, unique_by=lambda item: item[0]).map(dict)


@settings(max_examples=150, deadline=None)
@given(laurent_terms, assignments)
def test_specialize_matches_termwise_evaluation(pairs, values):
    s = Series.from_terms("q", 3, pairs)
    expected = evaluate(pairs, values)
    if isinstance(expected, type):
        with pytest.raises(expected):
            specialize(s, values)
    else:
        assert specialize(s, values) == Series.from_terms("q", 3, expected)


# ---------------------------------------------------------------- rendering


def test_render_canonical_example():
    s = S([(1, {}), (2, {"q": 1}), (1, {"t": Fraction(3, 2), "q": 2})], 2)
    assert str(s) == "1 + 2*q + t^(3/2)*q^2"


def test_render_negative_and_fraction():
    s = S([(1, {}), (-1, {"q": 2}), (-3, {"t": 1, "q": 3})], 3)
    assert str(s) == "1 - q^2 - 3*t*q^3"
    # a Fraction coefficient never reaches the renderer: it is refused where
    # it would enter
    with pytest.raises(SeriesUsageError, match="must be ints"):
        S([(1, {}), (H, {"t": 1, "q": 3})], 3)


def test_render_zero_and_laurent():
    assert str(zero("q", 2)) == "0"
    s = S([(1, {"y": -2, "p": 1})], 2, var="p")
    assert str(s) == "y^(-2)*p"


def test_first_mismatch_reports_lowest_term():
    a = S([(1, {}), (2, {"q": 1})], 2)
    b = S([(1, {}), (3, {"q": 1}), (1, {"q": 2})], 2)
    assert mismatches(a, b) == [(monomial_key({"q": 1}), 2, 3),
                                (monomial_key({"q": 2}), 0, 1)]
    assert mismatches(a, a) == []


def ref_mismatches(a, b):
    return [(key, a.terms.get(key, 0), b.terms.get(key, 0))
            for key in sorted(a.terms.keys() | b.terms.keys(),
                              key=ref_sort_key(a.var))
            if a.terms.get(key, 0) != b.terms.get(key, 0)]


# Terms with Laurent and half-integer t, x, y exponents and int
# coefficients; few exponent values, so that keys often tie in a prefix.
render_terms = st.lists(st.tuples(
    st.one_of(st.integers(-3, 3), st.integers(-10**30, 10**30)),
    st.fixed_dictionaries({"n": st.integers(0, 3)}, optional={
        v: st.integers(-3, 3).map(lambda d: Fraction(d, 2)) for v in "txy"})),
    max_size=8)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(("q", "p")), render_terms, render_terms,
       st.integers(0, 9))
# one doubled exponent on two or three variables of a term: a factor text
# keyed by the exponent alone would print x^(3/2)*x^(3/2)
@example("q", [(1, {"n": 1, "x": Fraction(3, 2), "y": Fraction(3, 2)}),
               (-2, {"n": 2, "t": Fraction(-1, 2), "x": Fraction(-1, 2),
                     "y": Fraction(-1, 2)})], [], 9)
# +-1 and |c| > 1 on one monomial shape, and on the constant, whose
# render_key is "1"
@example("p", [(1, {"n": 1, "x": 1}), (-1, {"n": 2, "x": 1}),
               (3, {"n": 3, "x": 1}), (-5, {"n": 0, "x": 1}),
               (7, {"n": 0})], [(-1, {"n": 1, "x": 1})], 2)
@example("q", [(-1, {"n": 0})], [(1, {"n": 0})], 0)
def test_rendering_matches_the_explicit_canonical_order(var, t1, t2, limit):
    def series(terms):  # "n" is the exponent of the counting variable
        return Series.from_terms(var, 3, [
            (c, {(var if v == "n" else v): e for v, e in exps.items()})
            for c, exps in terms])
    a, b = series(t1), series(t1 + t2)
    assert str(a) == ref_render(a)
    assert render_head(a, limit) == ref_render(a, limit)
    assert mismatches(a, b) == ref_mismatches(a, b)
    # peeling a one term at a time walks mismatches through its order
    rest, empty = a, zero(var, 3)
    while rest.terms:
        key = mismatches(rest, empty)[0][0]
        assert key == ref_mismatches(rest, empty)[0][0]
        rest = Series(var, 3, {k: c for k, c in rest.terms.items() if k != key})
    for key in a.terms:
        assert render_key(key) == ref_term(var, key, 1)


def test_geometric_tail():
    got = add(PE([(1, {"q": 2})], 4), Series.constant("q", 4, -1))
    assert got == S([(1, {"q": 2}), (1, {"q": 4})], 4)


# ------------------------------------------------------------- ring laws (pbt)

coeffs = st.integers(min_value=-4, max_value=4)


@st.composite
def small_series(draw):
    n = draw(st.integers(min_value=0, max_value=4))
    terms = []
    for _ in range(n):
        c = draw(coeffs)
        qe = draw(st.integers(min_value=0, max_value=3))
        t2 = draw(st.integers(min_value=-2, max_value=4))
        terms.append((c, {"q": qe, "t": Fraction(t2, 2)}))
    return S(terms, 3)


@settings(max_examples=60, deadline=None)
@given(small_series(), small_series(), small_series())
def test_ring_laws(a, b, c):
    assert add(add(a, b), c) == add(a, add(b, c))
    assert add(a, b) == add(b, a)
    assert mul(a, b) == mul(b, a)
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


@settings(max_examples=30, deadline=None)
@given(small_series())
def test_additive_inverse(a):
    assert add(a, scale(-1, a)) == zero("q", 3)


@settings(max_examples=30, deadline=None)
@given(small_series(), small_series())
def test_plethystic_exp_turns_sums_into_products(a, b):
    # drop the q^0 terms, which PE rejects
    a, b = (Series("q", 3, {k: c for k, c in s.terms.items() if k[0]})
            for s in (a, b))
    assert plethystic_exp(add(a, b)) == \
        mul(plethystic_exp(a), plethystic_exp(b))


# ------------------------------------------------------ exact coefficients (pbt)
# A result holds ints: never a float (an int divided by /), a Fraction (an
# int raised to a negative power) or a bool (which renders True).

exact_coeffs = st.one_of(st.integers(-3, 3), st.booleans())


@st.composite
def exact_series(draw):
    terms = draw(st.lists(st.tuples(exact_coeffs, st.fixed_dictionaries(
        {"q": st.integers(0, 3)},
        optional={v: st.integers(-2, 2) for v in "txy"})), max_size=5))
    return S(terms, 3)


def assert_ints(s):
    for c in s.terms.values():
        assert type(c) is int, c


@settings(max_examples=80, deadline=None)
@given(exact_series(), exact_series(), exact_coeffs)
def test_results_hold_exact_coefficients(a, b, c):
    assert_ints(a)
    assert_ints(add(a, b))
    assert_ints(mul(a, b))
    assert_ints(scale(c, a))
    assert_ints(mul(a, Series.constant("q", None, c)))
    assert_ints(twist(a))
    f = Series("q", 3, {k: v for k, v in a.terms.items() if k[0]})
    assert_ints(plethystic_exp(f))
    assert_ints(twist(plethystic_exp(twist(f))))
    assert_ints(plethystic_exp(f, super_signs=True))


@settings(max_examples=80, deadline=None)
@given(exact_series(), st.sampled_from("txy"),
       st.dictionaries(st.sampled_from("txy"), st.integers(-2, 2),
                       max_size=2), exact_coeffs)
def test_substitution_holds_exact_coefficients(a, v, exps, coeff):
    # coeff^e is an integer for every power e of v present unless e < 0
    # and coeff is not 1 or -1, and then substitute refuses
    try:
        got = substitute(a, v, exps, coeff)
    except SeriesDomainError:
        assert coeff not in (-1, 1)
        assert any(k[VARS.index(v)] < 0 for k in a.terms)
        return
    assert_ints(got)
    assert_ints(specialize(a, {v: coeff}))
    assert_ints(specialize(got, {w: -1 for w in "txy"}))


def test_coefficients_enter_as_ints_only():
    # from_terms, constant and substitute refuse a Fraction coefficient,
    # even one of denominator 1
    s = S([(1, {"y": -1, "q": 1}), (1, {"y": 2, "q": 1})], 2)
    for c in (H, Fraction(4, 2)):
        with pytest.raises(SeriesUsageError, match="must be ints"):
            Series.from_terms("q", 2, [(c, {"q": 1})])
        with pytest.raises(SeriesUsageError, match="must be ints"):
            Series.constant("q", 2, c)
        with pytest.raises(SeriesUsageError, match="must be ints"):
            substitute(s, "y", {}, c)
    # +-1 at a negative power stays an int, never the float of (-1) ** -1
    for c in (1, -1, True):
        got = substitute(s, "y", {"x": 1}, c)
        assert got == S([(c, {"x": -1, "q": 1}), (1, {"x": 2, "q": 1})], 2)
        assert_ints(got)


def test_specialize_negative_power_is_refused_not_a_fraction():
    # 2 y^(-1) at y = 2 would be the Fraction 1/2: refused, as is y -> 2/y
    # on y^(-1), while 2 at a positive power is the int it makes
    s = S([(1, {"y": -1, "q": 1})], 2)
    with pytest.raises(SeriesDomainError):
        specialize(s, {"y": 2})
    with pytest.raises(SeriesDomainError):
        substitute(s, "y", {"y": -1}, 2)
    got = substitute(S([(3, {"y": 2, "q": 1})], 2), "y", {"y": -1}, 2)
    assert got == S([(12, {"y": -2, "q": 1})], 2)
    assert_ints(got)
