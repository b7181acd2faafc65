from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symprod.series import (
    Series,
    SeriesDomainError,
    SeriesUsageError,
    first_mismatch,
    monomial_key,
    plethystic_exp,
    specialize,
    substitute,
    twist,
)

H = Fraction(1, 2)


def S(terms, order=None, var="q"):
    return Series.from_terms(var, order, terms)


# ---------------------------------------------------------------- from_terms


def test_from_terms_sums_duplicates_and_drops_cancellations():
    s = Series.from_terms("q", 3, [
        (2, {"t": 1}), (1, {"q": 1}), (3, {"t": 1}), (-1, {"q": 1}),
        (H, {"x": H, "q": 2}),
    ])
    assert s.terms == {monomial_key({"t": 1}): 5,
                       monomial_key({"x": H, "q": 2}): H}


def test_from_terms_truncates_above_order():
    s = Series.from_terms("q", 2, [(1, {}), (1, {"q": 2}), (7, {"q": 3})])
    assert str(s) == "1 + q^2"
    assert s == Series.one("q", 2) + Series.term("q", 2, 1, {"q": 2})


def test_from_terms_rejects_float_coefficients():
    with pytest.raises(SeriesUsageError):
        Series.from_terms("q", 2, [(1.5, {"q": 1})])
    with pytest.raises(SeriesUsageError):
        Series.from_terms("q", 2, [(1.5, {"q": 1}), (-1.5, {"q": 1})])


# ---------------------------------------------------------------- add / mul


def test_add_cancellation():
    a = S([(1, {}), (1, {"q": 1})], 3)
    b = S([(1, {}), (-1, {"q": 1})], 3)
    assert a + b == Series.constant("q", 3, 2)


def test_add_identity():
    s = S([(2, {"q": 1}), (1, {"t": 3, "q": 2})], 5)
    assert s + Series.zero("q", 5) == s


def test_add_hand_expansion():
    a = S([(1, {"q": 1}), (1, {"t": 1, "q": 2})], 2)
    b = S([(1, {"t": 1, "q": 2})], 2)
    assert a + b == S([(1, {"q": 1}), (2, {"t": 1, "q": 2})], 2)


def test_add_mismatched_vars():
    with pytest.raises(SeriesUsageError):
        S([(1, {})], 3, "q") + S([(1, {})], 3, "p")


def test_mul_difference_of_squares():
    a = S([(1, {}), (1, {"q": 1})], 2)
    b = S([(1, {}), (-1, {"q": 1})], 2)
    assert a * b == S([(1, {}), (-1, {"q": 2})], 2)


def test_mul_identity():
    s = S([(3, {"q": 1}), (1, {"x": H, "q": 2})], 4)
    assert s * Series.one("q", 4) == s


def test_mul_hand_expansion():
    a = S([(1, {}), (1, {"t": 1, "q": 1})], 2)
    b = S([(1, {}), (1, {"t": 3, "q": 1})], 2)
    expect = S(
        [(1, {}), (1, {"t": 1, "q": 1}), (1, {"t": 3, "q": 1}),
         (1, {"t": 4, "q": 2})],
        2,
    )
    assert a * b == expect


def test_mul_truncates_at_min_order():
    a = S([(1, {}), (1, {"q": 1})], 5)
    b = S([(1, {}), (1, {"q": 1})], 2)
    assert (a * b).order == 2


# ------------------------------------------------ plethystic exponential
# PE[c*M] = (1 - M)^(-c) for a monomial M, and PE[f + g] = PE[f] * PE[g].


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
    assert PE([(0, {"t": 2, "q": 1})], 4) == Series.one("q", 4)


def test_binom_half_exponent():
    # (1-q^2)^(-1/2) = 1 + q^2/2 + 3q^4/8 + ...
    got = PE([(H, {"q": 2})], 4)
    assert got == S([(1, {}), (H, {"q": 2}), (Fraction(3, 8), {"q": 4})], 4)


def test_binom_integer_alpha_matches_repeated_mul():
    # t*q is odd, so the twisted PE of e*t*q is (1 + t*q)^e
    base = S([(1, {}), (1, {"t": 1, "q": 1})], 5)
    for e in range(4):
        f = S([(e, {"t": 1, "q": 1})], 5)
        assert twist(plethystic_exp(twist(f))) == base**e


def test_binom_constant_monomial_rejected():
    with pytest.raises(SeriesUsageError):
        PE([(-1, {"t": 2})], 3)


def test_exp_zero():
    assert plethystic_exp(Series.zero("q", 5)) == Series.one("q", 5)


def test_exp_of_scaled_log_matches_binomial():
    # PE[2q] = exp(-2 log(1-q)) = (1-q)^-2 through its ring law
    assert PE([(2, {"q": 1})], 3) == PE([(1, {"q": 1})], 3) ** 2


def test_log1m_definition():
    # PE[-M] = exp(log(1 - M)) = 1 - M
    got = PE([(-1, {"t": 1, "q": 1})], 3)
    assert got == S([(1, {}), (-1, {"t": 1, "q": 1})], 3)


def test_exp_log_roundtrip_on_monomials():
    for exps in ({"q": 1}, {"q": 2}, {"t": 1, "q": 1}, {"x": H, "q": 2}):
        lhs = PE([(1, exps)], 6)
        rhs = Series.one("q", 6) - Series.term("q", 6, 1, exps)
        assert lhs * rhs == Series.one("q", 6)


def test_exp_rejects_constant_term():
    with pytest.raises(SeriesUsageError):
        plethystic_exp(Series.constant("q", 3, 1))


def test_exp_rejects_exact_series():
    with pytest.raises(SeriesUsageError):
        plethystic_exp(Series.term("q", None, 1, {"q": 1}))


def test_levels_two_colors():
    # prod_l (1 - q^l)^-2 = PE[sum_l 2 q^l]
    got = PE([(2, {"q": l}) for l in range(1, 4)], 3)
    assert got == S([(1, {}), (2, {"q": 1}), (5, {"q": 2}), (10, {"q": 3})], 3)


def test_levels_all_one():
    assert PE([], 4) == Series.one("q", 4)


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


def test_pe_fraction_coefficients():
    # the signature kinds' exponents: PE[q/2 + q^2/2] = (1-q)^(-1/2)(1-q^2)^(-1/2)
    got = PE([(H, {"q": 1}), (H, {"q": 2})], 4)
    assert not got.is_integral()
    assert got * got == PE([(1, {"q": 1}), (1, {"q": 2})], 4)


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


def test_substitute_counting_variable_moves_truncation():
    # q -> y^(-1/2) p turns a q-series into a p-series with y-Laurent tails
    s = S([(1, {}), (1, {"y": 1, "q": 1}), (2, {"q": 2})], 2)
    got = substitute(s, "q", {"y": -H, "p": 1})
    assert got.var == "p"
    assert got == S(
        [(1, {}), (1, {"y": H, "p": 1}), (2, {"y": -1, "p": 2})], 2, var="p"
    )


def test_substitute_counting_variable_scaling():
    s = S([(1, {}), (1, {"q": 1})], 2)
    got = substitute(s, "q", {"q": 2})
    assert got.order == 4
    assert got == S([(1, {}), (1, {"q": 2})], 4)


def test_substitute_rejects_vanishing_counting_var():
    s = S([(1, {"q": 1})], 2)
    with pytest.raises(SeriesUsageError):
        substitute(s, "q", {"t": 1})


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


# Of these values only 0 and 1 have a rational square root, and they are the
# ones specialize takes at a strict half-integer exponent; so the oracle's
# "a^e when rational, else rejected" is specialize's contract on every draw.
VALUES = (-2, -1, 0, 1, 2, H, Fraction(-1, 3))


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
        if v == "q":
            return SeriesUsageError
        out = []
        for c, exps in pairs:
            factor = power(a, Fraction(exps.get(v, 0)))
            if factor is None:
                return SeriesDomainError
            out.append((c * factor, {w: e for w, e in exps.items() if w != v}))
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
    s = S([(1, {}), (-1, {"q": 2}), (H, {"t": 1, "q": 3})], 3)
    assert str(s) == "1 - q^2 + 1/2*t*q^3"


def test_render_zero_and_laurent():
    assert str(Series.zero("q", 2)) == "0"
    s = S([(1, {"y": -2, "p": 1})], 2, var="p")
    assert str(s) == "y^(-2)*p"


def test_first_mismatch_reports_lowest_term():
    a = S([(1, {}), (2, {"q": 1})], 2)
    b = S([(1, {}), (3, {"q": 1}), (1, {"q": 2})], 2)
    key, ca, cb = first_mismatch(a, b)
    assert (ca, cb) == (2, 3)


def test_geometric_tail():
    got = PE([(1, {"q": 2})], 4) - Series.one("q", 4)
    assert got == S([(1, {"q": 2}), (1, {"q": 4})], 4)


# ------------------------------------------------------------- ring laws (pbt)

coeffs = st.integers(min_value=-4, max_value=4).map(Fraction)


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
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=30, deadline=None)
@given(small_series())
def test_additive_inverse(a):
    assert a + (-a) == Series.zero("q", 3)


@settings(max_examples=30, deadline=None)
@given(small_series(), small_series())
def test_plethystic_exp_turns_sums_into_products(a, b):
    # drop the q^0 terms, which PE rejects
    a, b = (Series("q", 3, {k: c for k, c in s.terms.items() if k[0]})
            for s in (a, b))
    assert plethystic_exp(a + b) == plethystic_exp(a) * plethystic_exp(b)
