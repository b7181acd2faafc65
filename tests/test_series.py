from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from conftest import (pe_oracle, ref_render, ref_sort_key, ref_term,
                      specialize, twist, zero)
from symprod.series import (
    VARS,
    Series,
    SeriesDomainError,
    SeriesUsageError,
    first_mismatch,
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
        (H, {"x": H, "q": 2}),
    ])
    assert s.terms == {monomial_key({"t": 1}): 5,
                       monomial_key({"x": H, "q": 2}): H}


def test_from_terms_truncates_above_order():
    s = Series.from_terms("q", 2, [(1, {}), (1, {"q": 2}), (7, {"q": 3})])
    assert str(s) == "1 + q^2"
    assert s == Series.constant("q", 2, 1) + Series.term("q", 2, 1, {"q": 2})


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
        s * 1.5
    with pytest.raises(SeriesUsageError):
        1.5 * s
    with pytest.raises(SeriesUsageError):
        s + 1.5
    # a bool enters as the int it equals
    one = Series.constant("q", 2, True)
    assert str(one) == "1"
    assert [type(c) for c in one.terms.values()] == [int]
    assert [type(c) for c in (s * True).terms.values()] == [int]


def test_entry_rejects_the_other_counting_variable():
    # a q-series holds no power of p and a p-series none of q, at any
    # exponent and even beyond the order; constant takes no exponents
    for var, other in (("q", "p"), ("p", "q")):
        for e in (1, -1, H, 9):
            with pytest.raises(SeriesUsageError):
                Series.from_terms(var, 2, [(1, {}), (1, {var: 1, other: e})])
            with pytest.raises(SeriesUsageError):
                Series.term(var, None, 1, {other: e})
        assert Series.term(var, 2, 1, {other: 0}) == Series.constant(var, 2)


# ---------------------------------------------------------------- add / mul


def test_add_cancellation():
    a = S([(1, {}), (1, {"q": 1})], 3)
    b = S([(1, {}), (-1, {"q": 1})], 3)
    assert a + b == Series.constant("q", 3, 2)


def test_add_identity():
    s = S([(2, {"q": 1}), (1, {"t": 3, "q": 2})], 5)
    assert s + zero("q", 5) == s


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
    assert s * Series.constant("q", 4, 1) == s


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
    assert PE([(0, {"t": 2, "q": 1})], 4) == Series.constant("q", 4, 1)


def test_binom_half_exponent():
    # (1-q^2)^(-1/2) = 1 + q^2/2 + 3q^4/8 + ... has Fraction coefficients,
    # which the int layout of plethystic_exp does not hold: it refuses f
    with pytest.raises(SeriesUsageError, match="integer coefficients"):
        PE([(H, {"q": 2})], 4)


def test_binom_integer_alpha_matches_repeated_mul():
    # t*q is odd, so the twisted PE of e*t*q is (1 + t*q)^e
    base = S([(1, {}), (1, {"t": 1, "q": 1})], 5)
    power = Series.constant("q", 5, 1)
    for e in range(4):
        f = S([(e, {"t": 1, "q": 1})], 5)
        assert twist(plethystic_exp(twist(f))) == power
        assert plethystic_exp(f, super_signs=True) == power
        power = power * base


def test_binom_constant_monomial_rejected():
    with pytest.raises(SeriesUsageError):
        PE([(-1, {"t": 2})], 3)


def test_exp_zero():
    assert plethystic_exp(zero("q", 5)) == Series.constant("q", 5, 1)


def test_exp_of_scaled_log_matches_binomial():
    # PE[2q] = exp(-2 log(1-q)) = (1-q)^-2 through its ring law
    once = PE([(1, {"q": 1})], 3)
    assert PE([(2, {"q": 1})], 3) == once * once


def test_log1m_definition():
    # PE[-M] = exp(log(1 - M)) = 1 - M
    got = PE([(-1, {"t": 1, "q": 1})], 3)
    assert got == S([(1, {}), (-1, {"t": 1, "q": 1})], 3)


def test_exp_log_roundtrip_on_monomials():
    for exps in ({"q": 1}, {"q": 2}, {"t": 1, "q": 1}, {"x": H, "q": 2}):
        lhs = PE([(1, exps)], 6)
        rhs = Series.constant("q", 6, 1) + (-1) * Series.term("q", 6, 1, exps)
        assert lhs * rhs == Series.constant("q", 6, 1)


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


def test_pe_fraction_coefficients():
    # PE[q/2 + q^2/2] = (1-q)^(-1/2)(1-q^2)^(-1/2) is refused; the
    # signature kinds' exponents (chi -+ sgn)/2 are integers on every table
    with pytest.raises(SeriesUsageError, match="integer coefficients"):
        PE([(H, {"q": 1}), (H, {"q": 2})], 4)
    # a Fraction of denominator 1, as + and * may leave one, is an integer
    got = plethystic_exp(Series("q", 3, {(2, 0, 0, 0, 0): Fraction(4, 2)}))
    assert got == PE([(2, {"q": 1})], 3)
    assert all(type(c) is int for c in got.terms.values())


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
    assert str(zero("q", 2)) == "0"
    s = S([(1, {"y": -2, "p": 1})], 2, var="p")
    assert str(s) == "y^(-2)*p"


def test_first_mismatch_reports_lowest_term():
    a = S([(1, {}), (2, {"q": 1})], 2)
    b = S([(1, {}), (3, {"q": 1}), (1, {"q": 2})], 2)
    key, ca, cb = first_mismatch(a, b)
    assert (ca, cb) == (2, 3)


def ref_first_mismatch(a, b):
    for key in sorted(a.terms.keys() | b.terms.keys(), key=ref_sort_key(a.var)):
        if a.terms.get(key, 0) != b.terms.get(key, 0):
            return key, a.terms.get(key, 0), b.terms.get(key, 0)
    return None


# Terms with Laurent and half-integer t, x, y exponents and Fraction
# coefficients; few exponent values, so that keys often tie in a prefix.
render_terms = st.lists(st.tuples(
    st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4)),
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
               (3, {"n": 3, "x": 1}), (Fraction(-5, 2), {"n": 0, "x": 1}),
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
    assert first_mismatch(a, b) == ref_first_mismatch(a, b)
    # peeling a one term at a time walks first_mismatch through its order
    rest, empty = a, zero(var, 3)
    while rest.terms:
        key = first_mismatch(rest, empty)[0]
        assert key == ref_first_mismatch(rest, empty)[0]
        rest = Series(var, 3, {k: c for k, c in rest.terms.items() if k != key})
    for key in a.terms:
        assert render_key(key) == ref_term(var, key, 1)


def test_geometric_tail():
    got = PE([(1, {"q": 2})], 4) + (-1) * Series.constant("q", 4, 1)
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
    assert a + (-1) * a == zero("q", 3)


@settings(max_examples=30, deadline=None)
@given(small_series(), small_series())
def test_plethystic_exp_turns_sums_into_products(a, b):
    # drop the q^0 terms, which PE rejects
    a, b = (Series("q", 3, {k: c for k, c in s.terms.items() if k[0]})
            for s in (a, b))
    assert plethystic_exp(a + b) == plethystic_exp(a) * plethystic_exp(b)


# ------------------------------------------------------ exact coefficients (pbt)
# A result holds ints, or Fractions where Python's arithmetic makes them:
# never a float (an int divided by /) and never a bool (which renders True).

exact_coeffs = st.one_of(st.integers(-3, 3), st.booleans(),
                         st.integers(-3, 3).map(Fraction),
                         st.fractions(-2, 2, max_denominator=3))


@st.composite
def exact_series(draw):
    """(series, whether every drawn coefficient is an integer)."""
    terms = draw(st.lists(st.tuples(exact_coeffs, st.fixed_dictionaries(
        {"q": st.integers(0, 3)},
        optional={v: st.integers(-2, 2) for v in "txy"})), max_size=5))
    return S(terms, 3), all(Fraction(c).denominator == 1 for c, _ in terms)


def assert_exact(s, integral):
    for c in s.terms.values():
        assert type(c) is int if integral else type(c) in (int, Fraction), c


def is_integer(c):
    return Fraction(c).denominator == 1


@settings(max_examples=80, deadline=None)
@given(exact_series(), exact_series(), exact_coeffs)
def test_results_hold_exact_coefficients(a, b, c):
    (a, ia), (b, ib) = a, b
    assert_exact(a, ia)
    assert_exact(a + b, ia and ib)
    assert_exact(a * b, ia and ib)
    assert_exact(a * c, ia and is_integer(c))
    assert_exact(c * a, ia and is_integer(c))
    assert_exact(twist(a), ia)
    f = Series("q", 3, {k: v for k, v in a.terms.items() if k[0]})
    if f.is_integral():
        assert_exact(plethystic_exp(f), True)
        assert_exact(twist(plethystic_exp(twist(f))), True)
        assert_exact(plethystic_exp(f, super_signs=True), True)
    else:  # plethystic_exp takes integer coefficients only
        for g in (f, twist(f)):
            with pytest.raises(SeriesUsageError, match="integer coeff"):
                plethystic_exp(g)


@settings(max_examples=80, deadline=None)
@given(exact_series(), st.sampled_from("txy"),
       st.dictionaries(st.sampled_from("txy"), st.integers(-2, 2),
                       max_size=2), exact_coeffs)
def test_substitution_holds_exact_coefficients(a, v, exps, coeff):
    a, ia = a
    # coeff^e is an integer for every power e of v present
    integral = ia and is_integer(coeff) and (
        coeff in (-1, 1) or all(k[VARS.index(v)] >= 0 for k in a.terms))
    try:
        got = substitute(a, v, exps, coeff)
    except SeriesDomainError:
        assert coeff == 0
        return
    assert_exact(got, integral)
    assert_exact(specialize(a, {v: coeff}), integral)
    assert_exact(specialize(got, {w: -1 for w in "txy"}), integral)


def test_specialize_negative_power_is_a_fraction_not_a_float():
    got = specialize(S([(1, {"y": -1, "q": 1})], 2), {"y": 2})
    assert list(got.terms.items()) == [(monomial_key({"q": 1}), H)]
    assert type(got.terms[monomial_key({"q": 1})]) is Fraction
    assert str(got) == "1/2*q"
