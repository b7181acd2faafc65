import gc
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import pytest

from symprod import graded
from symprod.cli import catalog_dir, load_manifold
from symprod.layouts import (Kronecker, SlotMap, sector_bound, sector_units,
                             symmetric_powers)
from symprod.series import (VARS, Series, SeriesDomainError,
                            SeriesUsageError, substitute)

CATALOG_NAMES = (
    "point", "p1", "elliptic", "genus2", "p2", "k3", "abelian", "p1xp1",
)


@pytest.fixture(scope="session")
def catalog():
    return {
        name: load_manifold(catalog_dir() / (name + ".json"))
        for name in CATALOG_NAMES
    }


def traced_peak(build):
    """The tracemalloc peak, in bytes, of running build().  The collector
    runs first, so objects that earlier tests left on the free lists do
    not hide part of the peak: a tuple taken from a free list is not
    traced."""
    gc.collect()
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def letters(space, factors):
    """The state of space with the given (level, class) factors: the int
    letter of (l, g) is (l - 1) * G + g for G classes."""
    return tuple((l - 1) * len(space.odd) + g for l, g in factors)


def state_charge(space, state):
    """The charge of a Fock state: the sum of its factors' levels."""
    return sum(l for l, _ in space.word(state))


def state_degree(space, state):
    """The total degree of a Fock state, read off its (level, class) word:
    the level-l copy of a class weighs its shifted degree + l*d (so the
    vacuum sits in degree zero)."""
    return sum(space.shifted[g] + l * space.d for l, g in space.word(state))


def kronecker(units, order, bound):
    """The layout of the slot map of units up to order, at the slot width
    of bound."""
    return Kronecker(SlotMap(units, order), bound)


def read(layout, ints, ti=0):
    """{key: coeff} of sum_n ints[n] v^n, v the counting variable at index
    ti, read back through a packed Series; the ints are dropped from the
    list as they are decoded."""
    return Series.from_layout(VARS[ti], None, layout, ints).terms


def sym_power(v, n):
    """The n-th super symmetric power of the GradedDims v, by
    layouts.symmetric_powers on the ints of the layout of the sector units
    and bound of Sym^n, as the brute sector sums build it.  ValueError on
    n < 0 or a half-integer degree, and SeriesUsageError (a ValueError) on
    a layout past layouts.MAX_LAYOUT_BITS."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    blocks = v.blocks()
    layout = kronecker(sector_units(1, [key for key, _, _ in blocks],
                                    (0,) * 5),
                       n, sector_bound(n, 1, sum(v.dims.values())))
    top = symmetric_powers(layout, blocks, 1, n)[n]
    return GradedDims({key[3:]: c for key, c in
                       read(layout, [0] * n + [top]).items()})


class GradedDims(graded.GradedDims):
    """symprod's GradedDims with sym_power(n), which only the tests read."""

    __slots__ = ()
    sym_power = sym_power


def specialize(s, assignments):
    """Assign int values to non-counting variables, one after another:
    each is substitute(s, v, {}, value).  A strict half-integer exponent
    only takes the values 1 and 0, and a negative one only 1 and -1."""
    for v, value in assignments.items():
        s = substitute(s, v, {}, value)
    return s


def _partitions_desc(n, cap):
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in _partitions_desc(n - first, first):
            yield (first,) + rest


def cycle_types(n):
    """All cycle types of S_n, each once, as {l: N_l} maps (N_l l-cycles)
    with l descending, the partitions in descending-lex order: the
    class-by-class picture that orbifold._sector_sum is checked against."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return [dict(Counter(parts)) for parts in _partitions_desc(n, n)]


def sym_power_oracle(v, n):
    """Sym^n of v by explicit basis enumeration (exponential; n small):
    multisets over the even generators, subsets over the odd ones."""
    evens, odds = [], []
    for (p, q), b in sorted(v.dims.items()):
        if (p + q) % 2:
            raise ValueError("oracle needs integer total degrees")
        (odds if (p + q) // 2 % 2 else evens).extend([(p, q)] * b)
    out = Counter()
    for j in range(n + 1):
        for oc in combinations(odds, j):
            for ec in combinations_with_replacement(evens, n - j):
                basis = oc + ec
                out[sum(p for p, _ in basis), sum(q for _, q in basis)] += 1
    return GradedDims(out)


def counting_coefficient(s, n):
    """The coefficient of the counting variable^n in the series s, as
    {key with the counting exponent 0: coeff}."""
    ti = VARS.index(s.var)
    return {key[:ti] + (0,) + key[ti + 1:]: c
            for key, c in s.terms.items() if key[ti] == 2 * n}


def zero(var, order=None):
    """The zero series."""
    return Series(var, order, {})


def term(var, order, coeff, exps):
    """The single term coeff * prod(v^e), exponents in (1/2)Z."""
    return Series.from_terms(var, order, [(coeff, exps)])


def _lower_order(a, b):
    """The lower of the orders of two series over one counting variable."""
    if a.var != b.var:
        raise SeriesUsageError("mismatched counting variables %r and %r"
                               % (a.var, b.var))
    return min((n for n in (a.order, b.order) if n is not None),
               default=None)


def add(a, b):
    """a + b, at the lower of their orders.  The engine adds series only
    inside its packed kernels, so a sum of Series values is built here."""
    order = _lower_order(a, b)
    terms = dict(a.terms)
    for key, c in b.terms.items():
        terms[key] = terms.get(key, 0) + c
    return Series(a.var, order, terms)


def mul(a, b):
    """a b, at the lower of their orders, by the double loop over both
    term dicts, exponents adding key by key.  The engine multiplies
    series only inside its packed kernels, so a product of Series values
    is built here, a route apart from theirs."""
    order = _lower_order(a, b)
    cap, ti = None if order is None else 2 * order, VARS.index(a.var)
    terms = {}
    for k1, c1 in a.terms.items():
        for k2, c2 in b.terms.items():
            if cap is None or k1[ti] + k2[ti] <= cap:
                key = tuple(e1 + e2 for e1, e2 in zip(k1, k2))
                terms[key] = terms.get(key, 0) + c1 * c2
    return Series(a.var, order, terms)


def scale(c, s):
    """c s for an int c, entering through from_terms."""
    return mul(Series.constant(s.var, None, c), s)


def twist(s):
    """Multiply every term by (-1)^(total t, x, y degree); an involution.

    twist(plethystic_exp(twist(f))) is the super plethystic exponential,
    the oracle of plethystic_exp(f, super_signs=True): a term c*M of f with
    odd total degree contributes (1 + M)^c in place of (1 - M)^(-c), as an
    odd class does in a super symmetric power.
    """
    terms = {}
    for key, c in s.terms.items():
        d = key[2] + key[3] + key[4]  # doubled total t, x, y degree
        if d % 2:
            raise SeriesDomainError("a half-integer total degree has no parity")
        terms[key] = -c if d % 4 else c
    return Series(s.var, s.order, terms)


def shift(v, dp, dq=0):
    """v with all bidegrees translated by (dp/2, dq/2) (doubled shifts)."""
    return GradedDims({(p + dp, q + dq): b for (p, q), b in v.dims.items()})


def euler_number(v):
    """Alternating sum of the dimensions of v, signed by total degree."""
    return sum(-b if (p + q) % 4 else b for (p, q), b in v.dims.items())


def dsum(a, b):
    """Direct sum of two dimension tables."""
    out = Counter(a.dims)
    out.update(b.dims)
    return GradedDims(out)


def tensor(a, b):
    """Tensor product of two dimension tables: bidegrees add."""
    out = Counter()
    for (p1, q1), b1 in a.dims.items():
        for (p2, q2), b2 in b.dims.items():
            out[p1 + p2, q1 + q2] += b1 * b2
    return GradedDims(out)


def pe_oracle(f):
    """PE[f] by the Euler-transform recurrence n F_n = sum_k D_k F_(n-k)
    on 5-tuple keys, multiplying monomials exponent by exponent."""
    order, ti = f.order, ("q", "p").index(f.var)
    D = [Counter() for _ in range(order + 1)]
    for key, c in f.terms.items():
        d = key[ti] // 2
        base = key[:ti] + (0,) + key[ti + 1:]
        for j in range(1, order // d + 1):
            D[d * j][tuple(j * e for e in base)] += d * c
    F, terms = [{(0,) * 5: 1}], {(0,) * 5: 1}
    for n in range(1, order + 1):
        acc = Counter()
        for k in range(1, n + 1):
            for m1, c1 in D[k].items():
                for m2, c2 in F[n - k].items():
                    acc[tuple(a + b for a, b in zip(m1, m2))] += c1 * c2
        F.append({m: c // n for m, c in acc.items() if c})
        for m, c in F[n].items():
            terms[m[:ti] + (2 * n,) + m[ti + 1:]] = c
    return Series(f.var, order, terms)


def packed(layout, terms, n):
    """The int of a {key: int coeff} map of degree n in layout, packed from
    the slot of each key."""
    return layout.packed({layout.slot(key, n): c for key, c in terms.items()})


# The canonical order and factor text of the rendering, spelled out as an
# explicit sort key (counting exponent, then t, x, y) and a per-variable
# factor rule; the library instead sorts the keys as they are.
REF_ORDER = ("t", "x", "y", "p", "q")


def ref_sort_key(var):
    others = [VARS.index(v) for v in REF_ORDER if v != var]
    return lambda key: (key[VARS.index(var)],) + tuple(key[i] for i in others)


def ref_term(var, key, c):
    factors = []
    for v in REF_ORDER:
        d = key[VARS.index(v)]
        if v == var or d == 0:
            continue
        if d == 2:
            factors.append(v)
        elif d > 0 and d % 2 == 0:
            factors.append("%s^%d" % (v, d // 2))
        else:
            factors.append("%s^(%s)" % (v, Fraction(d, 2)))
    d = key[VARS.index(var)]
    if d:
        factors.append(var if d == 2 else "%s^%d" % (var, d // 2))
    a = abs(c)
    if not factors:
        return str(a)
    return "*".join(factors) if a == 1 else "%s*%s" % (a, "*".join(factors))


def ref_render(s, limit=None):
    keys = sorted(s.terms, key=ref_sort_key(s.var))
    text = ""
    for key in keys[:limit]:
        c = s.terms[key]
        if text:
            text += " - " if c < 0 else " + "
        elif c < 0:
            text = "-"
        text += ref_term(s.var, key, c)
    if limit is not None and len(keys) > limit:
        return "%s … (%d more terms)" % (text or "0", len(keys) - limit)
    return text or "0"
