import gc
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import pytest

from symprod.cli import catalog_dir, load_manifold
from symprod.graded import GradedDims
from symprod.series import VARS, Series, SeriesDomainError

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


def state_charge(state):
    """The charge of a Fock state: the sum of its factors' levels."""
    return sum(l for l, _ in state)


def state_degree(space, state):
    """The total degree of a Fock state, read off its word: the level-l
    copy of a class weighs its shifted degree + l*d (so the vacuum sits in
    degree zero)."""
    return sum(space.shifted[g] + l * space.d for l, g in state)


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
    integral = f.is_integral()
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
        F.append({m: c // n if integral else Fraction(c, n)
                  for m, c in acc.items() if c})
        for m, c in F[n].items():
            terms[m[:ti] + (2 * n,) + m[ti + 1:]] = c
    return Series(f.var, order, terms)


def packed(layout, terms, n):
    """The int of a {key: int coeff} map of degree n in layout, packed from
    the slot of each key."""
    return layout.packed({layout.slot(key, n): c for key, c in terms.items()})
