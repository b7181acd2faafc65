"""Graded and bigraded vector spaces as finitely supported dimension maps.

Degrees live in (1/2)Z and are stored doubled, matching the series layer.
A class of integer total degree d is even or odd according to d mod 2, and
graded symmetric powers are the super ones: even generators multiply
symmetrically, odd generators anticommute (so they square to zero).

Bigraded classes sit at (p, q) with p + q required to be an integer; their
parity is the parity of p + q.  Purely graded spaces must have integer
degrees before a symmetric power is taken, since a lone half-integer degree
has no parity.
"""

from itertools import combinations, combinations_with_replacement
from math import comb

from .series import Series, _VI


def _merge(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
    return out


def _sym_blocks(blocks, n, zero, add):
    """Super symmetric power by per-block convolution.

    blocks: list of (degree-key, multiplicity, odd) triples; add(k, key, j)
    attaches j particles of the given degree to the accumulated key.  Each
    even block of dimension b contributes multisets (C(b+j-1, j) ways for j
    particles), each odd block subsets (C(b, j) ways); a DP over the total
    particle count glues the blocks together.  Exact integer counts.
    """
    slots = [{} for _ in range(n + 1)]
    slots[0][zero] = 1
    for key, b, odd in blocks:
        new = [{} for _ in range(n + 1)]
        for used in range(n + 1):
            if not slots[used]:
                continue
            for j in range(n + 1 - used):
                ways = comb(b, j) if odd else comb(b + j - 1, j)
                if not ways:
                    continue
                tgt = new[used + j]
                for k0, c in slots[used].items():
                    nk = add(k0, key, j) if j else k0
                    tgt[nk] = tgt.get(nk, 0) + c * ways
        slots = new
    return slots[n]


class GradedDims:
    """Dimension function on (1/2)Z; dims maps doubled degree -> dimension."""

    __slots__ = ("dims",)

    def __init__(self, dims):
        clean = {}
        for d, b in dims.items():
            if not isinstance(d, int):
                raise ValueError("degrees are stored doubled as integers")
            if b < 0:
                raise ValueError("dimensions must be nonnegative")
            if b:
                clean[d] = b
        self.dims = clean

    def __eq__(self, other):
        return isinstance(other, GradedDims) and self.dims == other.dims

    def __repr__(self):
        items = ", ".join(
            "%g: %d" % (d / 2, b) for d, b in sorted(self.dims.items())
        )
        return "GradedDims({%s})" % items

    def total_dim(self):
        return sum(self.dims.values())

    def is_integer_graded(self):
        return all(d % 2 == 0 for d in self.dims)

    def euler(self):
        """Alternating sum of dimensions; needs integer degrees."""
        if not self.is_integer_graded():
            raise ValueError("Euler characteristic needs integer degrees")
        return sum(b if (d // 2) % 2 == 0 else -b for d, b in self.dims.items())

    def shift(self, s2):
        """Translate all degrees by s2/2 (s2 is a doubled shift)."""
        return GradedDims({d + s2: b for d, b in self.dims.items()})

    def dsum(self, other):
        return GradedDims(_merge(self.dims, other.dims))

    def tensor(self, other):
        out = {}
        for d1, b1 in self.dims.items():
            for d2, b2 in other.dims.items():
                out[d1 + d2] = out.get(d1 + d2, 0) + b1 * b2
        return GradedDims(out)

    __add__ = dsum
    __mul__ = tensor

    def _blocks(self):
        blocks = []
        for d, b in sorted(self.dims.items()):
            if d % 2:
                raise ValueError(
                    "graded symmetric powers need integer degrees "
                    "(a half-integer degree has no parity)"
                )
            blocks.append((d, b, (d // 2) % 2 == 1))
        return blocks

    def sym_power(self, n):
        """n-th super symmetric power, by per-generator convolution."""
        if n < 0:
            raise ValueError("n must be nonnegative")
        table = _sym_blocks(self._blocks(), n, 0, lambda k, key, j: k + j * key)
        return GradedDims(table)

    def sym_power_oracle(self, n):
        """Same space by explicit basis enumeration (exponential; n small).

        Multisets over the even generators, subsets over the odd ones.
        """
        evens, odds = [], []
        for d, b in sorted(self.dims.items()):
            if d % 2:
                raise ValueError("oracle needs integer degrees")
            (odds if (d // 2) % 2 else evens).extend([d] * b)
        out = {}
        for j in range(n + 1):
            for oc in combinations(odds, j):
                base = sum(oc)
                for ec in combinations_with_replacement(evens, n - j):
                    d = base + sum(ec)
                    out[d] = out.get(d, 0) + 1
        return GradedDims(out)

    def poincare_poly(self, var="q"):
        """Poincare polynomial sum_d b_d t^d as an exact Series."""
        ti = _VI["t"]
        terms = {}
        for d, b in self.dims.items():
            key = [0, 0, 0, 0, 0]
            key[ti] = d
            terms[tuple(key)] = b
        return Series(var, None, terms)


class BigradedDims:
    """Dimension function on (1/2)Z x (1/2)Z with p + q always an integer."""

    __slots__ = ("dims",)

    def __init__(self, dims):
        clean = {}
        for (p, q), h in dims.items():
            if not (isinstance(p, int) and isinstance(q, int)):
                raise ValueError("bidegrees are stored doubled as integers")
            if (p + q) % 2:
                raise ValueError(
                    "bidegree (%g, %g) has non-integer total" % (p / 2, q / 2)
                )
            if h < 0:
                raise ValueError("dimensions must be nonnegative")
            if h:
                clean[(p, q)] = h
        self.dims = clean

    def __eq__(self, other):
        return isinstance(other, BigradedDims) and self.dims == other.dims

    def __repr__(self):
        items = ", ".join(
            "(%g, %g): %d" % (p / 2, q / 2, h)
            for (p, q), h in sorted(self.dims.items())
        )
        return "BigradedDims({%s})" % items

    def total_dim(self):
        return sum(self.dims.values())

    def shift2(self, l2, m2):
        if (l2 + m2) % 2:
            raise ValueError("bigraded shift must have integer total")
        return BigradedDims(
            {(p + l2, q + m2): h for (p, q), h in self.dims.items()}
        )

    def dsum(self, other):
        return BigradedDims(_merge(self.dims, other.dims))

    def tensor(self, other):
        out = {}
        for (p1, q1), h1 in self.dims.items():
            for (p2, q2), h2 in other.dims.items():
                k = (p1 + p2, q1 + q2)
                out[k] = out.get(k, 0) + h1 * h2
        return BigradedDims(out)

    __add__ = dsum
    __mul__ = tensor

    def to_graded(self):
        """Collapse to the total grading p + q."""
        out = {}
        for (p, q), h in self.dims.items():
            out[p + q] = out.get(p + q, 0) + h
        return GradedDims(out)

    def _blocks(self):
        return [
            (key, h, ((key[0] + key[1]) // 2) % 2 == 1)
            for key, h in sorted(self.dims.items())
        ]

    def sym_power(self, n):
        """n-th super symmetric power; parity of (p, q) is the parity of p+q."""
        if n < 0:
            raise ValueError("n must be nonnegative")

        def add(k, key, j):
            return (k[0] + j * key[0], k[1] + j * key[1])

        table = _sym_blocks(self._blocks(), n, (0, 0), add)
        return BigradedDims(table)

    def sym_power_oracle(self, n):
        evens, odds = [], []
        for key, h in sorted(self.dims.items()):
            (odds if ((key[0] + key[1]) // 2) % 2 else evens).extend([key] * h)
        out = {}
        for j in range(n + 1):
            for oc in combinations(odds, j):
                p_o = sum(k[0] for k in oc)
                q_o = sum(k[1] for k in oc)
                for ec in combinations_with_replacement(evens, n - j):
                    k = (p_o + sum(e[0] for e in ec), q_o + sum(e[1] for e in ec))
                    out[k] = out.get(k, 0) + 1
        return BigradedDims(out)

    def hodge_poly(self, var="q"):
        """Hodge polynomial sum h^{p,q} x^p y^q as an exact Series."""
        xi, yi = _VI["x"], _VI["y"]
        terms = {}
        for (p, q), h in self.dims.items():
            key = [0, 0, 0, 0, 0]
            key[xi] = p
            key[yi] = q
            terms[tuple(key)] = h
        return Series(var, None, terms)
