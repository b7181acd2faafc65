"""Cycle-type combinatorics of the symmetric group S_n.

Conjugacy classes of S_n are the partitions of n; a class is stored as the
multiplicity map l -> N_l (number of l-cycles).  Alongside enumeration this
module knows the centralizer order prod N_l! l^(N_l).  The twisted sector of
a class is the product over l of N_l-th symmetric powers of a level-l copy
of X, regraded by its (l - 1) N_l moved cycles.  orbifold._sector_sum sums
these sectors without listing classes, as a product over cycle lengths;
this module is the class-by-class picture that tests check it against.
"""

from math import factorial


class CycleType:
    """A partition of n as the multiplicity map l -> N_l (all N_l >= 1)."""

    __slots__ = ("n", "mult")

    def __init__(self, mult):
        clean = {}
        n = 0
        for l, c in mult.items():
            if l < 1 or c < 0:
                raise ValueError("invalid cycle multiplicities")
            if c:
                clean[l] = c
                n += l * c
        self.mult = clean
        self.n = n

    @classmethod
    def from_parts(cls, parts):
        mult = {}
        for l in parts:
            mult[l] = mult.get(l, 0) + 1
        return cls(mult)

    def parts(self):
        out = []
        for l in sorted(self.mult, reverse=True):
            out.extend([l] * self.mult[l])
        return tuple(out)

    def __eq__(self, other):
        return isinstance(other, CycleType) and self.mult == other.mult

    def __hash__(self):
        return hash(tuple(sorted(self.mult.items())))

    def __repr__(self):
        return "CycleType%r" % (self.parts(),)

    def centralizer_order(self):
        """|Z_g| = prod_l N_l! * l^N_l."""
        z = 1
        for l, c in self.mult.items():
            z *= factorial(c) * l**c
        return z


def _partitions_desc(n, cap):
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in _partitions_desc(n - first, first):
            yield (first,) + rest


def cycle_types(n):
    """All cycle types of S_n, each once, parts in descending-lex order."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return [CycleType.from_parts(p) for p in _partitions_desc(n, n)]
