"""Cycle types of the symmetric group S_n.

Conjugacy classes of S_n are the partitions of n; a class is listed as the
multiplicity map {l: N_l} (N_l l-cycles).  The sector of a class is the
product over l of N_l-th symmetric powers of a level-l copy of X, regraded
by its (l - 1) N_l moved cycles.  orbifold._sector_sum sums these sectors
without listing classes, as a product over cycle lengths; this module is
the class-by-class picture that tests check it against.
"""

from collections import Counter


def _partitions_desc(n, cap):
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in _partitions_desc(n - first, first):
            yield (first,) + rest


def cycle_types(n):
    """All cycle types of S_n, each once, as {l: N_l} maps with l
    descending, the partitions in descending-lex order."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return [dict(Counter(parts)) for parts in _partitions_desc(n, n)]
