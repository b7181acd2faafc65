from collections import Counter
from itertools import permutations

from conftest import cycle_types


def perm_cycle_type(perm):
    n = len(perm)
    seen = [False] * n
    parts = []
    for i in range(n):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        parts.append(length)
    return tuple(sorted(parts, reverse=True))


def parts(ct):
    """The partition {l: N_l} lists, as descending parts."""
    return tuple(l for l in sorted(ct, reverse=True) for _ in range(ct[l]))


def test_partition_counts():
    assert len(cycle_types(4)) == 5
    assert len(cycle_types(6)) == 11
    assert cycle_types(0) == [{}]


def test_descending_lex_order():
    got = [parts(ct) for ct in cycle_types(4)]
    assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_each_type_once_and_sums_to_n():
    for n in range(9):
        types = [parts(ct) for ct in cycle_types(n)]
        assert len(set(types)) == len(types)
        for ct in cycle_types(n):
            assert all(c >= 1 for c in ct.values())
            assert sum(l * c for l, c in ct.items()) == n


def test_cycle_types_are_those_of_all_permutations():
    for n in range(6):
        seen = Counter(perm_cycle_type(p) for p in permutations(range(n)))
        listed = [parts(ct) for ct in cycle_types(n)]
        assert sorted(listed) == sorted(seen)
