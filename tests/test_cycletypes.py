from collections import Counter
from itertools import permutations
from math import factorial

from symprod.cycletypes import CycleType, cycle_types


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


def test_partition_counts():
    assert len(cycle_types(4)) == 5
    assert len(cycle_types(6)) == 11
    assert cycle_types(0) == [CycleType({})]


def test_descending_lex_order():
    got = [ct.parts() for ct in cycle_types(4)]
    assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_each_type_once_and_sums_to_n():
    for n in range(9):
        types = cycle_types(n)
        assert len(set(types)) == len(types)
        for ct in types:
            assert sum(l * c for l, c in ct.mult.items()) == n


def test_centralizer_identity_type():
    assert CycleType({1: 4}).centralizer_order() == 24


def test_centralizer_examples_s4():
    assert CycleType({1: 2, 2: 1}).centralizer_order() == 4
    assert CycleType({4: 1}).centralizer_order() == 4


def test_centralizer_against_sn_enumeration():
    # |Z_g| = n! / (class size), classes counted by brute force
    for n in range(1, 6):
        counts = Counter(
            perm_cycle_type(p) for p in permutations(range(n))
        )
        for ct in cycle_types(n):
            assert ct.centralizer_order() == factorial(n) // counts[ct.parts()]


def test_class_equation():
    for n in range(9):
        total = sum(
            factorial(n) // ct.centralizer_order() for ct in cycle_types(n)
        )
        assert total == factorial(n)

