from collections import Counter
from itertools import combinations, combinations_with_replacement

import pytest

from symprod.cli import catalog_dir, load_manifold
from symprod.graded import GradedDims

CATALOG_NAMES = (
    "point", "p1", "elliptic", "genus2", "p2", "k3", "abelian", "p1xp1",
)


@pytest.fixture(scope="session")
def catalog():
    return {
        name: load_manifold(catalog_dir() / (name + ".json"))
        for name in CATALOG_NAMES
    }


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
