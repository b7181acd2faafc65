"""Acceptance suite: every criterion is an exact identity check.

Each test prints one PASS line on success (run pytest -s to see them);
failures surface as ordinary assertion errors with the first mismatching
coefficient.
"""

import time
from collections import Counter
from itertools import permutations
from math import factorial

from conftest import (GradedDims, counting_coefficient, cycle_types, mul,
                      specialize, sym_power_oracle, term)
from symprod import fock
from symprod import orbifold as ob
from symprod.series import substitute

ALL = ("point", "p1", "elliptic", "genus2", "p2", "k3", "abelian", "p1xp1")
CY = ("elliptic", "k3", "abelian")
SURFACES = ("k3", "p1xp1")
HALF_K = ("p1", "elliptic", "genus2")


def check_equal(kind, X, order):
    b = ob.brute_series(kind, X, order)
    c = ob.closed_series(kind, X, order)
    assert b == c, "%s on %s at order %d:\nbrute:  %s\nclosed: %s" % (
        kind, X.name, order, b, c
    )
    assert all(type(c) is int for c in b.terms.values()), \
        "%s on %s not integral" % (kind, X.name)
    return b


def test_criterion_1_euler_identities(catalog):
    t0 = time.time()
    for name in ALL:
        for kind in ("euler_sym", "euler_orb"):
            check_equal(kind, catalog[name], 10)
    spot = ob.brute_series("euler_orb", catalog["p1"], 4)
    coeffs = [counting_coefficient(spot, n).get((0,) * 5, 0) for n in range(5)]
    assert coeffs == [1, 2, 5, 10, 20]
    elapsed = time.time() - t0
    assert elapsed < 5.0, "criterion 1 too slow: %.2fs" % elapsed
    print("\nACCEPTANCE 1 (Euler identities, order 10, all manifolds): PASS "
          "(%.2fs)" % elapsed)


def test_criterion_2_regraded_poincare(catalog):
    for name in ALL:
        check_equal("poincare_orb", catalog[name], 8)
    spot = ob.brute_series("poincare_orb", catalog["p1"], 2)
    coeff = counting_coefficient(spot, 2)
    assert sorted(k[2] for k in coeff) == [0, 2, 4, 6, 8]  # t^0..t^4
    assert all(c == 1 for c in coeff.values())
    print("ACCEPTANCE 2 (regraded Poincare series, order 8): PASS")


def test_criterion_3_hodge_and_genera(catalog):
    for name in ALL:
        X = catalog[name]
        hodge_order = 6 if name in ("k3", "abelian") else 8
        check_equal("hodge_sym", X, hodge_order)
        hodge_orb = check_equal("hodge_orb", X, hodge_order)
        if name in HALF_K:
            assert any(k[3] % 2 for k in hodge_orb.terms), \
                "expected half-integer exponents on %s" % name
        check_equal("chiy_sym", X, 8)
        chiy_orb = check_equal("chiy_orb", X, 8)
        check_equal("arith_sym", X, 8)
        if ob.applicability("arith_orb", X) is None:
            check_equal("arith_orb", X, 8)
        check_equal("sign_sym", X, 8)
        if ob.applicability("sign_orb", X) is None:
            sign_orb = check_equal("sign_orb", X, 8)
            assert specialize(chiy_orb, {"y": -1}) == sign_orb
        # specialization coherence
        collapsed = substitute(substitute(
            ob.brute_series("hodge_orb", X, min(hodge_order, 6)),
            "x", {"t": 1}), "y", {"t": 1})
        assert collapsed == ob.brute_series("poincare_orb", X,
                                            min(hodge_order, 6))
        assert specialize(chiy_orb, {"y": 1}) == \
            ob.brute_series("euler_orb", X, 8)
    print("ACCEPTANCE 3 (Hodge series and genera, order 8/6): PASS")


def test_criterion_4_b_algebra_versions(catalog):
    for name in CY:
        X = catalog[name]
        for kind in ("hodge_sym_B", "chiy_sym_B", "hodge_orb_B",
                     "chiy_orb_B"):
            check_equal(kind, X, 8)
        # Serre duality for the polyvector genus: the B-series equals
        # (-1)^d y^d times chi_(-1/y); coefficientwise over the y-support
        d = X.dim_c
        lhs = ob.chi_minus_y(X.hodge_b, "q")
        rhs = mul(substitute(ob.chi_minus_y(X.hodge, "q"), "y", {"y": -1}),
                  term("q", None, (-1) ** d, {"y": d}))
        assert lhs == rhs, "Serre relation fails on %s" % name
    print("ACCEPTANCE 4 (B-algebra versions and Serre duality): PASS")


def test_criterion_5_q0_limit_of_elliptic_genus(catalog):
    for name in ("k3", "elliptic"):
        X = catalog[name]
        check_equal("dmvv_q0", X, 6)
        check_equal("dmvv_q0_B", X, 6)
    print("ACCEPTANCE 5 (q=0 elliptic-genus identity, order 6): PASS")


def test_criterion_6_hilbert_scheme_coincidence(catalog):
    for name in SURFACES:
        X = catalog[name]
        assert ob.closed_series("gottsche_hodge", X, 6) == \
            ob.closed_series("hodge_orb", X, 6)
        assert ob.closed_series("gottsche_poincare", X, 6) == \
            ob.closed_series("poincare_orb", X, 6)
        # and both against the brute sector assembly
        check_equal("gottsche_hodge", X, 6)
        check_equal("gottsche_poincare", X, 6)
    print("ACCEPTANCE 6 (Hilbert-scheme series coincide, order 6): PASS")


# Betti numbers b_0, b_2, ... of Hilbert schemes of points, as published:
# Hilb^2 and Hilb^3 of P^2 from Ellingsrud and Stromme, Invent. Math. 87
# (1987), and K3^[3] from Goettsche, Math. Ann. 286 (1990).  All odd Betti
# numbers vanish.
PUBLISHED_HILB_BETTI = {
    ("p2", 2): (1, 2, 3, 2, 1),
    ("p2", 3): (1, 2, 5, 6, 5, 2, 1),
    ("k3", 3): (1, 23, 299, 2554, 299, 23, 1),
}


def test_hilbert_scheme_betti_numbers_match_published_tables(catalog):
    # the q^n coefficient of gottsche_poincare is the Poincare polynomial
    # of Hilb^n, in t, on both routes
    for (name, n), betti in PUBLISHED_HILB_BETTI.items():
        for build in (ob.brute_series, ob.closed_series):
            got = counting_coefficient(
                build("gottsche_poincare", catalog[name], n), n)
            assert got == {(0, 0, 4 * i, 0, 0): b
                           for i, b in enumerate(betti)}, (name, n, build)


def test_criterion_7_heisenberg_algebra(catalog):
    t0 = time.time()
    for name, charge in (("p2", 4), ("k3", 3), ("k3", 4)):
        results = fock.check_relations(catalog[name], charge)
        for r in results:
            assert r.status == "pass", "%s: %s %s" % (name, r.name, r.lines)
    elapsed = time.time() - t0
    assert elapsed < 30.0, "criterion 7 too slow: %.2fs" % elapsed
    print("ACCEPTANCE 7 (Heisenberg relations, P2 charge 4 / K3 charges 3 "
          "and 4): PASS (%.2fs)" % elapsed)


def test_criterion_8_combinatorial_oracles(catalog):
    # centralizer orders of the listed cycle types against brute-force S_n
    # enumeration
    def centralizer_order(ct):
        """|Z_g| = prod_l N_l! * l^N_l for g of cycle type {l: N_l}."""
        z = 1
        for l, c in ct.items():
            z *= factorial(c) * l**c
        return z

    def parts(ct):
        return tuple(l for l in sorted(ct, reverse=True) for _ in range(ct[l]))

    def cycle_type_of(perm):
        seen = [False] * len(perm)
        parts = []
        for i in range(len(perm)):
            if seen[i]:
                continue
            j, length = i, 0
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            parts.append(length)
        return tuple(sorted(parts, reverse=True))

    for n in range(1, 6):
        counts = Counter(cycle_type_of(p) for p in permutations(range(n)))
        for ct in cycle_types(n):
            assert centralizer_order(ct) == factorial(n) // counts[parts(ct)]

    # sym powers against the basis-enumeration oracle
    spaces = [
        GradedDims({(0, 0): 2, (2, 0): 2, (4, 0): 2}),
        GradedDims({(0, 0): 1, (2, 0): 4, (4, 0): 1}),
        GradedDims({(0, 0): 1, (2, 0): 1, (4, 0): 1, (6, 0): 1, (8, 0): 1,
                    (10, 0): 1}),
        GradedDims({(2, 0): 3, (4, 0): 3}),
    ]
    for v in spaces:
        assert sum(v.dims.values()) <= 6
        for n in range(5):
            assert v.sym_power(n) == sym_power_oracle(v, n)
    tables = [
        GradedDims({(0, 0): 1, (0, 2): 2, (2, 0): 2, (2, 2): 1}),
        GradedDims({(0, 0): 1, (2, 2): 4, (4, 4): 1}),
    ]
    for w in tables:
        for n in range(5):
            assert w.sym_power(n) == sym_power_oracle(w, n)

    # class equation
    for n in range(9):
        assert sum(factorial(n) // centralizer_order(ct)
                   for ct in cycle_types(n)) == factorial(n)
    print("ACCEPTANCE 8 (combinatorial oracles): PASS")
