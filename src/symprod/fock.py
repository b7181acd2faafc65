"""Truncated Fock space of the Heisenberg superalgebra attached to H*(X).

The underlying superspace is H*(X): G classes, numbered and regraded to be
symmetric about zero by manifold.classes and paired by X.pairing or else
manifold.default_pairing.  The Fock space is the free super symmetric
algebra on one copy of it per level l >= 1.  The factor (l, g) is the int
letter (l - 1) * G + g, which keeps factor order, and a basis state is a
sorted tuple of letters in which no odd letter repeats.

creators(n) and annihilators(m) give a family of operators, one per
generator and level >= 1, at once: a state's images as a list of
(generator, word, coefficient).  Creation sorts the new letter in with the
Koszul sign; annihilation contracts a level-m letter against its pairing
partners (m times the graded contraction, central charge 1).  rows(step)
numbers a family's images and audits their charge and degree in the same
pass.  check_relations machine-checks

    [annihilators(m)_a, creators(n)_b] = m * eta(a, b) * delta_{m,n} * Id

and that the create/create and annihilate/annihilate brackets vanish, on
the states too low in charge for the truncation to leak, working on state
numbers.  Its compositional (Hopf) check sorts each created word on its
own: inline where its state holds no odd letter, else by canonical_state.
Only even d is supported: for odd d the parity of a level-l factor would
depend on l.
"""

from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import compress, count, repeat
from operator import add, mul, ne

from .manifold import InputError, classes, default_pairing
from .orbifold import CheckResult, _compare, closed_series
from .series import Series


MAX_STATES = 1_000_000  # k3: 205,455 states to charge 5, 1,279,175 to 6


def basis_size(X, max_charge, cap):
    """The number of Fock states of charge <= max_charge, or the first
    running count past cap, found without listing them.  With even and odd
    classes in all, the states of charge n number [q^n] prod_l (1 +
    q^l)^odd (1 - q^l)^-even = PE[sum_d a_d q^d], a_d = even + odd at odd d
    and even at even d, run by the Euler transform until the count passes
    cap; one even class passes 10^6 by charge 49."""
    even_odd = [0, 0]
    for (dd, _), b in X.betti.dims.items():
        even_odd[dd // 2 % 2] += b
    even, odd = even_odd
    if not even + odd:
        return 1  # the vacuum alone
    D, g, total = [0], [1], 1
    for n in range(1, max_charge + 1):
        if total > cap:
            break
        D.append(sum(d * (even + odd * (d % 2))
                     for d in range(1, n + 1) if n % d == 0))
        g.append(sum(map(mul, D[1:], reversed(g))) // n)
        total += g[n]
    return total


class FockSpace:
    """Fock model over a manifold with even d = dim_real / 2, truncated to
    the states of charge <= max_charge.  shifted and odd list each class's
    shifted degree and parity, parity each letter's; word(s) reads a state
    back as (level, class) factors.  states lists the basis by number, in
    (charge, letters) order, ids maps each state back to its number, and
    charge and degree list each number's charge and degree."""

    def __init__(self, X, max_charge):
        if X.dim_real % 4:
            raise InputError(
                "Fock construction needs dim_real divisible by 4; %s has "
                "dim_real %d" % (X.name, X.dim_real)
            )
        self.d = d = X.dim_real // 2
        self.eta = default_pairing(X) if X.pairing is None else X.pairing
        self.shifted = [j for j, (_, n) in classes(X).items()
                        for _ in range(n)]
        # d is even: a class is odd exactly when its shifted degree is
        self.odd = [j % 2 for j in self.shifted]
        self.max_charge = max_charge
        self.parity = parity = self.odd * max_charge
        # each letter's level and degree, in letter order
        letters = [(l, j + l * d) for l in range(1, max_charge + 1)
                   for j in self.shifted]
        by_charge = [[] for _ in range(max_charge + 1)]
        degrees = [[] for _ in by_charge]

        # depth first in letter order lists each charge's states in letter
        # order; an odd letter is taken at most once
        def rec(first, charge, degree, s):
            by_charge[charge].append(s)
            degrees[charge].append(degree)
            for f in range(first, len(letters)):
                l, step = letters[f]
                if charge + l > max_charge:
                    break
                rec(f + parity[f], charge + l, degree + step, s + (f,))

        rec(0, 0, 0, ())
        self.states, self.degree = sum(by_charge, []), sum(degrees, [])
        self.charge = [c for c, states in enumerate(by_charge)
                       for _ in states]
        self.ids = dict(zip(self.states, count()))

    # -- states ------------------------------------------------------------

    def word(self, s):
        """The letters of s as (level, class) factors."""
        G = len(self.odd)
        return tuple(divmod(f + G, G) for f in s)  # f + G = l * G + g

    def canonical_state(self, letters):
        """Sort a word of the space's letters into canonical order, with the
        Koszul sign of the odd letters' inversions; None when an odd letter
        repeats."""
        odds, sign = [*compress(letters, map(self.parity.__getitem__,
                                             letters))], 1
        if len(odds) > 1:
            if len(set(odds)) < len(odds):
                return None
            for i, a in enumerate(odds):
                for b in odds[i + 1:]:
                    if a > b:
                        sign = -sign
        return tuple(sorted(letters)), sign

    # -- operators -----------------------------------------------------------

    def creators(self, n):
        """Every generator's level-n creation operator at once, as a map
        from a state s to the list of (g, s with the letter of (n, g)
        inserted, Koszul sign): one bisect and one insert per generator g,
        and none for an odd g already at level n in s."""
        if n < 1:
            raise ValueError("level must be >= 1")
        parity, G = self.parity, len(self.odd)
        # (generator, letter, the letter as a word, parity)
        letters = [(f % G, f, (f,), parity[f])
                   for f in range((n - 1) * G, n * G)]

        def family(s):
            out = []
            for g, f, h, o in letters:
                p = bisect_left(s, f)
                if not (o and f in s):
                    out.append((g, s[:p] + h + s[p:], -1 if o and sum(
                        map(parity.__getitem__, s[:p])) % 2 else 1))
            return out
        return family

    def annihilators(self, m):
        """Every generator's level-m annihilation operator at once, as a
        map from a state s to the list of (g, t, coeff) with coeff != 0,
        one per (g, t): a level-m letter of class h meets only the g with
        eta(g, h) != 0.  The g operator moves degrees by shifted[g] - m*d,
        so its commutator with a creation has degree zero."""
        if m < 1:
            raise ValueError("level must be >= 1")
        odd, parity, partners = self.odd, self.parity, {}
        for (g, h), v in self.eta.items():
            partners.setdefault((m - 1) * len(odd) + h, []).append((g, m * v))

        def family(s):
            # flip: the parity of the odd letters before the current one
            out, flip = [], 0
            for i, f in enumerate(s):
                # the first copy of a level-m letter; a repeated letter is
                # even, and each copy gives rest
                if f in partners and s.index(f) == i:
                    rest = s[:i] + s[i + 1:]
                    for g, v in partners[f]:
                        out.append((g, rest, s.count(f) * (
                            -v if flip and odd[g] else v)))
                flip ^= parity[f]
            return out
        return family

    def rows(self, step):
        """The row builder of one family, creators(step) for step > 0 or
        annihilators(-step): it maps a basis state s to the flat tuple
        (g, number of t, coeff, ...) over the family's (g, t, coeff) at s.
        One pass numbers and audits them: t must be a basis state whose
        (charge, degree) is that of s plus (step, shifted[g] + step * d),
        else the family is at fault (AssertionError).  An s outside the
        basis, or a creation past max_charge, is the caller's fault
        (ValueError)."""
        family = self.creators(step) if step > 0 \
            else self.annihilators(-step)
        label = ("create(%d)" if step > 0 else "annihilate(%d)") % abs(step)
        steps = [j + step * self.d for j in self.shifted]
        ids, charge, degree, top = \
            self.ids, self.charge, self.degree, self.max_charge

        def row(s):
            sid = ids.get(s)
            if sid is None:
                raise ValueError("%r is not a state of the basis to charge "
                                 "%d" % (self.word(s), top))
            c = charge[sid] + step
            if c > top:
                raise ValueError("%s of %r leaves the basis to charge %d"
                                 % (label, self.word(s), top))
            d0, out = degree[sid], []
            for g, t, coeff in family(s):
                tid = ids.get(t)
                if tid is None:
                    what = "step: %r is not an indexed basis state" % (
                        self.word(t),)
                elif charge[tid] != c:
                    what = "charge step"
                elif degree[tid] != d0 + steps[g]:
                    what = "degree step"
                else:
                    out += (g, tid, coeff)
                    continue
                raise AssertionError("%s violated its declared %s"
                                     % (label, what))
            return tuple(out)
        return row

    def character(self):
        """sum over basis states of q^charge t^degree, exactly."""
        counts = Counter(zip(self.charge, self.degree))
        return Series.from_terms("q", self.max_charge, (
            (b, {"q": c, "t": d}) for (c, d), b in counts.items()))


def _violations(A, B, domain, odd, states, scalar, same=False):
    """Count the (i, j, s), s in domain (a range of state numbers), where
    A_i B_j s - eps_ij B_j A_i s is not scalar[i*G + j] * s (0 when absent)
    for families A and B, G generators and eps_ij the Koszul sign of
    generators i and j.  A family is (stored rows, row builder): the rows
    of the lowest-numbered states, and the builder for a higher image.
    A higher image's row is built at its first visit from the domain and
    dropped at its last, so it is built once per call and an image visited
    once is never kept.  One dict per s holds the terms, keyed by the int
    (i*G + j)*N + u for N states and image u, minus the expected scalars; a
    pair violates the relation exactly when one of its terms is left
    nonzero.  same says that A is B with no scalar: the residual of (j, i)
    is then -eps_ij times that of (i, j), read from the same rows, so one
    pass over the products A_j A_i s adds only the terms of the pairs
    i <= j, and a violating pair i < j counts twice."""
    (rows_a, build_a), (rows_b, _) = A, B
    N, na, G = len(states), len(rows_a), len(odd)
    GN = G * N
    # visits left to each image past the stored rows, and its live row,
    # made at the first such image; with same, the first loop visits none
    left = None
    for s in () if same else domain:
        for t in rows_b[s][1::3]:
            if t >= na:
                left = left or [0] * (N - na)
                left[t - na] += 1
    live = left and [None] * (N - na)
    bad = 0
    for s in domain:
        acc = {p * N + s: -v for p, v in scalar.items()}
        it = iter(() if same else rows_b[s])
        for j, t, c in zip(it, it, it):
            jN = j * N
            if t < na:
                row = rows_a[t]
            else:
                x = t - na
                row = live[x]
                if row is None:
                    row = build_a(states[t])
                left[x] -= 1
                live[x] = row if left[x] else None
            inner = iter(row)
            for i, u, w in zip(inner, inner, inner):
                k = i * GN + jN + u
                acc[k] = acc.get(k, 0) + c * w
        it = iter(rows_a[s])
        for i, t, c in zip(it, it, it):
            iGN, flip = i * GN, -c if odd[i] else c
            inner = iter(rows_b[t])
            if not same:
                for j, u, w in zip(inner, inner, inner):
                    k = iGN + j * N + u
                    acc[k] = acc.get(k, 0) - (flip if odd[j] else c) * w
                continue
            iN = i * N
            for j, u, w in zip(inner, inner, inner):
                if j > i:
                    k = iGN + j * N + u
                    acc[k] = acc.get(k, 0) - (flip if odd[j] else c) * w
                elif j < i:  # A_j A_i s, the first term of the pair (j, i)
                    k = j * GN + iN + u
                    acc[k] = acc.get(k, 0) + c * w
                elif odd[i]:  # A_i A_i s + A_i A_i s; 0 for an even i
                    k = iGN + iN + u
                    acc[k] = acc.get(k, 0) + 2 * c * w
        if any(acc.values()):
            pairs = {k // N for k, v in acc.items() if v}
            bad += len(pairs) + (sum(p // G != p % G for p in pairs)
                                 if same else 0)
    return bad


def check_relations(X, max_charge):
    """Machine-check the Heisenberg relations on the truncated basis.

    For every pair of basis generators and all levels m, n >= 1 with
    m + n <= max_charge, the mixed super-commutator must be
    m * eta(a,b) * delta_{m,n} * Id on states too low in charge for the
    truncation to leak; the create/create and annihilate/annihilate
    super-commutators must vanish there.  Also checks the compositional
    (Hopf) form of the creation operators and the basis character against
    the closed sector product formula.  A basis of over MAX_STATES states,
    counted by basis_size, is refused up front with InputError.  Returns a
    list of CheckResults.
    """
    C = max_charge
    # FockSpace refuses odd d itself, before numbering any class
    if X.dim_real % 4 == 0 and basis_size(X, C, MAX_STATES) > MAX_STATES:
        raise InputError("%s has over %d Fock states up to charge %d"
                         % (X.name, MAX_STATES, C))
    space = FockSpace(X, C)
    closed = closed_series("poincare_orb", X, C)
    states, odd, G = space.states, space.odd, len(space.odd)

    def upto(c):
        return bisect_right(space.charge, c)

    def family(step):
        # rows stored below the top charge; a top-charge row is only an
        # intermediate image of the mixed bracket, built once per bracket
        # call and dropped after its last visit
        build = space.rows(step)
        return [build(s) for s in states[:upto(C - max(step, 1))]], build

    cre = {n: family(n) for n in range(1, C + 1)}
    ann = {m: family(-m) for m in range(1, C)}
    mixed = cc = aa = 0
    for m in range(1, C if G else 1):  # no generator, no bracket
        for n in range(1, C - m + 1):
            domain = range(upto(C - max(m, n)))
            # [annihilate_m(a), create_n(b)] = m eta(a,b) delta_{m,n} Id
            scalar = {i * G + j: m * v for (i, j), v in space.eta.items()
                      if m == n and v}
            mixed += _violations(ann[m], cre[n], domain, odd, states, scalar)
            if m > n:
                continue
            # the (n, m) bracket of (b, a) is -eps_ab times the (m, n) one
            # of (a, b) on the same domain, so a count at m < n is twice
            twice = 1 + (m < n)
            # create/create needs full headroom for the intermediate state
            cc += twice * _violations(cre[m], cre[n], range(upto(C - m - n)),
                                      odd, states, {}, m == n)
            # annihilate/annihilate vanishes (no upward leak at all)
            aa += twice * _violations(ann[m], ann[n], domain, odd, states, {},
                                      m == n)

    # the compositional form sorts each word on its own, apart from the
    # bisect of the creation rows: generator i's (image, coeff) entry, read
    # back as a state (the last one when a row repeats i), against the word
    # of (m, i)'s letter then s, sorted inline with sign 1 where s holds no
    # odd letter, so that the word holds at most one, and by
    # canonical_state where it holds one
    hopf, canonical, parity = 0, space.canonical_state, space.parity
    for m in range(1, C + 1):
        heads = [(f,) for f in range((m - 1) * G, m * G)]
        for s, row in zip(states, cre[m][0]):
            entry = dict(zip(row[::3], zip(map(states.__getitem__,
                                               row[1::3]), row[2::3])))
            words = map(add, heads, repeat(s))
            hopf += sum(map(ne, map(entry.get, range(G)),
                            map(canonical, words)
                            if any(map(parity.__getitem__, s)) else
                            zip(map(tuple, map(sorted, words)), repeat(1))))

    def verdict(name, bad):
        return CheckResult(name, "fail" if bad else "pass",
                           ["%d violations" % bad] if bad else [])

    return [
        verdict("heisenberg mixed commutators (max charge %d)" % C, mixed),
        verdict("create/create super-commutators vanish", cc),
        verdict("annihilate/annihilate super-commutators vanish", aa),
        verdict("compositional (Hopf) creation matches direct creation", hopf),
        _compare("Fock character = regraded sector series",
                 space.character(), closed),
    ]
