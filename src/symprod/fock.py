"""Truncated Fock space of the Heisenberg superalgebra attached to H*(X).

The underlying superspace is H*(X), its classes numbered and regraded to
be symmetric about zero by manifold.classes, with the pairing X.pairing or
else manifold.default_pairing.  The Fock space is the free super
symmetric algebra on countably many copies of that space, one per level
l >= 1; a basis state is a canonically sorted multiset of (level, class)
factors in which odd classes never repeat at the same level.

Operators come in families, one per level l >= 1 (a lower level raises
ValueError): creators(n) gives every generator's level-n creation operator
on a state at once (with the Koszul sign of sorting the new factor into
place), and annihilators(m) contracts each level-m factor of a state
against its pairing partners only (m times the graded contraction, central
charge 1).  FockSpace(X, c) enumerates the basis to charge c once and
numbers its states.  rows(step) builds a family's row of a state: its
images as a flat tuple (generator, image number, coefficient, ...), audited
once as it is built against each numbered state's charge and degree; a
state outside the basis, or a creation past charge c, raises ValueError.
The defining super-commutation relation of the generator-a entry of
annihilators(m) and the generator-b entry of creators(n),

    [annihilators(m)_a, creators(n)_b] = m * eta(a, b) * delta_{m,n} * Id

is machine-checkable on any truncated basis, away from states where the
truncation could leak.  check_relations builds each family's rows once,
keeping those of the states below the top charge (a top-charge row is only
an intermediate image of the mixed bracket, built at its first visit in a
bracket call and dropped after its last), and works on state numbers.  It
takes one domain state s at a time and accumulates A_a B_b s - eps_ab B_b
A_a s (eps_ab the Koszul sign of a and b), minus the expected multiple
c_ab s, in one dict keyed by (a, b) and the image; a pair violates the
relation when any of its terms is left nonzero, so an untouched pair is a
violation exactly when c_ab != 0.  The mixed relation is one call per
(m, n); create/create and annihilate/annihilate are one per m <= n, as
their (n, m) residuals are the (m, n) ones mirrored.  The compositional
(Hopf) check reads the creation rows back as states and compares each with
the canonical word of the created factor followed by the state, which
canonical_state sorts on its own.  Only even d is supported: for odd d the
parity of a level-l factor would depend on l and the algebra is not defined
here.
"""

from bisect import bisect_left, bisect_right
from collections import Counter
from operator import mul, ne

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
    shifted degree and parity.  The enumeration numbers the states once:
    states lists them by number, deterministically ordered by (charge,
    factors), ids maps each back to its number, and charge and degree list
    each number's charge and degree, which the rows are audited by."""

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
        self.has_odd = any(self.odd)
        self.max_charge = max_charge
        letters = [((l, g), l, j + l * d, j % 2)
                   for l in range(1, max_charge + 1)
                   for g, j in enumerate(self.shifted)]
        by_charge = [[] for _ in range(max_charge + 1)]
        degrees = [[] for _ in range(max_charge + 1)]

        # depth first with the letters in factor order lists each charge's
        # states in factor order; an odd letter is taken at most once
        def rec(idx, charge, degree, cur):
            by_charge[charge].append(tuple(cur))
            degrees[charge].append(degree)
            for i in range(idx, len(letters)):
                f, l, step, parity = letters[i]
                if charge + l > max_charge:
                    break
                cur.append(f)
                rec(i + parity, charge + l, degree + step, cur)
                cur.pop()

        rec(0, 0, 0, [])
        self.states = [s for states in by_charge for s in states]
        self.charge = [c for c, states in enumerate(by_charge)
                       for _ in states]
        self.degree = [deg for ds in degrees for deg in ds]
        self.ids = {s: i for i, s in enumerate(self.states)}

    # -- states ------------------------------------------------------------

    def canonical_state(self, factors):
        """Sort a factor word into canonical order, with the Koszul sign of
        the odd factors' inversions; None when an odd generator repeats at
        one level."""
        if not self.has_odd:
            return tuple(sorted(factors)), 1
        odd, sign = self.odd, 1
        odds = [f for f in factors if odd[f[1]]]
        if odds:
            if len(set(odds)) < len(odds):
                return None
            for i, a in enumerate(odds):
                for b in odds[i + 1:]:
                    if a > b:
                        sign = -sign
        return tuple(sorted(factors)), sign

    # -- operators -----------------------------------------------------------

    def creators(self, n):
        """Every generator's level-n creation operator at once, as a map
        from a state s to the (g, s with the level-n copy of g sorted in,
        Koszul sign) over the generators g; an odd g already at level n in s
        has none."""
        if n < 1:
            raise ValueError("level must be >= 1")
        odd, factors = self.odd, [(n, g) for g in range(len(self.odd))]

        def family(s):
            # flips[k]: the parity of the odd factors in s[:k]
            flips, p = [0], 0
            for _, h in s:
                p ^= odd[h]
                flips.append(p)
            for g, f in enumerate(factors):
                pos = bisect_left(s, f)
                if odd[g] and pos < len(s) and s[pos] == f:
                    continue
                sign = -1 if odd[g] and flips[pos] else 1
                yield g, s[:pos] + (f,) + s[pos:], sign
        return family

    def annihilators(self, m):
        """Every generator's level-m annihilation operator at once, as a
        map from a state s to the (g, t, coeff) with a nonzero coeff, one
        per (g, t): a level-m factor h of s meets only the g with
        eta(g, h) != 0.  The g operator moves degrees by shifted[g]
        - m*d, the degree of the level-m copy of g, so its commutator with a
        creation has degree zero."""
        if m < 1:
            raise ValueError("level must be >= 1")
        odd, partners = self.odd, {}
        for (g, h), v in self.eta.items():
            partners.setdefault(h, []).append((g, m * v))

        def family(s):
            odd_before, prev = 0, None
            for idx, f in enumerate(s):
                l, h = f
                if l == m and h in partners and f != prev:
                    rest = s[:idx] + s[idx + 1:]
                    # a repeated factor is even: each copy gives rest
                    k = s.count(f)
                    for g, v in partners[h]:
                        yield g, rest, k * (
                            -v if odd[g] and odd_before % 2 else v)
                odd_before += odd[h]
                prev = f
        return family

    def rows(self, step):
        """The row builder of one family, the level-step creators (step > 0)
        or the level -step annihilators (step < 0): it maps a basis state s
        to its row, the flat tuple (g, number of t, coeff, ...) over the
        family's (g, t, coeff) at s.  Each row is audited once, as it is
        built: t must be a basis state whose (charge, degree) is that of s
        plus the declared step (step, shifted[g] + step * d).  A
        state s outside the basis, or one whose images would pass
        max_charge, is the caller's fault (ValueError); a wrong step is the
        family's (AssertionError)."""
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
                                 "%d" % (s, top))
            c = charge[sid] + step
            if c > top:
                raise ValueError("%s of %r leaves the basis to charge %d"
                                 % (label, s, top))
            d0, out = degree[sid], []
            for g, t, coeff in family(s):
                tid = ids.get(t)
                if tid is None:
                    what = "step: %r is not an indexed basis state" % (t,)
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
        count = Counter(zip(self.charge, self.degree))
        return Series.from_terms("q", self.max_charge, (
            (b, {"q": c, "t": d}) for (c, d), b in count.items()))


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
    # visits left to each image past the stored rows, and its live row;
    # with same, the first loop below visits none
    left, live = [0] * (N - na), [None] * (N - na)
    for s in () if same else domain:
        for t in rows_b[s][1::3]:
            if t >= na:
                left[t - na] += 1
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
    for m in range(1, C):
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

    # the compositional form sorts factor words on its own, so it reads the
    # rows back as states: generator i's (image, coeff) entry, the last one
    # when a row repeats i, against the canonical word of (m, i) then s
    hopf, canonical = 0, space.canonical_state
    for m in range(1, C + 1):
        heads = [((m, i),) for i in range(G)]
        for s, row in zip(states, cre[m][0]):
            entry = [None] * G
            it = iter(row)
            for g, t, c in zip(it, it, it):
                entry[g] = states[t], c
            hopf += sum(map(ne, entry, map(canonical, [h + s for h in heads])))

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
