"""Truncated Fock space of the Heisenberg superalgebra attached to H*(X).

The underlying superspace is H*(X) regraded to be symmetric about zero
(degree_shifted = degree - d for a 2d-dimensional X), so the intersection
pairing has degree 0.  The Fock space is the free super symmetric algebra
on countably many copies of that space, one per level l >= 1; a basis state
is a canonically sorted multiset of (level, generator) factors in which odd
generators never repeat at the same level.

Operators come in families, one per level l >= 1 (a lower level raises
ValueError): creators(n) applies every generator's level-n creation
operator to a state at once (with the Koszul sign of sorting the new
factor into place), and annihilators(m) contracts each level-m factor of a
state against its pairing partners only (m times the graded contraction,
central charge 1).  Every output state is audited against an index of the
basis, enumerated once, holding each state's charge and degree; a family
applied to a state outside that index, or creating beyond it, raises
ValueError.  The defining super-commutation relation of the generator-a
entry of annihilators(m) and the generator-b entry of creators(n),

    [annihilators(m)_a, creators(n)_b] = m * eta(a, b) * delta_{m,n} * Id

is machine-checkable on any truncated basis, away from states where the
truncation could leak.  check_relations takes one domain state s at a
time and accumulates A_a B_b s - eps_ab B_b A_a s (eps_ab the Koszul sign
of a and b) for the (a, b) that either term touches; a pair violates the
relation when that is not c_ab s, c_ab the expected scalar, so an
untouched pair (value 0) is a violation exactly when c_ab != 0.  The
mixed, create/create and annihilate/annihilate relations are three calls.
Only even d is supported: for odd d the parity of a level-l factor would
depend on l and the algebra is not defined here.
"""

from bisect import bisect_left, bisect_right
from collections import namedtuple
from fractions import Fraction

from .orbifold import CheckResult, InputError, _compare, closed_series
from .series import Series


# One basis element of H*(X) in the symmetric regrading.
Generator = namedtuple("Generator", "id degree_shifted parity")


def _parse_entry(x):
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError("pairing entries must be integers or 'a/b' strings, "
                     "not %r" % (x,))


def _invertible(matrix):
    n = len(matrix)
    if n == 0:
        return True
    if any(len(row) != n for row in matrix):
        return False
    m = [list(row) for row in matrix]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return False
        m[col], m[piv] = m[piv], m[col]
        inv = Fraction(1) / m[col][col]
        for r in range(col + 1, n):
            if m[r][col]:
                f = m[r][col] * inv
                for c in range(col, n):
                    m[r][c] -= f * m[col][c]
    return True


def build_generators(X):
    """Basis of H*(X) in the symmetric regrading, ordered by degree.

    Returns (generators, by_degree) with by_degree mapping each shifted
    degree to the generator ids sitting there.
    """
    d = X.dim_real // 2
    gens = []
    by_degree = {}
    for (dd, _), b in sorted(X.betti.dims.items()):
        deg = dd // 2
        for _ in range(b):
            g = Generator(len(gens), deg - d, deg % 2)
            gens.append(g)
            by_degree.setdefault(g.degree_shifted, []).append(g.id)
    return gens, by_degree


def _fill_symmetric(eta, gens, i, j, value):
    """Store eta(i, j) = value and its graded-symmetric mirror."""
    eta[(i, j)] = value
    pp = gens[i].parity * gens[j].parity
    eta[(j, i)] = -value if pp else value


def default_pairing(X):
    """Identity blocks between opposite shifted degrees; standard
    symplectic middle block (1 at (2k, 2k+1), -1 at (2k+1, 2k)) when the
    middle parity is odd, identity when it is even.

    Needs Poincare duality (matching dimensions in opposite degrees); an
    odd middle block of odd dimension admits no nondegenerate antisymmetric
    form and is rejected.  The blocks go through pairing_from_blocks, which
    builds every pairing; returns {(i, j): value} over generator ids.
    """
    if not X.has_duality():
        raise InputError("default pairing needs Poincare duality on %s" % X.name)
    _, by_degree = build_generators(X)
    symplectic = X.dim_real // 2 % 2
    blocks = []
    for j in sorted(by_degree):
        if j > 0:
            continue
        n = len(by_degree[j])
        if j == 0 and symplectic:
            if n % 2:
                raise InputError(
                    "odd middle block of odd dimension has no "
                    "nondegenerate antisymmetric pairing"
                )
            mat = [[(r % 2 == 0 and c == r + 1) - (r % 2 == 1 and c == r - 1)
                    for c in range(n)] for r in range(n)]
        else:
            mat = [[int(r == c) for c in range(n)] for r in range(n)]
        blocks.append({"degree": -j, "matrix": mat})
    return pairing_from_blocks(X, blocks)


def pairing_from_blocks(X, blocks):
    """User-supplied pairing: a list of {degree: j, matrix: rows} with rows
    indexing the shifted-degree -j basis and columns the degree +j basis (a
    single square block when j = 0).  Each block must be invertible and the
    middle block graded-symmetric."""
    gens, by_degree = build_generators(X)
    d = X.dim_real // 2
    eta = {}
    seen = set()
    for block in blocks:
        j = block["degree"]
        if abs(j) in seen:
            raise ValueError("pairing block for degree %d given twice" % abs(j))
        mat = [[_parse_entry(x) for x in row] for row in block["matrix"]]
        neg = by_degree.get(-j, [])
        pos = by_degree.get(j, [])
        if len(mat) != len(neg) or any(len(r) != len(pos) for r in mat):
            raise ValueError("pairing block %d has the wrong shape" % j)
        if not _invertible(mat):
            raise ValueError("pairing block %d is degenerate" % j)
        if j == 0:
            odd = d % 2 == 1
            for r in range(len(neg)):
                for c in range(len(pos)):
                    mirror = -mat[c][r] if odd else mat[c][r]
                    if mat[r][c] != mirror:
                        raise ValueError(
                            "middle pairing block is not graded-symmetric"
                        )
            for r, a in enumerate(neg):
                for c, b in enumerate(pos):
                    if mat[r][c]:
                        eta[(a, b)] = mat[r][c]
        else:
            for r, a in enumerate(neg):
                for c, b in enumerate(pos):
                    if mat[r][c]:
                        _fill_symmetric(eta, gens, a, b, mat[r][c])
        seen.add(abs(j))
    for j in by_degree:
        if abs(j) not in seen and by_degree[j]:
            raise ValueError("pairing block for degree %d missing" % abs(j))
    return eta


class FockSpace:
    """Fock model over a manifold with even d = dim_real / 2."""

    def __init__(self, X):
        if X.dim_real % 4:
            raise InputError(
                "Fock construction needs dim_real divisible by 4; %s has "
                "dim_real %d" % (X.name, X.dim_real)
            )
        self.d = X.dim_real // 2
        self.gens = build_generators(X)[0]
        self.eta = default_pairing(X) if X.pairing is None \
            else pairing_from_blocks(X, X.pairing)
        self.odd = [g.parity for g in self.gens]
        self._cap, self._states, self._table = -1, [], {}

    # -- states ------------------------------------------------------------

    def state_charge(self, state):
        return sum(l for l, _ in state)

    def state_degree(self, state):
        """Total degree with the level-l copy of a generator weighted by
        degree_shifted + l*d (so the vacuum sits in degree zero)."""
        return sum(self.gens[g].degree_shifted + l * self.d for l, g in state)

    def canonical_state(self, factors):
        """Sort a factor word into canonical order, tracking the Koszul
        sign; None when an odd generator repeats at one level."""
        word = list(factors)
        sign = 1
        for i in range(1, len(word)):
            j = i
            while j > 0 and word[j] < word[j - 1]:
                if self.gens[word[j][1]].parity and \
                        self.gens[word[j - 1][1]].parity:
                    sign = -sign
                word[j], word[j - 1] = word[j - 1], word[j]
                j -= 1
        for a, b in zip(word, word[1:]):
            if a == b and self.gens[a[1]].parity:
                return None
        return tuple(word), sign

    def basis(self, max_charge):
        """All canonical states of charge <= max_charge, deterministically
        ordered by (charge, factors)."""
        letters = [(l, g.id, g.parity)
                   for l in range(1, max_charge + 1) for g in self.gens]
        out = []

        def rec(idx, budget, cur):
            out.append(tuple(cur))
            for i in range(idx, len(letters)):
                l, g, parity = letters[i]
                if l > budget:
                    continue
                cap = 1 if parity else budget // l
                for taken in range(1, cap + 1):
                    cur.append((l, g))
                    rec(i + 1, budget - taken * l, cur)
                del cur[-cap:]

        rec(0, max_charge, [])
        out.sort(key=lambda s: (self.state_charge(s), s))
        return out

    def index(self, max_charge):
        """The basis up to max_charge: a prefix of one charge-sorted
        enumeration, redone only for a higher charge, together with the
        table {state: (charge, degree)} the operator families audit by."""
        table = self._table
        if max_charge > self._cap:
            self._cap, self._states = max_charge, self.basis(max_charge)
            self._table = table = {
                s: (self.state_charge(s), self.state_degree(s))
                for s in self._states}
        return self._states[:bisect_right(self._states, max_charge,
                                          key=lambda s: table[s][0])]

    # -- operators -----------------------------------------------------------

    def _audited(self, charge, label, family):
        """Wrap a family s -> {g: {t: coeff}}, s an indexed basis state, so
        that every output t must be one too, with (charge, degree) that of s
        plus the declared step (charge, degree_shifted(g) + charge * d).  A
        state beyond the index, given or to be created, is the caller's
        fault (ValueError); a wrong step is the family's (AssertionError)."""
        steps = [g.degree_shifted + charge * self.d for g in self.gens]

        def apply(s):
            table, cap = self._table, self._cap
            got = table.get(s)
            if got is None:
                raise ValueError("%r is not a state of the basis indexed to "
                                 "charge %d" % (s, cap))
            c0, d0 = got
            if c0 + charge > cap:
                raise ValueError("%s of %r leaves the basis indexed to "
                                 "charge %d" % (label, s, cap))
            out = family(s)
            for g, images in out.items():
                want = (c0 + charge, d0 + steps[g])
                for t in images:
                    got = table.get(t)
                    if got != want:
                        what = ("step: %r is not an indexed basis state" % (t,)
                                if got is None else "charge step"
                                if got[0] != want[0] else "degree step")
                        raise AssertionError(
                            "%s violated its declared %s" % (label, what))
            return out
        return apply

    def creators(self, n):
        """Every generator's level-n creation operator at once, as a map
        s -> {g: {s with the level-n copy of g sorted in: Koszul sign}}; an
        odd g already at level n in s has no entry."""
        if n < 1:
            raise ValueError("level must be >= 1")
        odd, factors = self.odd, [(n, g.id) for g in self.gens]

        def family(s):
            out = {}
            for g, f in enumerate(factors):
                pos = bisect_left(s, f)
                if odd[g] and pos < len(s) and s[pos] == f:
                    continue
                sign = -1 if odd[g] and sum(
                    odd[h] for _, h in s[:pos]) % 2 else 1
                out[g] = {s[:pos] + (f,) + s[pos:]: sign}
            return out
        return self._audited(n, "create(%d)" % n, family)

    def annihilators(self, m):
        """Every generator's level-m annihilation operator at once, as a
        map s -> {g: {t: coeff}} over the g with a nonzero image: a level-m
        factor h of s meets only the g with eta(g, h) != 0.  The g operator
        moves degrees by degree_shifted(g) - m*d, the degree of the level-m
        copy of g, so its commutator with a creation has degree zero."""
        if m < 1:
            raise ValueError("level must be >= 1")
        odd, partners = self.odd, {}
        for (g, h), v in self.eta.items():
            partners.setdefault(h, []).append((g, m * v))

        def family(s):
            out = {}
            odd_before = 0
            for idx, (l, h) in enumerate(s):
                if l == m and h in partners:
                    rest = s[:idx] + s[idx + 1:]
                    for g, v in partners[h]:
                        images = out.setdefault(g, {})
                        # a repeated factor is even, so its terms never cancel
                        images[rest] = images.get(rest, 0) + (
                            -v if odd[g] and odd_before % 2 else v)
                odd_before += odd[h]
            return out
        return self._audited(-m, "annihilate(%d)" % m, family)

    # -- Hopf structure -------------------------------------------------------

    def hopf_product(self, s1, s2):
        """Product of two basis states in the symmetric algebra."""
        res = self.canonical_state(list(s1) + list(s2))
        return {} if res is None else {res[0]: res[1]}

    def character(self, max_charge):
        """sum over indexed basis states of q^charge t^degree, exactly."""
        states = self.index(max_charge)
        table = self._table
        return Series.from_terms("q", max_charge, (
            (1, {"q": table[s][0], "t": table[s][1]}) for s in states))


def _violations(A, B, domain, odd, scalar):
    """Count the (i, j, s), s in domain, where A_i B_j s - eps_ij B_j A_i s
    is not scalar[i, j] * s (0 when absent) for families A and B, eps_ij
    the Koszul sign of generators i and j.  Only the pairs either term
    touches are accumulated; an untouched pair is 0, so it counts exactly
    when its scalar is nonzero."""
    bad = 0
    for s in domain:
        lhs = {}
        for j, images in B(s).items():
            for t, c in images.items():
                for i, out in A(t).items():
                    acc = lhs.setdefault((i, j), {})
                    for u, w in out.items():
                        acc[u] = acc.get(u, 0) + c * w
        for i, images in A(s).items():
            for t, c in images.items():
                for j, out in B(t).items():
                    acc = lhs.setdefault((i, j), {})
                    e = -c if odd[i] and odd[j] else c
                    for u, w in out.items():
                        acc[u] = acc.get(u, 0) - e * w
        for ij, acc in lhs.items():
            if acc.pop(s, 0) != scalar.get(ij, 0) or any(acc.values()):
                bad += 1
        bad += sum(ij not in lhs for ij in scalar)
    return bad


def check_relations(X, max_charge):
    """Machine-check the Heisenberg relations on the truncated basis.

    For every pair of basis generators and all levels m, n >= 1 with
    m + n <= max_charge, the mixed super-commutator must be
    m * eta(a,b) * delta_{m,n} * Id on states too low in charge for the
    truncation to leak; the create/create and annihilate/annihilate
    super-commutators must vanish there.  Also checks the compositional
    (Hopf) form of the creation operators and the basis character against
    the closed sector product formula.  Returns a list of CheckResults.
    """
    space = FockSpace(X)
    C = max_charge
    space.index(C)  # before the families, which audit against it
    odd = space.odd
    cre = {n: space.creators(n) for n in range(1, C + 1)}
    ann = {m: space.annihilators(m) for m in range(1, C)}
    mixed = cc = aa = 0
    for m in range(1, C):
        for n in range(1, C - m + 1):
            domain = space.index(C - max(m, n))
            # [annihilate_m(a), create_n(b)] = m eta(a,b) delta_{m,n} Id
            scalar = {ij: m * v for ij, v in space.eta.items()
                      if m == n and v}
            mixed += _violations(ann[m], cre[n], domain, odd, scalar)
            # create/create needs full headroom for the intermediate state
            cc += _violations(cre[m], cre[n], space.index(C - m - n), odd, {})
            # annihilate/annihilate vanishes (no upward leak at all)
            aa += _violations(ann[m], ann[n], domain, odd, {})

    hopf = 0
    for m in range(1, C + 1):
        for s in space.index(C - m):
            images = cre[m](s)
            hopf += sum(images.get(i, {}) != space.hopf_product(((m, i),), s)
                        for i in range(len(odd)))

    def verdict(name, bad):
        return CheckResult(name, "fail" if bad else "pass",
                           ["%d violations" % bad] if bad else [])

    return [
        verdict("heisenberg mixed commutators (max charge %d)" % C, mixed),
        verdict("create/create super-commutators vanish", cc),
        verdict("annihilate/annihilate super-commutators vanish", aa),
        verdict("compositional (Hopf) creation matches direct creation", hopf),
        _compare("Fock character = regraded sector series",
                 space.character(C), closed_series("poincare_orb", X, C), "q"),
    ]
