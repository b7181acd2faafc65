"""Truncated Fock space of the Heisenberg superalgebra attached to H*(X).

The underlying superspace is H*(X) regraded to be symmetric about zero
(degree_shifted = degree - d for a 2d-dimensional X), so the intersection
pairing has degree 0.  The Fock space is the free super symmetric algebra
on countably many copies of that space, one per level l >= 1; a basis state
is a canonically sorted multiset of (level, generator) factors in which odd
generators never repeat at the same level.

Operators take one generator index a: create(m, a) multiplies by the
level-m copy of a, with the Koszul sign of sorting the new factor into
place; annihilate(m, a) is m times the graded contraction against the
pairing (central charge 1).  The defining super-commutation relation

    [annihilate(m, a), create(n, b)] = m * eta(a, b) * delta_{m,n} * Id

is machine-checkable on any truncated basis, away from states where the
truncation could leak.  check_relations does it with one bracket routine:
given operator families A_a, B_b and a domain of states, it counts the
(a, b, s) with A_a B_b s - eps_ab B_b A_a s != c_ab s, where eps_ab is the
Koszul sign of a and b and c_ab the expected scalar.  The mixed,
create/create and annihilate/annihilate relations are three calls of it.
Only even d is supported: for odd d the parity of a level-l factor would
depend on l and the algebra is not defined here.
"""

from bisect import bisect_left
from fractions import Fraction

from .orbifold import CheckResult, InputError, _compare, closed_series
from .series import Series


class Generator:
    """One basis element of H*(X) in the symmetric regrading."""

    __slots__ = ("id", "degree_shifted", "parity")

    def __init__(self, gid, degree_shifted, parity):
        self.id = gid
        self.degree_shifted = degree_shifted
        self.parity = parity

    def __repr__(self):
        return "Generator(%d, deg=%d, %s)" % (
            self.id, self.degree_shifted, "odd" if self.parity else "even"
        )


class FockOperator:
    """A sparse linear operator with declared charge and degree steps.

    Every application audits its output: each produced basis state must
    differ from the input by exactly the declared (charge, degree).
    """

    __slots__ = ("space", "charge", "degree", "_fn", "label")

    def __init__(self, space, charge, degree, fn, label):
        self.space = space
        self.charge = charge
        self.degree = degree
        self._fn = fn
        self.label = label

    def apply_state(self, state):
        out = self._fn(state)
        c0 = self.space.state_charge(state)
        d0 = self.space.state_degree(state)
        for s in out:
            if self.space.state_charge(s) - c0 != self.charge:
                raise AssertionError(
                    "%s violated its declared charge step" % self.label
                )
            if self.space.state_degree(s) - d0 != self.degree:
                raise AssertionError(
                    "%s violated its declared degree step" % self.label
                )
        return out

    def apply(self, vec):
        out = {}
        for state, c in vec.items():
            for s, w in self.apply_state(state).items():
                t = out.get(s, 0) + c * w
                if t:
                    out[s] = t
                else:
                    del out[s]
        return out


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
            f = m[r][col] * inv
            if f:
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
    for dd in sorted(X.betti.dims):
        deg = dd // 2
        for _ in range(X.betti.dims[dd]):
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
    symplectic middle block when the middle parity is odd.

    Needs Poincare duality (matching dimensions in opposite degrees); an
    odd middle block of odd dimension admits no nondegenerate antisymmetric
    form and is rejected.  Returns {(i, j): value} over generator ids.
    """
    if not X.has_duality():
        raise InputError("default pairing needs Poincare duality on %s" % X.name)
    gens, by_degree = build_generators(X)
    d = X.dim_real // 2
    eta = {}
    for j in sorted(by_degree):
        if j > 0:
            continue
        if j < 0:
            neg = by_degree[j]
            pos = by_degree.get(-j, [])
            if len(neg) != len(pos):
                raise InputError("default pairing needs Poincare duality")
            for a, b in zip(neg, pos):
                _fill_symmetric(eta, gens, a, b, 1)
        else:
            mid = by_degree[0]
            if d % 2 == 0:
                for a in mid:
                    eta[(a, a)] = 1
            else:
                if len(mid) % 2:
                    raise InputError(
                        "odd middle block of odd dimension has no "
                        "nondegenerate antisymmetric pairing"
                    )
                for a, b in zip(mid[0::2], mid[1::2]):
                    _fill_symmetric(eta, gens, a, b, 1)
    return eta


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

    def __init__(self, X, pairing_blocks=None):
        self.manifold = X
        if X.dim_real % 4:
            raise InputError(
                "Fock construction needs dim_real divisible by 4; %s has "
                "dim_real %d" % (X.name, X.dim_real)
            )
        self.d = X.dim_real // 2
        self.gens, self._by_degree = build_generators(X)
        if pairing_blocks is None:
            pairing_blocks = X.pairing
        if pairing_blocks is None:
            self.eta = default_pairing(X)
        else:
            self.eta = pairing_from_blocks(X, pairing_blocks)

    def eta_value(self, i, j):
        return self.eta.get((i, j), 0)

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
        letters = [
            (l, g.id, g.parity)
            for l in range(1, max_charge + 1)
            for g in self.gens
        ]
        out = []

        def rec(idx, budget, cur):
            out.append(tuple(cur))
            for i in range(idx, len(letters)):
                l, g, parity = letters[i]
                if l > budget:
                    continue
                cap = 1 if parity else budget // l
                taken = 0
                for _ in range(cap):
                    cur.append((l, g))
                    taken += 1
                    rec(i + 1, budget - taken * l, cur)
                for _ in range(taken):
                    cur.pop()

        rec(0, max_charge, [])
        out.sort(key=lambda s: (self.state_charge(s), s))
        return out

    # -- operators -----------------------------------------------------------

    def create(self, m, g):
        """Multiplication by the level-m copy of generator g."""
        if m < 1:
            raise ValueError("level must be >= 1")
        factor = (m, g)
        odd = self.gens[g].parity

        def fn(state):
            pos = bisect_left(state, factor)
            if odd and pos < len(state) and state[pos] == factor:
                return {}
            odd_before = sum(self.gens[h].parity for _, h in state[:pos])
            sign = -1 if odd and odd_before % 2 else 1
            return {state[:pos] + (factor,) + state[pos:]: sign}

        degree = self.gens[g].degree_shifted + m * self.d
        return FockOperator(self, m, degree, fn, "create(%d)" % m)

    def annihilate(self, m, g):
        """m times the graded contraction by the level-m copy of generator g.

        The removed factor pairs with g, so it sits in the opposite shifted
        degree: the operator moves degrees by degree_shifted - m*d (the
        degree of the level-m copy of g itself, as it must be for the
        commutator with a creation operator to have degree zero).
        """
        if m < 1:
            raise ValueError("level must be >= 1")
        odd = self.gens[g].parity

        def fn(state):
            out = {}
            odd_before = 0
            for idx, (l, h) in enumerate(state):
                pair = self.eta_value(g, h) if l == m else 0
                if pair:
                    sign = -1 if odd and odd_before % 2 else 1
                    new = state[:idx] + state[idx + 1:]
                    # a repeated factor is even, so its terms never cancel
                    out[new] = out.get(new, 0) + m * sign * pair
                odd_before += self.gens[h].parity
            return out

        degree = self.gens[g].degree_shifted - m * self.d
        return FockOperator(self, -m, degree, fn, "annihilate(%d)" % m)

    # -- Hopf structure -------------------------------------------------------

    def hopf_product(self, s1, s2):
        """Product of two basis states in the symmetric algebra."""
        res = self.canonical_state(list(s1) + list(s2))
        if res is None:
            return {}
        state, sign = res
        return {state: sign}

    def character(self, max_charge):
        """sum over basis states of q^charge t^degree, an exact series."""
        return Series.from_terms("q", max_charge, (
            (1, {"q": self.state_charge(s), "t": self.state_degree(s)})
            for s in self.basis(max_charge)))


def _bracket_violations(space, A, B, domain, scalar=lambda i, j: 0):
    """Count the (i, j, s) with s in domain for which the super-commutator
    A_i B_j s - eps_ij B_j A_i s is not scalar(i, j) * s, where A_i and B_j
    belong to generators i and j and eps_ij is their Koszul sign.  Each
    operator meets each domain state once; the outer applications run on
    those images, and only on the nonempty ones."""
    a_images = [[a.apply_state(s) for s in domain] for a in A]
    b_images = [[b.apply_state(s) for s in domain] for b in B]
    bad = 0
    for i, a in enumerate(A):
        for j, b in enumerate(B):
            eps = -1 if space.gens[i].parity and space.gens[j].parity else 1
            want = scalar(i, j)
            for s, a_s, b_s in zip(domain, a_images[i], b_images[j]):
                lhs = a.apply(b_s) if b_s else {}
                if a_s:
                    for t, c in b.apply(a_s).items():
                        lhs[t] = lhs.get(t, 0) - eps * c
                if lhs.pop(s, 0) != want or any(lhs.values()):
                    bad += 1
    return bad


def check_relations(X, max_charge, pairing_blocks=None):
    """Machine-check the Heisenberg relations on the truncated basis.

    For every pair of basis generators and all levels m, n >= 1 with
    m + n <= max_charge, the mixed super-commutator must be
    m * eta(a,b) * delta_{m,n} * Id on states too low in charge for the
    truncation to leak; the create/create and annihilate/annihilate
    super-commutators must vanish there.  Also checks the compositional
    (Hopf) form of the creation operators and the basis character against
    the closed sector product formula.  Returns a list of CheckResults.
    """
    space = FockSpace(X, pairing_blocks)
    C = max_charge
    by_charge = {}
    for s in space.basis(C):
        by_charge.setdefault(space.state_charge(s), []).append(s)

    def states_up_to(c):
        return [s for charge in range(c + 1) for s in by_charge.get(charge, ())]

    gens = range(len(space.gens))
    mixed = cc = aa = 0
    for m in range(1, C):
        for n in range(1, C - m + 1):
            ann_m = [space.annihilate(m, i) for i in gens]
            cre_n = [space.create(n, j) for j in gens]
            domain = states_up_to(C - max(m, n))
            # [annihilate_m(a), create_n(b)] = m eta(a,b) delta_{m,n} Id
            mixed += _bracket_violations(
                space, ann_m, cre_n, domain,
                lambda i, j: m * space.eta_value(i, j) if m == n else 0)
            # create/create needs full headroom for the intermediate state
            cc += _bracket_violations(
                space, [space.create(m, i) for i in gens], cre_n,
                states_up_to(C - m - n))
            # annihilate/annihilate vanishes (no upward leak at all)
            aa += _bracket_violations(
                space, ann_m, [space.annihilate(n, j) for j in gens], domain)

    hopf = 0
    for m in range(1, C + 1):
        for i in gens:
            cre = space.create(m, i)
            for s in states_up_to(C - m):
                if cre.apply_state(s) != space.hopf_product(((m, i),), s):
                    hopf += 1

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
