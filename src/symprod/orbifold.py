"""Sector-by-sector invariants of symmetric products, and the closed
product/exponential formulas they are provably equal to.

For a manifold X, the n-th symmetric product sector decomposition runs over
cycle types of S_n: a permutation with N_l l-cycles fixes a product of
copies of X, one per cycle, and its centralizer quotient is the product of
the Sym^(N_l)(X).  Twisted sectors are regraded by half the codimension of
the fixed locus.  Both the brute-force assembly and the closed generating
functions are computed here in exact arithmetic, so any claimed identity can
be checked coefficient by coefficient.

The brute side is one cycle-type sector sum, _sector_sum: each kind names a
block(l, N), the invariant of Sym^N(H*X) regraded for N l-cycles, and the
sum multiplies blocks over the cycle lengths of every cycle type.  Blocks
are ints, dims (which support + and *) or Series.

Every closed form is a plethystic exponential PE[f] of a single-particle
series f (Macdonald for Sym^n(X), the DMVV product for the sector sums);
kinds marked + take super signs, twist(PE[twist(f)]).  P, E, C: Poincare,
Hodge, chi_(-y) polynomials of X; e, s, a: its Euler number, signature,
arithmetic genus; k = dim_C/2, m = dim_R/2; L(g; w) = sum_{l>=1} g w^(l-1)
q^l, one copy per cycle length l regraded by w per moved cycle.

===================  =========================================================
euler_sym            e q: Euler numbers of the plain symmetric products
euler_orb            L(e; 1): orbifold Euler numbers, one sector per class
poincare_sym +       P q: Poincare polynomials of Sym^n(X)
poincare_orb +       L(P; t^m): the same for (X^n, S_n) with sector shifts
hodge_sym +          E q: Hodge polynomials of Sym^n(X)
hodge_orb +          L(E; x^k y^k): the same for (X^n, S_n)
chiy_sym             C q: chi_(-y) genera of Sym^n(X)
chiy_orb             L(C; y^k): chi_(-y) genera of (X^n, S_n), weights y^F
arith_sym/arith_orb  a q: arithmetic genera (the y -> 0 corner)
sign_sym             s q + (e - s)/2 q^2: signatures (the y -> -1 corner)
sign_orb             sum_m s_m q^m + (e - s_m)/2 q^(2m), s_m = -s for even m
                     and odd k, else s (needs even dim_C)
*_B                  the same on the polyvector-field (B-algebra) table
gottsche_poincare +  L(P; t^2): Betti series of Hilbert schemes of points
gottsche_hodge +     L(E; x y): Hodge series of Hilbert schemes of points
dmvv_q0/dmvv_q0_B    L(y^(-k) C; 1) in the variable p: normalized chi_(-y)
===================  =========================================================
"""

from collections import namedtuple
from fractions import Fraction
from functools import cache, reduce
from math import prod
from operator import add

from .cycletypes import cycle_types
from .graded import BigradedDims, GradedDims
from .series import (
    Series,
    first_mismatch,
    plethystic_exp,
    render_key,
    specialize,
    substitute,
    twist,
)


class ManifoldData:
    """Input description of a closed manifold X.

    Degrees are stored doubled like everywhere else; Hodge tables are
    supported on integer bidegrees.  `hodge_b` holds the dimensions of the
    polyvector-field Dolbeault groups H^q(X, Lambda^p TX), indexed like a
    Hodge table at (p, q).
    """

    def __init__(self, name, dim_real, betti, dim_c=None, hodge=None,
                 hodge_b=None, calabi_yau=False, pairing=None):
        self.name = name
        self.dim_real = dim_real
        self.betti = betti
        self.dim_c = dim_c
        self.hodge = hodge
        self.hodge_b = hodge_b
        self.calabi_yau = calabi_yau
        self.pairing = pairing
        self._validate()

    @classmethod
    def from_betti(cls, name, dim_real, betti_list):
        """Real manifold from its Betti vector [b_0, b_1, ...]."""
        dims = {2 * d: b for d, b in enumerate(betti_list) if b}
        return cls(name, dim_real, GradedDims(dims))

    @classmethod
    def from_hodge(cls, name, dim_c, rows, calabi_yau=False, hodge_b_rows=None,
                   pairing=None):
        """Complex manifold from its Hodge table rows[p][q] = h^{p,q}."""
        hodge = _table_from_rows(rows)
        hodge_b = _table_from_rows(hodge_b_rows) if hodge_b_rows else None
        betti = hodge.to_graded()
        X = cls(name, 2 * dim_c, betti, dim_c=dim_c, hodge=hodge,
                hodge_b=hodge_b, calabi_yau=calabi_yau, pairing=pairing)
        return X

    def _validate(self):
        if self.dim_real < 0 or self.dim_real % 2:
            raise ValueError("dim_real must be a nonnegative even integer")
        if not self.betti.is_integer_graded():
            raise ValueError("Betti degrees must be integers")
        for d in self.betti.dims:
            if d < 0 or d > 2 * self.dim_real:
                raise ValueError("Betti degree out of range")
        if self.hodge is not None:
            if self.dim_c is None or 2 * self.dim_c != self.dim_real:
                raise ValueError("complex dimension inconsistent with dim_real")
            for (p, q) in self.hodge.dims:
                if p % 2 or q % 2 or p < 0 or q < 0 \
                        or p > 2 * self.dim_c or q > 2 * self.dim_c:
                    raise ValueError("Hodge bidegrees must be integers in range")
            if self.hodge.to_graded() != self.betti:
                raise ValueError("Betti numbers disagree with the Hodge table")
        elif self.dim_c is not None:
            raise ValueError("dim_c given without a Hodge table")
        if self.calabi_yau:
            if self.hodge is None:
                raise ValueError("a Calabi-Yau input needs a Hodge table")
            if self.hodge_b is None:
                self.hodge_b = derive_B_table(self)
        if self.hodge_b is not None:
            if self.hodge is None:
                raise ValueError("hodge_b given without a Hodge table")
            for (p, q) in self.hodge_b.dims:
                if p % 2 or q % 2:
                    raise ValueError("B-table bidegrees must be integers")

    # -- numeric invariants --------------------------------------------------

    @property
    def m(self):
        return self.dim_real // 2

    def euler(self):
        return self.betti.euler()

    def signature(self):
        return genus(self.hodge, "signature")

    def arithmetic_genus(self):
        return genus(self.hodge, "arithmetic")

    def chi_minus_y_poly(self, var="q", b_version=False):
        """chi_(-y) as a polynomial in y: sum (-1)^(p+q) h^{p,q} y^p."""
        table = self.hodge_b if b_version else self.hodge
        if table is None:
            raise ValueError("missing Hodge data on %s" % self.name)
        return chi_minus_y(table, var)

    def has_duality(self):
        n2 = 2 * self.dim_real
        return all(
            self.betti.dims.get(d, 0) == self.betti.dims.get(n2 - d, 0)
            for d in range(0, n2 + 2, 2)
        )

    def __repr__(self):
        return "ManifoldData(%r)" % self.name


def _table_from_rows(rows):
    dims = {}
    for p, row in enumerate(rows):
        for q, h in enumerate(row):
            if h:
                dims[(2 * p, 2 * q)] = h
    return BigradedDims(dims)


def derive_B_table(X):
    """B-table of a Calabi-Yau manifold: h^{-p,q} = h^{d-p,q}, d = dim_C."""
    if X.hodge is None or X.dim_c is None:
        raise ValueError("derive_B_table needs a complex manifold")
    d2 = 2 * X.dim_c
    return BigradedDims(
        {(d2 - p, q): h for (p, q), h in X.hodge.dims.items()}
    )


# -- genera -------------------------------------------------------------------


def chi_minus_y(table, var="q"):
    """chi_(-y) of a bigraded space: sum (-1)^(p+q) h^{p,q} y^p.

    Well defined for any admissible bigrading (p + q is an integer even when
    p and q are halves), and multiplicative under tensor product.
    """
    return Series.from_terms(var, None, (
        (-h if ((dp + dq) // 2) % 2 else h, {"y": Fraction(dp, 2)})
        for (dp, dq), h in table.dims.items()))


def genus(table, which):
    """Classical genus of a bigraded dimension table: the signature or the
    arithmetic genus, the values of chi_y = sum_q (-1)^q h^{p,q} y^p at
    y = 1 and y = 0.  Both need integer q-degrees: (-1)^q has no meaning on
    a strict half-integer.
    """
    if which not in ("signature", "arithmetic"):
        raise ValueError("unknown genus %r" % (which,))
    if any(dq % 2 for _, dq in table.dims):
        raise ValueError("genus %r needs integer second degrees" % (which,))
    return sum(h if (dq // 2) % 2 == 0 else -h
               for (dp, dq), h in table.dims.items()
               if which == "signature" or dp == 0)


# -- series kinds --------------------------------------------------------------


def _qpow(var, order, coeff, n):
    return Series.term(var, order, coeff, {var: n})


def _by_n(order, coeff):
    """sum_{n <= order} coeff(n) q^n; coeff(n) is a number or a polynomial."""
    total = Series.zero("q", order)
    for n in range(order + 1):
        total = total + coeff(n) * _qpow("q", order, 1, n)
    return total


def _sector_sum(order, block, step=lambda value: value):
    """sum_n q^n step(sum over cycle types of S_n of prod_l block(l, N_l)).

    block(l, N) is the invariant of the N l-cycles of a sector: Sym^N of
    H*(X), regraded for their (l - 1) N moved cycles.  Each block is
    computed once per call; block(1, 0), the zeroth power, is the unit.
    """
    cached = cache(block)
    unit = cached(1, 0)

    def sectors(n):
        return reduce(add, (
            prod((cached(l, nl) for l, nl in ct.mult.items()),
                 start=unit)
            for ct in cycle_types(n)))

    return _by_n(order, lambda n: step(sectors(n)))


def _chiy_orb_brute(X, T, order):
    """Sector genera taken on the untwisted quotient (plain symmetric powers,
    integer bidegrees), each l-cycle weighted by the exact monomial
    y^(k(l-1)), k = dim_C/2, half-integer exponents included."""
    return _sector_sum(order, lambda l, nl: chi_minus_y(T.sym_power(nl))
                       * Series.term("q", None, 1,
                                     {"y": Fraction(X.dim_c * (l - 1) * nl, 2)}))


def _levels(poly, order, shift):
    """sum_{l >= 1} poly * prod_v v^((l-1) shift[v]) * (counting var)^l: one
    copy of the single-particle polynomial per cycle length l, regraded by
    the shift of each of its l - 1 moved cycles."""
    return poly * Series.from_terms(poly.var, order, (
        (1, {poly.var: l, **{v: (l - 1) * e for v, e in shift.items()}})
        for l in range(1, order + 1)))


def _sign_f(X, order, levels):
    """sum_{m <= levels} eps_m sgn q^m + (chi - eps_m sgn)/2 q^(2m), the
    logarithm of prod_m (1-q^(2m))^(-chi/2) ((1+q^m)/(1-q^m))^(eps_m sgn/2);
    eps_m = -1 on even m when k = dim_C/2 is odd, else 1."""
    chi, sgn, k = X.euler(), X.signature(), X.dim_c // 2
    pairs = []
    for m in range(1, levels + 1):
        e = -sgn if (k % 2 and m % 2 == 0) else sgn
        pairs += [(e, {"q": m}), (Fraction(chi - e, 2), {"q": 2 * m})]
    return Series.from_terms("q", order, pairs)


# Requirements: (holds(X), reason when it does not), checked in order.
_HAS_HODGE = (lambda X: X.hodge is not None, "needs a Hodge table")
_HAS_B_TABLE = (lambda X: X.hodge_b is not None, "needs a B-table (supply "
                "hodgeB or mark the input Calabi-Yau)")
_IS_SURFACE = (lambda X: X.dim_c == 2,
               "Hilbert-scheme series need a surface (dim_C = 2)")
_EVEN_DIM_C = (lambda X: X.dim_c is not None and X.dim_c % 2 == 0,
               "orbifold signature needs even complex dimension")
_POSITIVE_DIM_C = (lambda X: X.dim_c is not None and X.dim_c >= 1,
                   "orbifold arithmetic-genus formula needs dim_C >= 1")

# One spec per kind.  var: the counting variable; needs: requirements;
# twisted: the closed form is the super PE twist(PE[twist(f)]), signed by
# total degree; surface_order: default-order cap on surfaces for the (x, y)-
# weighted kinds, whose expansion dominates cost; table: the ManifoldData
# attribute handed to both builders as T.  brute(X, T, order) sums sectors;
# single(X, T, order) is the single-particle series f of the closed form.
KindSpec = namedtuple(
    "KindSpec", "var needs twisted surface_order table brute single")

KINDS = {
    "euler_sym": KindSpec(
        "q", (), False, None, "hodge",
        lambda X, T, order: _by_n(order, lambda n: X.betti.sym_power(n).euler()),
        lambda X, T, order: _qpow("q", order, X.euler(), 1)),
    "euler_orb": KindSpec(
        "q", (), False, None, "hodge",
        lambda X, T, order: _sector_sum(
            order, lambda l, nl: X.betti.sym_power(nl).euler()),
        lambda X, T, order: _levels(
            Series.constant("q", None, X.euler()), order, {})),
    "poincare_sym": KindSpec(
        "q", (), True, None, "hodge",
        lambda X, T, order: _by_n(
            order, lambda n: X.betti.sym_power(n).poincare_poly()),
        lambda X, T, order: X.betti.poincare_poly() * _qpow("q", order, 1, 1)),
    "poincare_orb": KindSpec(
        "q", (), True, None, "hodge",
        lambda X, T, order: _sector_sum(
            order, lambda l, nl: X.betti.shift(2 * X.m * (l - 1)).sym_power(nl),
            GradedDims.poincare_poly),
        lambda X, T, order: _levels(X.betti.poincare_poly(), order, {"t": X.m})),
    "hodge_sym": KindSpec(
        "q", (_HAS_HODGE,), True, 6, "hodge",
        lambda X, T, order: _by_n(order, lambda n: T.sym_power(n).hodge_poly()),
        lambda X, T, order: T.hodge_poly() * _qpow("q", order, 1, 1)),
    "hodge_orb": KindSpec(
        "q", (_HAS_HODGE,), True, 6, "hodge",
        lambda X, T, order: _sector_sum(
            order, lambda l, nl: T.shift2(X.dim_c * (l - 1),
                                          X.dim_c * (l - 1)).sym_power(nl),
            BigradedDims.hodge_poly),
        lambda X, T, order: _levels(T.hodge_poly(), order, {
            "x": Fraction(X.dim_c, 2), "y": Fraction(X.dim_c, 2)})),
    "chiy_sym": KindSpec(
        "q", (_HAS_HODGE,), False, None, "hodge",
        lambda X, T, order: _by_n(order, lambda n: chi_minus_y(T.sym_power(n))),
        lambda X, T, order: chi_minus_y(T) * _qpow("q", order, 1, 1)),
    "chiy_orb": KindSpec(
        "q", (_HAS_HODGE,), False, None, "hodge", _chiy_orb_brute,
        lambda X, T, order: _levels(
            chi_minus_y(T), order, {"y": Fraction(X.dim_c, 2)})),
    "arith_sym": KindSpec(
        "q", (_HAS_HODGE,), False, None, "hodge",
        lambda X, T, order: _by_n(
            order, lambda n: genus(T.sym_power(n), "arithmetic")),
        lambda X, T, order: _qpow("q", order, X.arithmetic_genus(), 1)),
    "arith_orb": KindSpec(
        "q", (_HAS_HODGE, _POSITIVE_DIM_C), False, None, "hodge",
        lambda X, T, order: specialize(_chiy_orb_brute(X, T, order), {"y": 0}),
        lambda X, T, order: _qpow("q", order, X.arithmetic_genus(), 1)),
    "sign_sym": KindSpec(
        "q", (_HAS_HODGE,), False, None, "hodge",
        lambda X, T, order: _by_n(
            order, lambda n: genus(T.sym_power(n), "signature")),
        lambda X, T, order: _sign_f(X, order, 1)),
    "sign_orb": KindSpec(
        "q", (_HAS_HODGE, _EVEN_DIM_C), False, None, "hodge",
        lambda X, T, order: _sector_sum(
            order, lambda l, nl: (-1) ** (X.dim_c // 2 * (l - 1) * nl)
            * genus(T.sym_power(nl), "signature")),
        lambda X, T, order: _sign_f(X, order, order)),
}
# Added after the literal so that SERIES_KINDS keeps its published order.
_B_NEEDS = (_HAS_HODGE, _HAS_B_TABLE)
for _kind in ("hodge_sym", "chiy_sym", "hodge_orb", "chiy_orb"):
    KINDS[_kind + "_B"] = KINDS[_kind]._replace(needs=_B_NEEDS, table="hodge_b")
KINDS["gottsche_poincare"] = KindSpec(
    "q", (_HAS_HODGE, _IS_SURFACE), True, None, "hodge",
    KINDS["poincare_orb"].brute,
    lambda X, T, order: _levels(X.betti.poincare_poly(), order, {"t": 2}))
KINDS["gottsche_hodge"] = KindSpec(
    "q", (_HAS_HODGE, _IS_SURFACE), True, 6, "hodge",
    KINDS["hodge_orb"].brute,
    lambda X, T, order: _levels(T.hodge_poly(), order, {"x": 1, "y": 1}))
KINDS["dmvv_q0"] = KindSpec(
    "p", (_HAS_HODGE,), False, 6, "hodge",
    lambda X, T, order: substitute(_chiy_orb_brute(X, T, order), "q",
                                   {"y": Fraction(-X.dim_c, 2), "p": 1}),
    lambda X, T, order: _levels(chi_minus_y(T, "p") * Series.term(
        "p", None, 1, {"y": Fraction(-X.dim_c, 2)}), order, {}))
KINDS["dmvv_q0_B"] = KINDS["dmvv_q0"]._replace(needs=_B_NEEDS, table="hodge_b")

SERIES_KINDS = tuple(KINDS)


def applicability(kind, X):
    """None when the kind applies to X, else a one-line reason."""
    if kind not in KINDS:
        raise ValueError("unknown series kind %r" % (kind,))
    for holds, reason in KINDS[kind].needs:
        if not holds(X):
            return reason
    return None


def _require(kind, X):
    reason = applicability(kind, X)
    if reason is not None:
        raise ValueError("kind %s not applicable to %s: %s"
                         % (kind, X.name, reason))


def brute_series(kind, X, order):
    """Assemble the series named by kind from explicit sector data."""
    _require(kind, X)
    spec = KINDS[kind]
    return spec.brute(X, getattr(X, spec.table), order)


def closed_series(kind, X, order):
    """Expand the closed form of kind: the plethystic exponential of its
    single-particle series, super-signed for the twisted kinds."""
    _require(kind, X)
    spec = KINDS[kind]
    f = spec.single(X, getattr(X, spec.table), order)
    if spec.twisted:
        return twist(plethystic_exp(twist(f)))
    return plethystic_exp(f)


# -- verification ---------------------------------------------------------------


class CheckResult:
    """Outcome of one named identity check."""

    __slots__ = ("name", "status", "lines")

    def __init__(self, name, status, lines=()):
        self.name = name
        self.status = status  # "pass" | "fail" | "skip"
        self.lines = list(lines)

    def __repr__(self):
        return "CheckResult(%r, %r)" % (self.name, self.status)


def _compare(name, a, b, var):
    if a == b:
        return CheckResult(name, "pass")
    mism = first_mismatch(a, b)
    lines = []
    if mism is not None:
        key, ca, cb = mism
        lines.append(
            "first mismatch at %s: %s vs %s" % (render_key(var, key), ca, cb)
        )
    lines.append("lhs: %s" % a)
    lines.append("rhs: %s" % b)
    return CheckResult(name, "fail", lines)


def _series_of(X):
    """(build, kind, order) -> build(kind, X, order) for build in
    {brute_series, closed_series}, each series built once per run."""
    return cache(lambda build, kind, order: build(kind, X, order))


def verify(kind, X, order, built=None):
    """Compute brute and closed series for the kind and compare exactly."""
    reason = applicability(kind, X)
    if reason is not None:
        return CheckResult("%s order %d" % (kind, order), "skip", [reason])
    built = built or _series_of(X)
    b = built(brute_series, kind, order)
    c = built(closed_series, kind, order)
    return _compare("%s order %d" % (kind, order), b, c, KINDS[kind].var)


def _subst_xy_to_t(s):
    return substitute(substitute(s, "x", {"t": 1}), "y", {"t": 1})


def cross_checks(X, order, hodge_order, built=None):
    """Identities tying different series kinds together."""
    built = built or _series_of(X)
    out = []
    complex_x = X.hodge is not None

    if complex_x:
        n0 = min(order, hodge_order)
        lhs = _subst_xy_to_t(built(brute_series, "hodge_orb", n0))
        rhs = built(brute_series, "poincare_orb", n0)
        out.append(_compare("cross hodge_orb(x=y=t) = poincare_orb", lhs, rhs, "q"))

        lhs = specialize(built(brute_series, "chiy_orb", order), {"y": 1})
        rhs = built(brute_series, "euler_orb", order)
        out.append(_compare("cross chiy_orb(y=1) = euler_orb", lhs, rhs, "q"))

        lhs = specialize(built(brute_series, "chiy_sym", order), {"y": 1})
        rhs = built(brute_series, "euler_sym", order)
        out.append(_compare("cross chiy_sym(y=1) = euler_sym", lhs, rhs, "q"))

        lhs = specialize(built(brute_series, "chiy_sym", order), {"y": -1})
        rhs = built(brute_series, "sign_sym", order)
        out.append(_compare("cross chiy_sym(y=-1) = sign_sym", lhs, rhs, "q"))

        if X.dim_c % 2 == 0 and X.dim_c >= 0:
            lhs = specialize(built(brute_series, "chiy_orb", order), {"y": -1})
            rhs = built(brute_series, "sign_orb", order)
            out.append(_compare("cross chiy_orb(y=-1) = sign_orb", lhs, rhs, "q"))

    if X.m % 2 == 0:
        lhs = specialize(built(brute_series, "poincare_orb", order), {"t": -1})
        rhs = built(brute_series, "euler_orb", order)
        out.append(_compare("cross poincare_orb(t=-1) = euler_orb", lhs, rhs, "q"))

    if complex_x and X.dim_c == 2:
        lhs = built(closed_series, "gottsche_poincare", order)
        rhs = built(closed_series, "poincare_orb", order)
        out.append(_compare("cross gottsche_poincare = poincare_orb", lhs, rhs, "q"))
        lhs = built(closed_series, "gottsche_hodge", hodge_order)
        rhs = built(closed_series, "hodge_orb", hodge_order)
        out.append(_compare("cross gottsche_hodge = hodge_orb", lhs, rhs, "q"))

    if X.calabi_yau and X.hodge_b is not None:
        # Serre duality for the polyvector genus of a Calabi-Yau d-fold:
        # chi^B_(-y) = (-1)^d y^d chi_(-1/y).  Only claimed for Calabi-Yau
        # input; an explicitly supplied B-table on other manifolds obeys
        # the series identities but not this relation.
        d = X.dim_c
        lhs = X.chi_minus_y_poly("q", b_version=True)
        flip = substitute(X.chi_minus_y_poly("q"), "y", {"y": -1})
        rhs = flip * Series.term("q", None, (-1) ** d, {"y": d})
        out.append(_compare("cross B-genus Serre duality", lhs, rhs, "q"))

    return out


def hodge_kind_order(kind, X, order):
    """Default truncation order per kind: the (x, y)-weighted kinds on
    surfaces drop to their spec's surface_order to keep expansion fast."""
    cap = KINDS[kind].surface_order
    return min(order, cap) if cap is not None and X.dim_c == 2 else order


def verify_all(X, order=8, fixed_order=None):
    """Run every applicable kind plus the cross checks, in a fixed order."""
    built = _series_of(X)
    results = []
    for kind in SERIES_KINDS:
        n = fixed_order if fixed_order is not None else hodge_kind_order(
            kind, X, order
        )
        results.append(verify(kind, X, n, built))
    hodge_n = fixed_order if fixed_order is not None else hodge_kind_order(
        "hodge_orb", X, order
    )
    base_n = fixed_order if fixed_order is not None else order
    results.extend(cross_checks(X, base_n, hodge_n, built))
    return results
