"""Sector-by-sector invariants of symmetric products, and the closed
product/exponential formulas they are provably equal to.

For a manifold X, a manifold.ManifoldData checked where it was built, the
n-th symmetric product sector decomposition runs over cycle types of S_n: a
permutation with N_l l-cycles fixes a product of copies of X, one per
cycle, and its centralizer quotient is the product of the Sym^(N_l)(X).
Twisted sectors are regraded by half the codimension of the fixed locus.
Both the brute-force assembly and the closed generating functions are
computed here in exact arithmetic, so any claimed identity can be checked
coefficient by coefficient.

The brute side of every kind is one sector sum, _sym_sum over
_sector_sum.  Each kind names a level(l, count): block(l, N) for
N = 0..count, the invariants of Sym^N(H*X) regraded for N l-cycles, from
one layouts.symmetric_powers DP over the class images of the kind (x^p y^q
or t^p, with the regraded parity, for hodge and poincare; (-1)^(p+q),
(-1)^q, (-1)^(p+q) y^p, its y = 0 value (-1)^q [p = 0] and
(-1)^(p+q) y^(p-k), multiplicative over a basis of Sym^N, for euler, sign,
chiy, arith and dmvv, with the sector weight y^k of a moved cycle at
y = -1 for sign and y = 0 for arith).  The sum over cycle types of
prod_l block(l, N_l) is the truncated product over cycle lengths l of
sum_N block(l, N) q^(lN), summed in p for dmvv, where q -> p y^(-k)
leaves one y^(-k) per cycle and no sector weight.  The DP runs on the
values of one layout, layouts.sector_layout: a cycle of length l carries
one class of X and l - 1 regradings, so the layout sees those units and
the largest coefficient the sector count allows.  Each block and each c_n
is one int of that layouts.Kronecker layout, and c_n += c_(n - lN) *
block(l, N) is int arithmetic.

Every closed form is a plethystic exponential PE[f] of a single-particle
series f (Macdonald for Sym^n(X), the DMVV product for the sector sums);
kinds marked + take super signs, twist(PE[twist(f)]), expanded in one
recurrence by plethystic_exp(f, super_signs=True).  P, E, C: Poincare,
Hodge, chi_(-y) polynomials of X; e, s, a: its Euler number, signature,
arithmetic genus; k = dim_C/2, m = dim_R/2; L(g; w) = sum_{l<=c} g w^(l-1)
q^l, one copy per cycle length l up to the cycle bound c, regraded by w per
moved cycle.

Each family's _orb kind takes every cycle length (no bound c); its _sym
kind is the same spec cut to cycles of length 1 (c = 1): the identity-class
summand H*(X^n)^(S_n) = H*(Sym^n X), whose f is the l = 1 term.

===================  =========================================================
euler_orb/_sym       L(e; 1): Euler numbers, one sector per class
poincare_orb/_sym +  L(P; t^m): Poincare polynomials with sector shifts
hodge_orb/_sym +     L(E; x^k y^k): Hodge polynomials with sector shifts
chiy_orb/_sym        L(C; y^k): chi_(-y) genera, sector weights y^F
arith_orb/_sym       a q: arithmetic genera, the y -> 0 corner, where the
                     twisted sectors vanish (_orb needs dim_C >= 1)
sign_orb/_sym        sum_{m<=c} s_m q^m + (e - s_m)/2 q^(2m): signatures, the
                     y -> -1 corner; s_m = -s for even m and odd k, else s
                     (_orb needs even dim_C)
*_B                  the same on the polyvector-field (B-algebra) table
gottsche_poincare +  L(P; t^2): Betti series of Hilbert schemes of points
gottsche_hodge +     L(E; x y): Hodge series of Hilbert schemes of points
dmvv_q0/dmvv_q0_B    L(y^(-k) C; 1) in the variable p: normalized chi_(-y)
===================  =========================================================

verify_all also checks identities between kinds, one row of CROSS_CHECKS
each: a lhs kind under substitutions equals a rhs kind (chiy_orb(y=1) =
euler_orb).  Within one run it builds each distinct series once: a build
is keyed by what it reads, so kinds that share a builder and a table's
contents share their series.
"""

from collections import Counter, namedtuple
from fractions import Fraction

from .layouts import sector_layout, symmetric_powers
from .manifold import InputError
from .series import (
    Series,
    coeff_str,
    first_mismatch,
    mismatch_counts,
    plethystic_exp,
    render_head,
    render_key,
    substitute,
)


# -- genera -------------------------------------------------------------------


def chi_minus_y(table, var="q"):
    """chi_(-y) of a bigraded space: sum (-1)^(p+q) h^{p,q} y^p.

    Well defined for any admissible bigrading (p + q is an integer even when
    p and q are halves), and multiplicative under tensor product.
    """
    terms = Counter()
    for (dp, dq), h in table.dims.items():  # y is the last of series.VARS
        terms[0, 0, 0, 0, dp] += -h if ((dp + dq) // 2) % 2 else h
    return Series(var, None, terms)


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


_ONE = (0, 0, 0, 0, 0)  # the key of the monomial 1


def _sector_sum(order, cycles, level, layout, var="q"):
    """sum_n c_n var^n, c_n the q^n coefficient of prod_{l <= cycles}
    sum_N block(l, N) q^(lN); level(l, count) lists the N <= count blocks
    of layout (a layouts.Kronecker), which no c_n outgrows: ints at l = 1,
    the right factors of layout.mul_add above.

    c starts as a copy of the list level(1, order), the untwisted sectors
    (a level may share its list), and takes in one further cycle length per
    pass, from the top down, so each c[n - lN] it reads still holds the
    product over the shorter lengths while c[n] accumulates.  Each level
    is computed once."""
    c = list(level(1, order))
    mul_add = layout.mul_add
    for l in range(2, cycles + 1):
        blocks = level(l, order // l)
        for n in range(order, l - 1, -1):
            for N in range(1, n // l + 1):
                c[n] = mul_add(c[n], c[n - l * N], blocks[N])
    return Series.from_layout(var, order, layout, c)


def _sym_sum(T, order, cycles, image, shift=_ONE, flip=1, sign=1, var="q"):
    """_sector_sum in var of block(l, N), the image of Sym^N T regraded for
    N l-cycles, one layouts.symmetric_powers DP per l over the blocks
    T.blocks(image) (a class at (p, q) of super sign s has image a s key,
    for (key, a) = image(p, q, s)).  A moved cycle moves each key by shift
    and multiplies a by sign; flip = -1 where it regrades by an odd degree,
    which turns each parity, so e and a."""
    blocks = T.blocks(image)
    layout = sector_layout(order, cycles, {key for key, _, _ in blocks},
                           shift, sum(T.dims.values()))
    return _sector_sum(order, cycles, lambda l, top: symmetric_powers(
        layout, [(tuple(k + (l - 1) * v for k, v in zip(key, shift)),
                  e * flip ** (l - 1), a * (flip * sign) ** (l - 1))
                 for key, e, a in blocks], l, top), layout, var)


def _levels(poly, order, shift, cycles):
    """sum_{l <= cycles} poly * prod_v v^((l-1) shift[v]) * (counting var)^l:
    one copy of the single-particle polynomial per cycle length l, regraded
    by the shift of each of its l - 1 moved cycles."""
    return poly * Series.from_terms(poly.var, order, (
        (1, {poly.var: l, **{v: (l - 1) * e for v, e in shift.items()}})
        for l in range(1, cycles + 1)))


def _sign_f(X, T, order, cycles):
    """sum_{m <= cycles} eps_m sgn q^m + (chi - eps_m sgn)/2 q^(2m), the
    logarithm of prod_m (1-q^(2m))^(-chi/2) ((1+q^m)/(1-q^m))^(eps_m sgn/2);
    eps_m = -1 on even m when k = dim_C/2 is odd, else 1."""
    chi, sgn, k = X.euler(), genus(X.hodge, "signature"), X.dim_c // 2
    pairs = []
    for m in range(1, cycles + 1):
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

# One spec per kind.  needs: requirements; twisted: the closed form is the
# super PE twist(PE[twist(f)]), signed by total degree and expanded by
# plethystic_exp(f, super_signs=True); surface_order: default-order cap on
# surfaces for the (x, y)-weighted kinds, whose expansion dominates cost;
# table: the ManifoldData attribute handed to both builders as T; cycles:
# the longest cycle a sector may have, 1 for Sym^n(X) and None (any) for
# (X^n, S_n).  brute(X, T, order, cycles) sums sectors; single(X, T, order,
# cycles) is the single-particle series f of the closed form.  Both return
# series in one counting variable, p for dmvv_q0* and q for the rest.  A
# build reads nothing else of its spec, so within one run kinds that share
# a builder, twisted, cycles and their table's contents share a build
# (_build_key).
KindSpec = namedtuple(
    "KindSpec", "needs twisted surface_order table brute single cycles",
    defaults=(None,))


def _family(name, spec, **overrides):
    """The Sym^n(X) kind and the (X^n, S_n) kind of one spec: Sym^n(X) is
    the untwisted sector of (X^n, S_n), the spec cut to 1-cycles."""
    return {name + "_sym": spec._replace(cycles=1, **overrides),
            name + "_orb": spec}


KINDS = {
    **_family("euler", KindSpec(
        (), False, None, "hodge",
        lambda X, T, order, cycles: _sym_sum(
            X.betti, order, cycles, lambda p, q, s: (_ONE, 1)),
        lambda X, T, order, cycles: _levels(
            Series.constant("q", None, X.euler()), order, {}, cycles))),
    **_family("poincare", KindSpec(
        (), True, None, "hodge",
        lambda X, T, order, cycles: _sym_sum(
            X.betti, order, cycles, lambda p, q, s: ((0, 0, p, 0, 0), s),
            (0, 0, 2 * X.m, 0, 0), (-1) ** X.m),
        lambda X, T, order, cycles: _levels(
            X.betti.poly("t"), order, {"t": X.m}, cycles))),
    **_family("hodge", KindSpec(
        (_HAS_HODGE,), True, 6, "hodge",
        lambda X, T, order, cycles: _sym_sum(
            T, order, cycles, lambda p, q, s: ((0, 0, 0, p, q), s),
            (0, 0, 0, X.dim_c, X.dim_c), (-1) ** X.dim_c),
        lambda X, T, order, cycles: _levels(T.poly("x"), order, {
            "x": Fraction(X.dim_c, 2), "y": Fraction(X.dim_c, 2)}, cycles))),
    **_family("chiy", KindSpec(
        (_HAS_HODGE,), False, None, "hodge",
        lambda X, T, order, cycles: _sym_sum(
            T, order, cycles, lambda p, q, s: ((0, 0, 0, 0, p), 1),
            (0, 0, 0, 0, X.dim_c)),
        lambda X, T, order, cycles: _levels(
            chi_minus_y(T), order, {"y": Fraction(X.dim_c, 2)}, cycles))),
    # At y = 0 a class's image y^p is [p = 0] and a moved cycle's weight
    # y^k is 0^(dim_C): a twisted sector vanishes, so f is a q.
    **_family("arith", KindSpec(
        (_HAS_HODGE, _POSITIVE_DIM_C), False, None, "hodge",
        lambda X, T, order, cycles: _sym_sum(
            T, order, cycles, lambda p, q, s: (_ONE, int(p == 0)),
            sign=0 ** X.dim_c),
        lambda X, T, order, cycles: Series.term(
            "q", order, genus(X.hodge, "arithmetic"), {"q": 1})),
        needs=(_HAS_HODGE,)),
    **_family("sign", KindSpec(
        (_HAS_HODGE, _EVEN_DIM_C), False, None, "hodge",
        lambda X, T, order, cycles: _sym_sum(
            T, order, cycles, lambda p, q, s: (_ONE, -1 if p % 4 else 1),
            sign=(-1) ** (X.dim_c // 2)),
        _sign_f),
        needs=(_HAS_HODGE,)),
}
# Added after the literal so that SERIES_KINDS keeps its published order.
_B_NEEDS = (_HAS_HODGE, _HAS_B_TABLE)
for _kind in ("hodge_sym", "chiy_sym", "hodge_orb", "chiy_orb"):
    KINDS[_kind + "_B"] = KINDS[_kind]._replace(needs=_B_NEEDS, table="hodge_b")
_SURFACE_NEEDS = (_HAS_HODGE, _IS_SURFACE)
KINDS["gottsche_poincare"] = KINDS["poincare_orb"]._replace(
    needs=_SURFACE_NEEDS, single=lambda X, T, order, cycles: _levels(
        X.betti.poly("t"), order, {"t": 2}, cycles))
KINDS["gottsche_hodge"] = KINDS["hodge_orb"]._replace(
    needs=_SURFACE_NEEDS, single=lambda X, T, order, cycles: _levels(
        T.poly("x"), order, {"x": 1, "y": 1}, cycles))
# q -> p y^(-k) turns an l-cycle's weight y^(k(l-1)) into the y^(-k) that
# its class image carries, so no moved cycle shifts a key.
KINDS["dmvv_q0"] = KindSpec(
    (_HAS_HODGE,), False, 6, "hodge",
    lambda X, T, order, cycles: _sym_sum(
        T, order, cycles, lambda p, q, s: ((0, 0, 0, 0, p - X.dim_c), 1),
        var="p"),
    lambda X, T, order, cycles: _levels(chi_minus_y(T, "p") * Series.term(
        "p", None, 1, {"y": Fraction(-X.dim_c, 2)}), order, {}, cycles))
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
        raise InputError("kind %s not applicable to %s: %s"
                         % (kind, X.name, reason))


def brute_series(kind, X, order):
    """Assemble the series named by kind from explicit sector data."""
    _require(kind, X)
    spec = KINDS[kind]
    return spec.brute(X, getattr(X, spec.table), order, spec.cycles or order)


def closed_series(kind, X, order):
    """Expand the closed form of kind: the plethystic exponential of its
    single-particle series, super-signed for the twisted kinds."""
    _require(kind, X)
    spec = KINDS[kind]
    f = spec.single(X, getattr(X, spec.table), order, spec.cycles or order)
    return plethystic_exp(f, super_signs=spec.twisted)


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


# A failure report prints at most this many terms of each side.
DUMP_TERMS = 20


def _compare(name, a, b):
    """Pass, or fail with the first mismatch, the number of differing
    coefficients per power of the counting variable, and both sides cut to
    DUMP_TERMS terms."""
    if a == b:
        return CheckResult(name, "pass")
    mism = first_mismatch(a, b)
    lines = []
    if mism is not None:
        key, ca, cb = mism
        lines.append(
            "first mismatch at %s: %s vs %s"
            % (render_key(key), coeff_str(ca), coeff_str(cb))
        )
        lines.append("differing coefficients per power of %s: %s"
                     % (a.var, mismatch_counts(a, b)))
    lines.append("lhs: %s" % render_head(a, DUMP_TERMS))
    lines.append("rhs: %s" % render_head(b, DUMP_TERMS))
    return CheckResult(name, "fail", lines)


def _build_key(X, build, kind, order):
    """What build(kind, X, order) reads besides X, for build in
    {brute_series, closed_series}: the route, its builder in the spec, the
    spec's twisted and cycles, the order and the contents of its table."""
    spec = KINDS[kind]
    T = getattr(X, spec.table)
    return (build, spec.brute if build is brute_series else spec.single,
            spec.twisted, spec.cycles, order,
            None if T is None else frozenset(T.dims.items()))


def _series_of(X):
    """(build, kind, order) -> build(kind, X, order) for build in
    {brute_series, closed_series}, each distinct series built once per run.

    The memo is keyed by _build_key, what a build reads, and not by the
    kind: gottsche_hodge reuses the brute hodge_orb, and where the B-table
    equals the Hodge table, as on a Calabi-Yau surface, hodge_orb_B reuses
    hodge_orb.  The route is part of the key, so a brute request never gets
    a closed series.  An inapplicable kind raises InputError even where its
    key matches a series already built."""
    memo = {}

    def built(build, kind, order):
        _require(kind, X)
        key = _build_key(X, build, kind, order)
        series = memo.get(key)
        if series is None:
            series = memo[key] = build(kind, X, order)
        return series
    return built


def verify(kind, X, order, built=None):
    """Compute brute and closed series for the kind and compare exactly."""
    reason = applicability(kind, X)
    if reason is not None:
        return CheckResult("%s order %d" % (kind, order), "skip", [reason])
    built = built or _series_of(X)
    b = built(brute_series, kind, order)
    c = built(closed_series, kind, order)
    return _compare("%s order %d" % (kind, order), b, c)


# Identities between kinds, one (name, route, lhs, subs, rhs, extra) row
# each: route builds both sides, the substitutions (v, monomial, coeff) act
# on the lhs, and extra, unless None, is a further requirement on X.  A row
# runs when both kinds apply, at the order verify uses for its lhs kind.
CROSS_CHECKS = (
    ("cross hodge_orb(x=y=t) = poincare_orb", brute_series, "hodge_orb",
     (("x", {"t": 1}, 1), ("y", {"t": 1}, 1)), "poincare_orb", None),
    ("cross chiy_orb(y=1) = euler_orb", brute_series, "chiy_orb",
     (("y", {}, 1),), "euler_orb", None),
    ("cross chiy_sym(y=1) = euler_sym", brute_series, "chiy_sym",
     (("y", {}, 1),), "euler_sym", None),
    ("cross chiy_sym(y=-1) = sign_sym", brute_series, "chiy_sym",
     (("y", {}, -1),), "sign_sym", None),
    ("cross chiy_orb(y=-1) = sign_orb", brute_series, "chiy_orb",
     (("y", {}, -1),), "sign_orb", None),
    ("cross poincare_orb(t=-1) = euler_orb", brute_series, "poincare_orb",
     (("t", {}, -1),), "euler_orb", lambda X: X.m % 2 == 0),
    ("cross gottsche_poincare = poincare_orb", closed_series,
     "gottsche_poincare", (), "poincare_orb", None),
    ("cross gottsche_hodge = hodge_orb", closed_series, "gottsche_hodge",
     (), "hodge_orb", None),
)


def default_order(kind, X):
    """Truncation order of a kind when none is given: 8, or the kind's
    surface_order on surfaces, where (x, y)-weighted expansion dominates."""
    cap = KINDS[kind].surface_order
    return cap if cap is not None and X.dim_c == 2 else 8


def _order(kind, X, order):
    return default_order(kind, X) if order is None else order


def cross_checks(X, order=None, built=None):
    """The CROSS_CHECKS rows that apply to X, then Serre duality of the
    B-genus on Calabi-Yau input.  order None: each row's default_order."""
    built = built or _series_of(X)
    out = []
    for name, route, lhs_kind, subs, rhs_kind, extra in CROSS_CHECKS:
        if applicability(lhs_kind, X) or applicability(rhs_kind, X) \
                or (extra and not extra(X)):
            continue
        n = _order(lhs_kind, X, order)
        lhs = built(route, lhs_kind, n)
        for v, exps, coeff in subs:
            lhs = substitute(lhs, v, exps, coeff)
        out.append(_compare(name, lhs, built(route, rhs_kind, n)))

    if X.calabi_yau and X.hodge_b is not None:
        # Serre duality for the polyvector genus of a Calabi-Yau d-fold:
        # chi^B_(-y) = (-1)^d y^d chi_(-1/y).  Only claimed for Calabi-Yau
        # input; an explicitly supplied B-table on other manifolds obeys
        # the series identities but not this relation.
        d = X.dim_c
        lhs = chi_minus_y(X.hodge_b, "q")
        flip = substitute(chi_minus_y(X.hodge, "q"), "y", {"y": -1})
        rhs = flip * Series.term("q", None, (-1) ** d, {"y": d})
        out.append(_compare("cross B-genus Serre duality", lhs, rhs))

    return out


def verify_all(X, order=None):
    """Run every applicable kind plus the cross checks, in a fixed order;
    order None runs each kind at its default_order."""
    built = _series_of(X)
    results = [verify(kind, X, _order(kind, X, order), built)
               for kind in SERIES_KINDS]
    return results + cross_checks(X, order, built)
