"""Exact truncated power series in the variables q, p, t, x, y.

Coefficients are exact rationals, the numbers Python's arithmetic produces:
an int, or a fractions.Fraction where a value is not an integer, so integer
series compute in plain int arithmetic.  Exponents live in (1/2)Z and are
stored *doubled*, so that all bookkeeping is plain integer arithmetic: the
monomial t^(3/2) q^2 is the key with doubled exponents t -> 3, q -> 4.

Every series designates one counting variable -- always q or p here -- in
which it is truncated: terms whose counting exponent exceeds the order are
dropped, and counting exponents must be nonnegative integers.  All other
variables are exact and may carry negative (Laurent) exponents, which is
sound because each fixed power of the counting variable has finitely many
companions.

Terms are validated once, where they enter: Series.from_terms (which term
and constant go through), a scalar factor of *, and substitute's coeff take
only int and Fraction coefficients (a bool enters as the int it equals), and
from_terms checks the counting exponents.  Series(var, order, terms) is the
internal constructor for terms already valid, such as the results of +, *
and substitute: it only drops zeros and truncates, and keeps the dict it
is handed when nothing is dropped.

A q-series holds no power of p, and a p-series none of q: from_terms
refuses such a term, and no other operation makes one.  The canonical term
order (counting exponent, then t, x, y) is then the order of the keys.

One routine, substitute, replaces a variable by a monomial, both in t, x
and y, so a series keeps its counting variable and order.

The hot product loops, in plethystic_exp and the brute sector sum, run on
the layout of symprod.layouts: one int per power of the counting variable,
with a slot per monomial (Kronecker substitution), so plethystic_exp takes
integer coefficients only, and refuses exponents spread too far for its
order.  Their results stay packed: Series.from_layout keeps the layout and
the nonzero slots and digits of each power, and builds the {key: coeff}
dict only when .terms is first read, dropping the slots then.  Two packed
series whose layouts map slots to keys alike compare by those lists, str()
renders each power from its key columns, and is_integral needs no pass;
every other operation reads .terms.

All values are immutable after construction and every operation is pure.
`order=None` marks an exact polynomial (nothing has been truncated away);
it combines with finite orders as "no constraint".
"""

from collections import Counter
from fractions import Fraction

from .layouts import Kronecker, SeriesUsageError, euler_transform

VARS = ("q", "p", "t", "x", "y")
COUNTING_VARS = ("q", "p")

_VI = {v: i for i, v in enumerate(VARS)}


class SeriesDomainError(ArithmeticError):
    """A value left the exact-rational domain, e.g. a negative base raised
    to a strict half-integer exponent."""


def _exact(c):
    """An entering coefficient as an int, or a Fraction when it is not an
    integer; a bool enters as the int it equals."""
    if isinstance(c, int):
        return int(c)
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise SeriesUsageError("coefficients must be exact rationals, got %r" % (c,))


def _counting_index(var):
    if var not in COUNTING_VARS:
        raise SeriesUsageError("counting variable must be q or p, got %r" % (var,))
    return _VI[var]


def _dexp(e):
    """Doubled exponent from an int or a Fraction with denominator 1 or 2."""
    if isinstance(e, int):
        return 2 * e
    if isinstance(e, Fraction):
        if e.denominator == 1:
            return 2 * e.numerator
        if e.denominator == 2:
            return e.numerator
    raise SeriesUsageError("exponents must lie in (1/2)Z, got %r" % (e,))


def monomial_key(exps):
    """Build the internal doubled-exponent key from {var: exponent}."""
    key = [0, 0, 0, 0, 0]
    for v, e in exps.items():
        if v not in _VI:
            raise SeriesUsageError("unknown variable %r" % (v,))
        key[_VI[v]] = _dexp(e)
    return tuple(key)


def _mul_key(k1, k2):
    return (k1[0] + k2[0], k1[1] + k2[1], k1[2] + k2[2], k1[3] + k2[3], k1[4] + k2[4])


def half_str(d):
    """Render a doubled exponent: integer when even, "a/2" when odd."""
    if d % 2 == 0:
        return str(d // 2)
    return "%d/2" % d


class Series:
    """A truncated sparse series; see the module docstring for the model."""

    __slots__ = ("var", "order", "_terms", "_packed")

    def __init__(self, var, order, terms=None):
        ti = _counting_index(var)
        if order is not None and (not isinstance(order, int) or order < 0):
            raise SeriesUsageError("order must be a nonnegative integer or None")
        cap = None if order is None else 2 * order
        terms = {} if terms is None else terms  # handed over, not copied
        if not all(c and (cap is None or key[ti] <= cap)
                   for key, c in terms.items()):
            terms = {key: c for key, c in terms.items()
                     if c and (cap is None or key[ti] <= cap)}
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "_terms", terms)
        object.__setattr__(self, "_packed", None)

    def __setattr__(self, name, value):
        raise AttributeError("Series values are immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_layout(cls, var, order, layout, ints):
        """sum_n ints[n] var^n, each int a polynomial of degree n in layout
        (a layouts.Kronecker) and none past order, held as layout.decode
        gives it until .terms is first read; the ints are dropped from the
        list as they are decoded."""
        s = cls(var, order)
        object.__setattr__(s, "_terms", None)
        object.__setattr__(s, "_packed", (layout, layout.decode(ints)))
        return s

    def _chunks(self):
        """(key columns, digits) of each power of a packed series, lowest
        first: within a power, slots ascend in key order."""
        layout, powers = self._packed
        ti = _VI[self.var]
        return ((layout.columns(slots, n, ti), digits)
                for n, slots, digits in powers)

    @property
    def terms(self):
        """{key: coeff}; a packed series builds it from each power's key
        columns at the first read, and drops its slots and digits then."""
        if self._terms is None:
            terms = {}
            for cols, digits in self._chunks():
                terms.update(zip(zip(*cols), digits))
            object.__setattr__(self, "_terms", terms)
            object.__setattr__(self, "_packed", None)
        return self._terms

    @classmethod
    def constant(cls, var, order=None, value=1):
        return cls.from_terms(var, order, [(value, {})])

    @classmethod
    def from_terms(cls, var, order, pairs):
        """The sum of coeff * prod(v^e) over (coeff, {v: e}) pairs, with
        exponents in (1/2)Z; duplicate monomials add and zeros drop.  Each
        coeff must be an int or a Fraction, and each counting exponent a
        nonnegative integer, with no power of the other counting variable."""
        ti = _counting_index(var)
        terms = {}
        for coeff, exps in pairs:
            key = monomial_key(exps)
            if key[ti] < 0 or key[ti] % 2:
                raise SeriesUsageError(
                    "counting-variable exponents must be nonnegative integers"
                )
            if key[1 - ti]:
                raise SeriesUsageError("a %s-series holds no power of %s"
                                       % (var, COUNTING_VARS[1 - ti]))
            terms[key] = terms.get(key, 0) + _exact(coeff)
        return cls(var, order, terms)

    @classmethod
    def term(cls, var, order, coeff, exps):
        """Single term coeff * prod(v^e) with exponents in (1/2)Z."""
        return cls.from_terms(var, order, [(coeff, exps)])

    # -- basic queries -----------------------------------------------------

    def is_integral(self):
        return self._packed is not None or \
            all(c.denominator == 1 for c in self.terms.values())

    # -- arithmetic --------------------------------------------------------

    def _check_same_var(self, other):
        if self.var != other.var:
            raise SeriesUsageError(
                "mismatched counting variables %r and %r" % (self.var, other.var)
            )

    @staticmethod
    def _min_order(a, b):
        if a is None:
            return b
        if b is None:
            return a
        return min(a, b)

    def __add__(self, other):
        if not isinstance(other, Series):
            other = Series.constant(self.var, None, other)
        self._check_same_var(other)
        order = self._min_order(self.order, other.order)
        terms = dict(self.terms)
        for key, c in other.terms.items():
            terms[key] = terms.get(key, 0) + c
        return Series(self.var, order, terms)

    __radd__ = __add__

    def __mul__(self, other):
        if not isinstance(other, Series):
            c = _exact(other)
            return Series(self.var, self.order, {k: c * v for k, v in self.terms.items()})
        self._check_same_var(other)
        order = self._min_order(self.order, other.order)
        cap = None if order is None else 2 * order
        ti = _VI[self.var]
        terms = {}
        for k1, c1 in self.terms.items():
            e1 = k1[ti]
            for k2, c2 in other.terms.items():
                if cap is not None and e1 + k2[ti] > cap:
                    continue
                key = _mul_key(k1, k2)
                terms[key] = terms.get(key, 0) + c1 * c2
        return Series(self.var, order, terms)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        if self.var != other.var or self.order != other.order:
            return False
        a, b = self._packed, other._packed
        if a and b and a[0].maps_like(b[0]):
            return a[1] == b[1]
        return self.terms == other.terms

    # -- rendering ---------------------------------------------------------

    def __str__(self):
        return _render(self._chunks() if self._packed else
                       _sorted_chunk(self.terms))

    def __repr__(self):
        return "Series(%r, order=%r: %s)" % (self.var, self.order, str(self))


class _FactorTexts(dict):
    """The text of one variable's factor in a term at each doubled exponent,
    "*" first and made on first use: "*x", "*x^2", "*x^(-1/2)", and "" at
    exponent 0."""

    __slots__ = ("var",)

    def __init__(self, var):
        self.var = var

    def __missing__(self, d):
        v = self.var
        if d == 0:
            text = ""
        elif d == 2:
            text = "*" + v
        elif d > 0 and d % 2 == 0:
            text = "*%s^%d" % (v, d // 2)
        else:
            text = "*%s^(%s)" % (v, half_str(d))
        self[d] = text
        return text


def _sorted_chunk(terms, limit=None):
    """The first limit terms in canonical order as the one chunk of
    _render: sorting the keys alone, as (key, c) pairs would add one more
    small object per term to the peak memory of printing a series."""
    keys = sorted(terms)
    if limit is not None:
        del keys[limit:]
    return [(zip(*keys), map(terms.__getitem__, keys))] if keys else []


def _render(chunks):
    """The terms of (key columns, coeffs) chunks, in that order, as text;
    "0" when there are none.  The columns of a chunk hold the exponents of
    q, p, t, x and y in that order.  Each factor text is made once per
    variable and doubled exponent, in a dict per variable that lives for
    this call only, and a term's monomial is one join of five of them, in
    C: only the sign and the coefficient take a Python step per term."""
    q, p, t, x, y = map(_FactorTexts, VARS)
    parts = []
    for (cq, cp, ct, cx, cy), coeffs in chunks:
        monos = map("".join, zip(
            map(t.__getitem__, ct), map(x.__getitem__, cx),
            map(y.__getitem__, cy), map(p.__getitem__, cp),
            map(q.__getitem__, cq)))
        for mono, c in zip(monos, coeffs):
            if c < 0:
                c, sign = -c, " - "
            else:
                sign = " + "
            parts.append(sign + (coeff_str(c) + mono if c != 1 else
                                 mono[1:] or "1"))
    if not parts:
        return "0"
    first = parts[0]  # no sign before a positive first term, "-" before
    parts[0] = first[3:] if first[1] == "+" else "-" + first[3:]
    return "".join(parts)


def coeff_str(c):
    """str(c) for an int or Fraction coefficient of any size.  str() refuses
    an int past sys.get_int_max_str_digits() digits (4,300 by default), a
    guard for parsing untrusted text that printing an exact result does not
    need; such an int is written out half by half."""
    try:
        return str(c)
    except ValueError:
        pass
    if isinstance(c, Fraction):
        num = coeff_str(c.numerator)
        return num if c.denominator == 1 else \
            num + "/" + coeff_str(c.denominator)
    if c < 0:
        return "-" + coeff_str(-c)
    half = c.bit_length() * 3 // 20  # about half its decimal digits
    hi, lo = divmod(c, 10 ** half)
    return coeff_str(hi) + coeff_str(lo).zfill(half)


# -- expansion primitives ----------------------------------------------------


def plethystic_exp(f, super_signs=False):
    """The plethystic exponential PE[f] = exp(sum_{k>=1} psi_k(f) / k).

    psi_k raises every variable to its k-th power, so each term c*M of f
    contributes the factor (1 - M)^(-c).  Every term of f must carry a
    positive power of the counting variable.  Writing f = sum_d f_d q^d and
    PE[f] = sum_n F_n q^n, the coefficients follow the Euler-transform
    recurrence n*F_n = sum_{k<=n} D_k*F_(n-k), D_k = sum_{d|k} d*psi_(k/d)(f_d),
    on Laurent polynomials in t, x, y.  Each F_n is one int of a
    layouts.Kronecker layout with the terms of f as units, and each D_k a
    {slot: coeff} map, psi_j of a term at j times its slot: the recurrence
    is int arithmetic, n*F_n divides by n as one int, and the result holds
    the F_n packed (Series.from_layout).  f must have integer coefficients,
    so the division by n is exact, and exponents whose layout fits
    layouts.MAX_LAYOUT_BITS (SeriesUsageError otherwise).

    super_signs=True gives the super plethystic exponential
    twist(PE[twist(f)]), where twist signs each term by (-1)^(total t, x,
    y degree), in the same recurrence: a term c*M of odd total
    t, x, y degree contributes (1 + M)^c, so its even powers psi_j, j even,
    enter D with the sign flipped.  A half-integer total degree has no
    parity and raises SeriesDomainError.
    """
    if super_signs and any((key[2] + key[3] + key[4]) % 2 for key in f.terms):
        raise SeriesDomainError("a half-integer total degree has no parity")
    if f.order is None:
        raise SeriesUsageError("plethystic_exp needs a finite truncation order")
    order, ti = f.order, _VI[f.var]
    if any(key[ti] == 0 for key in f.terms):
        raise SeriesUsageError("plethystic_exp needs every term to carry "
                               "the counting variable")
    if not f.is_integral():
        raise SeriesUsageError("plethystic_exp needs integer coefficients")
    # (degree, key without the counting variable, coeff) per term of f
    terms = [(key[ti] // 2, key[:ti] + (0,) + key[ti + 1:], c.numerator)
             for key, c in f.terms.items()]
    a = [0] * (order + 1)
    for d, _, c in terms:
        a[d] += abs(c)
    # no digit of n F_n outgrows n [q^n] PE[|f| at 1]
    bound = max(n * g for n, g in enumerate(euler_transform(a, order)))
    lay = Kronecker([(d, key) for d, key, _ in terms], order, bound)
    D = [{} for _ in range(order + 1)]  # {slot: coeff} of each D_k
    for d, key, c in terms:
        # an odd term's even powers take the opposite sign under super_signs
        odd = super_signs and (key[2] + key[3] + key[4]) % 4
        s, dc = lay.slot(key, d), d * c
        for j, Dk in enumerate(D[d::d], 1):  # psi_j at j times the slot
            Dk[j * s] = Dk.get(j * s, 0) + (-dc if odd and j % 2 == 0 else dc)
    D = [lay.slot_factor(Dk) for Dk in D]
    F = [1]  # the packed 1
    for n in range(1, order + 1):
        acc = 0
        for k in range(1, n + 1):
            acc = lay.mul_add(acc, F[n - k], D[k])
        F.append(acc // n)
    return Series.from_layout(f.var, order, lay, F)


def substitute(s, v, exps, coeff=1):
    """Replace the variable v by the monomial coeff * prod(w^e), exponent-linearly.

    v and the w are among t, x and y: a counting variable is neither
    replaced nor brought in (SeriesUsageError), so the result keeps the
    counting variable and the order of s.  coeff may be zero, which kills
    the positive powers of v; a negative power of zero, or coeff at a
    strict half-integer exponent other than 1 and 0, raises
    SeriesDomainError.
    """
    coeff = _exact(coeff)
    if v not in _VI:
        raise SeriesUsageError("unknown variable %r" % (v,))
    rkey = monomial_key(exps)
    if v in COUNTING_VARS or any(rkey[_VI[u]] for u in COUNTING_VARS):
        raise SeriesUsageError(
            "substitute neither replaces nor introduces a counting variable")
    vi = _VI[v]
    terms = {}
    for key, c in s.terms.items():
        d = key[vi]
        if d:
            c = c * _rational_power(coeff, d)
            if not c:
                continue
            nk = list(key)
            nk[vi] = 0
            for u, ru in enumerate(rkey):
                if ru == 0:
                    continue
                prod = d * ru
                if prod % 2:
                    raise SeriesDomainError(
                        "substitution exponent %s * %s leaves (1/2)Z"
                        % (half_str(d), half_str(ru))
                    )
                nk[u] += prod // 2
            key = tuple(nk)
        terms[key] = terms.get(key, 0) + c
    return Series(s.var, s.order, terms)


def _rational_power(base, d):
    """base^(d/2) exactly; d is a nonzero doubled exponent."""
    if base == 0:
        if d < 0:
            raise SeriesDomainError("zero raised to a negative power")
        return base
    if d % 2 == 0:
        if d > 0:
            return base ** (d // 2)
        # an int base would turn into a float under a negative power
        return _exact(Fraction(base) ** (d // 2))
    if base == 1:
        return base
    raise SeriesDomainError(
        "cannot evaluate %s at the half-integer exponent %s" % (base, half_str(d))
    )


def first_mismatch(a, b):
    """First differing coefficient of two series over the same counting
    variable, in canonical term order; None when they agree termwise."""
    a._check_same_var(b)
    ta, tb = a.terms, b.terms
    for key in sorted(ta.keys() | tb.keys()):
        ca = ta.get(key, 0)
        cb = tb.get(key, 0)
        if ca != cb:
            return key, ca, cb
    return None


def mismatch_counts(a, b):
    """The number of differing coefficients of a and b at each power of the
    counting variable, as text: "q^0: 2, q^3: 1"."""
    ti = _VI[a.var]
    ta, tb = a.terms, b.terms
    counts = Counter(k[ti] // 2 for k in ta.keys() | tb.keys()
                     if ta.get(k) != tb.get(k))
    return ", ".join("%s^%d: %d" % (a.var, n, count)
                     for n, count in sorted(counts.items()))


def render_head(s, limit):
    """str(s) cut after its first limit terms in canonical order, followed
    by the number of terms left out."""
    head = _render(_sorted_chunk(s.terms, limit))
    more = len(s.terms) - limit
    return "%s … (%d more terms)" % (head, more) if more > 0 else head


def render_key(key):
    """Canonical text for a bare monomial (used in mismatch reports)."""
    return _render(_sorted_chunk({key: 1}))
