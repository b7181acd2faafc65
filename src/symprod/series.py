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
internal constructor for terms already valid, such as the results of +, *,
plethystic_exp, twist and substitute: it only drops zeros and truncates.

A q-series holds no power of p, and a p-series none of q: from_terms
refuses such a term, and no other operation makes one.  The canonical term
order (counting exponent, then t, x, y) is then the order of the keys.

One routine, substitute, replaces a variable by a monomial; specialize is
substitute by constants, one variable after another.

The hot product loops, in plethystic_exp and the brute sector sum, run
on a Codec: it packs each key into one int, so monomials multiply by adding
ints, and mul_add accumulates acc += a * b over sparse {code: coeff} maps.
Every Series still holds 5-tuple keys.

All values are immutable after construction and every operation is pure.
`order=None` marks an exact polynomial (nothing has been truncated away);
it combines with finite orders as "no constraint".
"""

from collections import Counter
from fractions import Fraction

VARS = ("q", "p", "t", "x", "y")
COUNTING_VARS = ("q", "p")

_VI = {v: i for i, v in enumerate(VARS)}
# the factors of a rendered term in order, the counting variable last
_FACTORS = tuple((v, _VI[v]) for v in ("t", "x", "y", "p", "q"))


class SeriesUsageError(ValueError):
    """An operation was called outside its contract (mismatched counting
    variable, constant monomial where expansion would not terminate, ...)."""


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

    __slots__ = ("var", "order", "terms")

    def __init__(self, var, order, terms=None):
        ti = _counting_index(var)
        if order is not None and (not isinstance(order, int) or order < 0):
            raise SeriesUsageError("order must be a nonnegative integer or None")
        cap = None if order is None else 2 * order
        clean = {key: c for key, c in (terms or {}).items()
                 if c and (cap is None or key[ti] <= cap)}
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Series values are immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, var, order=None):
        return cls(var, order, {})

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
        return all(c.denominator == 1 for c in self.terms.values())

    def counting_coefficient(self, n):
        """The coefficient of (counting var)^n, as {key-without-counting: c}."""
        ti = _VI[self.var]
        out = {}
        for key, c in self.terms.items():
            if key[ti] == 2 * n:
                k = list(key)
                k[ti] = 0
                out[tuple(k)] = c
        return out

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
        return (
            self.var == other.var
            and self.order == other.order
            and self.terms == other.terms
        )

    # -- rendering ---------------------------------------------------------

    def __str__(self):
        # sort the keys alone: a list of (key, c) pairs would add one more
        # small object per term to the peak memory of printing a series
        return _render(self.terms, sorted(self.terms))

    def __repr__(self):
        return "Series(%r, order=%r: %s)" % (self.var, self.order, str(self))


def _render(terms, keys):
    """The terms at keys, in that order, as text; "0" when there are none."""
    parts = []
    for key in keys:
        c = terms[key]
        body = _render_term(key, c)
        if not parts:
            parts.append("-" + body if c < 0 else body)
        else:
            parts.append((" - " if c < 0 else " + ") + body)
    return "".join(parts) or "0"


def _render_term(key, c):
    factors = []
    for v, i in _FACTORS:
        d = key[i]
        if d == 0:
            continue
        if d == 2:
            factors.append(v)
        elif d % 2 == 0 and d > 0:
            factors.append("%s^%d" % (v, d // 2))
        else:
            factors.append("%s^(%s)" % (v, half_str(d)))
    a = abs(c)
    if not factors:
        return str(a)
    mono = "*".join(factors)
    if a == 1:
        return mono
    return "%s*%s" % (a, mono)


# -- packed monomials --------------------------------------------------------


class Codec:
    """Keys packed into ints: the five doubled exponents are the balanced
    (signed) digits of one int in base 2^width, y the least significant, so
    Laurent and half-integer exponents stay exact and the code of a product
    of monomials is the sum of their codes.  Exact while no exponent of a
    code the caller forms exceeds bound in absolute value; width adds a sign
    bit and a carry bit."""

    def __init__(self, bound):
        w = self.width = bound.bit_length() + 2
        self.mask, self.half = (1 << w) - 1, 1 << w - 1
        self.shifts = range(4 * w, -1, -w)
        # half the base in every digit makes the digits of a code nonnegative
        self.bias = self.pack([self.half] * 5)

    def pack(self, key):
        code = 0
        for e in key:
            code = (code << self.width) + e
        return code

    def unpack(self, code):
        v, mask, half, key = code + self.bias, self.mask, self.half, []
        for s in self.shifts:
            key.append((v >> s & mask) - half)
        return tuple(key)

    def packed(self, s):
        """The {code: coeff} map of the Series s."""
        return {self.pack(key): c for key, c in s.terms.items()}

    def series(self, var, order, coeffs):
        """The Series sum_n coeffs[n] var^n of {code: coeff} maps that hold
        no power of var, each term unpacked once."""
        step = self.pack(monomial_key({var: 1}))
        return Series(var, order, {self.unpack(code + n * step): c
                                   for n, cn in enumerate(coeffs)
                                   for code, c in cn.items()})


def mul_add(acc, a, b):
    """acc += a * b on {code: coeff} maps of one Codec, in place; returns
    acc.  Cancelled terms stay as zeros for the caller to drop."""
    get = acc.get
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            k = k1 + k2
            acc[k] = get(k, 0) + c1 * c2
    return acc


# -- expansion primitives ----------------------------------------------------


def plethystic_exp(f):
    """The plethystic exponential PE[f] = exp(sum_{k>=1} psi_k(f) / k).

    psi_k raises every variable to its k-th power, so each term c*M of f
    contributes the factor (1 - M)^(-c).  Every term of f must carry a
    positive power of the counting variable.  Writing f = sum_d f_d q^d and
    PE[f] = sum_n F_n q^n, the coefficients follow the Euler-transform
    recurrence n*F_n = sum_{k<=n} D_k*F_(n-k), D_k = sum_{d|k} d*psi_(k/d)(f_d),
    on Laurent polynomials in t, x, y, held as {code: coeff} maps of one
    Codec and unpacked once per term of the result.  When f is integral
    the division by n is exact and stays in int; otherwise it is
    Fraction(c, n), never the float c / n.
    """
    if f.order is None:
        raise SeriesUsageError("plethystic_exp needs a finite truncation order")
    order, ti = f.order, _VI[f.var]
    integral = f.is_integral()
    # a monomial of D_k is at most k times one of f, a monomial of F_n a
    # product of D_k with the k summing to n, and the result adds 2n at ti
    codec = Codec(order * max([2] + [abs(e) for key in f.terms for e in key]))
    D = [Counter() for _ in range(order + 1)]
    for key, c in f.terms.items():
        d = key[ti] // 2
        if d == 0:
            raise SeriesUsageError("plethystic_exp needs every term to carry "
                                   "the counting variable")
        base = codec.pack(key[:ti] + (0,) + key[ti + 1:])
        for j in range(1, order // d + 1):
            D[d * j][j * base] += d * c
    F = [{0: 1}]
    for n in range(1, order + 1):
        acc = {}
        for k in range(1, n + 1):
            mul_add(acc, D[k], F[n - k])
        F.append({code: c // n if integral else Fraction(c, n)
                  for code, c in acc.items() if c})
    return codec.series(f.var, order, F)


def twist(s):
    """Multiply every term by (-1)^(total t, x, y degree); an involution.

    twist(plethystic_exp(twist(f))) is the super plethystic exponential: a
    term c*M of f with odd total degree contributes (1 + M)^c in place of
    (1 - M)^(-c), as an odd class does in a super symmetric power.
    """
    terms = {}
    for key, c in s.terms.items():
        d = key[2] + key[3] + key[4]  # doubled total t, x, y degree
        if d % 2:
            raise SeriesDomainError("a half-integer total degree has no parity")
        terms[key] = -c if d % 4 else c
    return Series(s.var, s.order, terms)


def substitute(s, v, exps, coeff=1):
    """Replace the variable v by the monomial coeff * prod(w^e), exponent-linearly.

    Substituting for the counting variable re-targets the truncation: the
    replacement must involve exactly one counting variable, with positive
    integer exponent (e.g. q -> y^(-1/2) p moves a q-series to a p-series).
    Substituting for any other variable must not touch the counting ones.
    coeff may be zero, which kills the positive powers of v; a negative
    power of zero, or coeff at a strict half-integer exponent other than 1
    and 0, raises SeriesDomainError.
    """
    coeff = _exact(coeff)
    if v not in _VI:
        raise SeriesUsageError("unknown variable %r" % (v,))
    rkey = monomial_key(exps)
    vi = _VI[v]

    if v == s.var:
        counting = [
            (u, rkey[_VI[u]]) for u in COUNTING_VARS if rkey[_VI[u]] != 0
        ]
        if len(counting) != 1:
            raise SeriesUsageError(
                "replacing the counting variable needs exactly one counting "
                "variable in the image"
            )
        new_var, du = counting[0]
        if du <= 0 or du % 2:
            raise SeriesUsageError(
                "new counting exponent must be a positive integer"
            )
        new_order = None if s.order is None else s.order * (du // 2)
    else:
        for u in COUNTING_VARS:
            if rkey[_VI[u]] != 0:
                raise SeriesUsageError(
                    "replacement for a plain variable may not involve the "
                    "counting variables"
                )
        new_var, new_order = s.var, s.order

    terms = {}
    for key, c in s.terms.items():
        d = key[vi]
        if d:
            c = c * _rational_power(coeff, d)
            if not c:
                continue
            nk = list(key)
            nk[vi] = 0
            for u in VARS:
                ru = rkey[_VI[u]]
                if ru == 0:
                    continue
                prod = d * ru
                if prod % 2:
                    raise SeriesDomainError(
                        "substitution exponent %s * %s leaves (1/2)Z"
                        % (half_str(d), half_str(ru))
                    )
                nk[_VI[u]] += prod // 2
            key = tuple(nk)
        if key[_VI[new_var]] < 0:
            raise SeriesUsageError(
                "substitution produced a negative counting exponent"
            )
        terms[key] = terms.get(key, 0) + c
    return Series(new_var, new_order, terms)


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


def specialize(s, assignments):
    """Assign exact rational values to non-counting variables, one after
    another: each is substitute(s, v, {}, value).

    A strict half-integer exponent only takes the values 1 and 0: a sign
    has no square root in Q, and hitting this is always a misuse of a
    half-graded series.
    """
    for v, value in assignments.items():
        s = substitute(s, v, {}, value)
    return s


def first_mismatch(a, b):
    """First differing coefficient of two series over the same counting
    variable, in canonical term order; None when they agree termwise."""
    a._check_same_var(b)
    for key in sorted(a.terms.keys() | b.terms.keys()):
        ca = a.terms.get(key, 0)
        cb = b.terms.get(key, 0)
        if ca != cb:
            return key, ca, cb
    return None


def mismatch_counts(a, b):
    """The number of differing coefficients of a and b at each power of the
    counting variable, as text: "q^0: 2, q^3: 1"."""
    ti = _VI[a.var]
    counts = Counter(k[ti] // 2 for k in a.terms.keys() | b.terms.keys()
                     if a.terms.get(k) != b.terms.get(k))
    return ", ".join("%s^%d: %d" % (a.var, n, count)
                     for n, count in sorted(counts.items()))


def render_head(s, limit):
    """str(s) cut after its first limit terms in canonical order, followed
    by the number of terms left out."""
    keys = sorted(s.terms)
    head = _render(s.terms, keys[:limit])
    more = len(keys) - limit
    return "%s … (%d more terms)" % (head, more) if more > 0 else head


def render_key(key):
    """Canonical text for a bare monomial (used in mismatch reports)."""
    return _render_term(key, 1)
