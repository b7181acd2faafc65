"""Exact truncated power series in the variables q, p, t, x, y.

Coefficients are arbitrary-precision rationals (fractions.Fraction) and
exponents live in (1/2)Z.  Exponents are stored *doubled*, so that all
bookkeeping is plain integer arithmetic: the monomial t^(3/2) q^2 is the
key with doubled exponents t -> 3, q -> 4.

Every series designates one counting variable -- always q or p here -- in
which it is truncated: terms whose counting exponent exceeds the order are
dropped, and counting exponents must be nonnegative integers.  All other
variables are exact and may carry negative (Laurent) exponents, which is
sound because each fixed power of the counting variable has finitely many
companions.

One routine, substitute, replaces a variable by a monomial; specialize is
substitute by constants, one variable after another.

All values are immutable after construction and every operation is pure.
`order=None` marks an exact polynomial (nothing has been truncated away);
it combines with finite orders as "no constraint".
"""

from fractions import Fraction

VARS = ("q", "p", "t", "x", "y")
COUNTING_VARS = ("q", "p")

_VI = {v: i for i, v in enumerate(VARS)}
_ZERO_KEY = (0, 0, 0, 0, 0)
# canonical secondary ordering of the non-counting exponents
_TIEBREAK = ("t", "x", "y", "p", "q")


class SeriesUsageError(ValueError):
    """An operation was called outside its contract (mismatched counting
    variable, constant monomial where expansion would not terminate, ...)."""


class SeriesDomainError(ArithmeticError):
    """A value left the exact-rational domain, e.g. a negative base raised
    to a strict half-integer exponent."""


def _as_fraction(c):
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise SeriesUsageError("coefficients must be exact rationals, got %r" % (c,))


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


def _scale_key(k, j):
    return (j * k[0], j * k[1], j * k[2], j * k[3], j * k[4])


def half_str(d):
    """Render a doubled exponent: integer when even, "a/2" when odd."""
    if d % 2 == 0:
        return str(d // 2)
    return "%d/2" % d


class Series:
    """A truncated sparse series; see the module docstring for the model."""

    __slots__ = ("var", "order", "terms")

    def __init__(self, var, order, terms=None):
        if var not in COUNTING_VARS:
            raise SeriesUsageError("counting variable must be q or p, got %r" % (var,))
        if order is not None and (not isinstance(order, int) or order < 0):
            raise SeriesUsageError("order must be a nonnegative integer or None")
        ti = _VI[var]
        clean = {}
        if terms:
            for key, c in terms.items():
                c = _as_fraction(c)
                if not c:
                    continue
                e = key[ti]
                if e < 0 or e % 2:
                    raise SeriesUsageError(
                        "counting-variable exponents must be nonnegative integers"
                    )
                if order is not None and e > 2 * order:
                    continue
                clean[key] = c
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
        return cls(var, order, {_ZERO_KEY: _as_fraction(value)})

    @classmethod
    def one(cls, var, order=None):
        return cls.constant(var, order, 1)

    @classmethod
    def from_terms(cls, var, order, pairs):
        """The sum of coeff * prod(v^e) over (coeff, {v: e}) pairs, with
        exponents in (1/2)Z; duplicate monomials add and zeros drop."""
        terms = {}
        for coeff, exps in pairs:
            key = monomial_key(exps)
            terms[key] = terms.get(key, 0) + _as_fraction(coeff)
        return cls(var, order, terms)

    @classmethod
    def term(cls, var, order, coeff, exps):
        """Single term coeff * prod(v^e) with exponents in (1/2)Z."""
        return cls.from_terms(var, order, [(coeff, exps)])

    # -- basic queries -----------------------------------------------------

    def constant_term(self):
        return self.terms.get(_ZERO_KEY, Fraction(0))

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

    def _sort_key(self, key):
        ti = _VI[self.var]
        rest = tuple(key[_VI[v]] for v in _TIEBREAK if v != self.var)
        return (key[ti],) + rest

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: self._sort_key(kv[0]))

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
        if isinstance(other, (int, Fraction)):
            other = Series.constant(self.var, None, other)
        self._check_same_var(other)
        order = self._min_order(self.order, other.order)
        terms = dict(self.terms)
        for key, c in other.terms.items():
            s = terms.get(key, 0) + c
            if s:
                terms[key] = s
            else:
                terms.pop(key, None)
        return Series(self.var, order, terms)

    __radd__ = __add__

    def __neg__(self):
        return Series(self.var, self.order, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Series.constant(self.var, None, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if not c:
                return Series.zero(self.var, self.order)
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
                s = terms.get(key, 0) + c1 * c2
                if s:
                    terms[key] = s
                else:
                    del terms[key]
        return Series(self.var, order, terms)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise SeriesUsageError("only nonnegative integer powers of series")
        result = Series.one(self.var, self.order)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return (
            self.var == other.var
            and self.order == other.order
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.var, self.order, tuple(self.sorted_terms())))

    # -- rendering ---------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for key, c in self.sorted_terms():
            body = _render_term(self.var, key, c)
            if not parts:
                parts.append("-" + body if c < 0 else body)
            else:
                parts.append((" - " if c < 0 else " + ") + body)
        return "".join(parts)

    def __repr__(self):
        return "Series(%r, order=%r: %s)" % (self.var, self.order, str(self))


def _render_coeff(c):
    return str(c) if c.denominator == 1 else "%d/%d" % (c.numerator, c.denominator)


def _render_term(var, key, c):
    factors = []
    for v in _TIEBREAK:
        if v == var:
            continue
        d = key[_VI[v]]
        if d == 0:
            continue
        if d == 2:
            factors.append(v)
        elif d % 2 == 0 and d > 0:
            factors.append("%s^%d" % (v, d // 2))
        else:
            factors.append("%s^(%s)" % (v, half_str(d)))
    d = key[_VI[var]]
    if d == 2:
        factors.append(var)
    elif d:
        factors.append("%s^%d" % (var, d // 2))
    a = abs(c)
    if not factors:
        return _render_coeff(a)
    mono = "*".join(factors)
    if a == 1:
        return mono
    return "%s*%s" % (_render_coeff(a), mono)


# -- expansion primitives ----------------------------------------------------


def plethystic_exp(f):
    """The plethystic exponential PE[f] = exp(sum_{k>=1} psi_k(f) / k).

    psi_k raises every variable to its k-th power, so each term c*M of f
    contributes the factor (1 - M)^(-c).  Every term of f must carry a
    positive power of the counting variable.  Writing f = sum_d f_d q^d and
    PE[f] = sum_n F_n q^n, the coefficients follow the Euler-transform
    recurrence n*F_n = sum_{k<=n} D_k*F_(n-k), D_k = sum_{d|k} d*psi_(k/d)(f_d),
    on Laurent polynomials in t, x, y.  Coefficients stay plain integers
    when f is integral (the division by n is then exact).
    """
    if f.order is None:
        raise SeriesUsageError("plethystic_exp needs a finite truncation order")
    order, ti = f.order, _VI[f.var]
    integral = f.is_integral()
    D = [{} for _ in range(order + 1)]
    for key, c in f.terms.items():
        d = key[ti] // 2
        if d == 0:
            raise SeriesUsageError("plethystic_exp needs every term to carry "
                                   "the counting variable")
        base = key[:ti] + (0,) + key[ti + 1:]
        c = d * (c.numerator if integral else c)
        for j in range(1, order // d + 1):
            mono = _scale_key(base, j)
            D[d * j][mono] = D[d * j].get(mono, 0) + c
    D = [[(mono, c) for mono, c in Dk.items() if c] for Dk in D]
    F, terms = [[(_ZERO_KEY, 1)]], {_ZERO_KEY: 1}
    for n in range(1, order + 1):
        acc = {}
        for k in range(1, n + 1):
            Fk = F[n - k]
            for m1, c1 in D[k]:
                for m2, c2 in Fk:
                    mono = _mul_key(m1, m2)
                    acc[mono] = acc.get(mono, 0) + c1 * c2
        F.append([(mono, c // n if integral else c / n)
                  for mono, c in acc.items() if c])
        for mono, c in F[n]:
            terms[mono[:ti] + (2 * n,) + mono[ti + 1:]] = c
    return Series(f.var, order, terms)


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
    coeff = _as_fraction(coeff)
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
        t = terms.get(key, 0) + c
        if t:
            terms[key] = t
        else:
            del terms[key]
    return Series(new_var, new_order, terms)


def _rational_power(base, d):
    """base^(d/2) exactly; d is a nonzero doubled exponent."""
    if base == 0:
        if d < 0:
            raise SeriesDomainError("zero raised to a negative power")
        return base
    if d % 2 == 0:
        return base ** (d // 2)
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
    keys = set(a.terms) | set(b.terms)
    for key in sorted(keys, key=a._sort_key):
        ca = a.terms.get(key, Fraction(0))
        cb = b.terms.get(key, Fraction(0))
        if ca != cb:
            return key, ca, cb
    return None


def render_key(var, key):
    """Canonical text for a bare monomial (used in mismatch reports)."""
    body = _render_term(var, key, Fraction(1))
    return body

