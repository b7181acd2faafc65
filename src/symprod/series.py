"""Exact truncated power series in the variables q, p, t, x, y.

Coefficients are exact ints: every number the generating functions
produce is an integer.  Exponents live in (1/2)Z and are stored *doubled*,
so that all bookkeeping is plain integer arithmetic: the monomial
t^(3/2) q^2 is the key with doubled exponents t -> 3, q -> 4.

Every series designates one counting variable -- always q or p here -- in
which it is truncated: terms whose counting exponent exceeds the order are
dropped, and counting exponents must be nonnegative integers.  All other
variables are exact and may carry negative (Laurent) exponents, which is
sound because each fixed power of the counting variable has finitely many
companions.

Terms are validated once, where they enter: Series.from_terms (which
constant goes through) and substitute's coeff take only int coefficients
(a bool enters as the int it equals), and from_terms checks the counting
exponents.  Series(var, order, terms) is the internal constructor for
terms already valid, such as the results of substitute: it only drops
zeros and truncates, and keeps the dict it is handed when nothing is
dropped.  A Series has no arithmetic operator: products are formed only
in the packed loops below.

A q-series holds no power of p, and a p-series none of q: from_terms
refuses such a term, and no other operation makes one.  The canonical term
order (counting exponent, then t, x, y) is then the order of the keys.

One routine, substitute, replaces a variable by a monomial, both in t, x
and y, so a series keeps its counting variable and order.

The hot product loops, in plethystic_exp and the brute sector sum, run on
the layout of symprod.layouts: one int per power of the counting variable,
with a slot per monomial (Kronecker substitution), so plethystic_exp
refuses exponents spread too far for its order.  Their results stay
packed: Series.from_layout keeps the layout and the int of each power,
decodes them into the nonzero slots and digits of each power when str()
or .terms first needs those, and builds the {key: coeff} dict only when
.terms is first read, dropping the ints or slots then.  Two packed series
whose layouts share a slot map compare by their ints, trailing zero
powers aside, the narrower side's spread to the wider slot width where
the widths differ; str() renders each power from its key columns; every
other operation, and == on series of two slot maps or with a side
already decoded, reads .terms.

All values are immutable after construction and every operation is pure.
`order=None` marks an exact polynomial (nothing has been truncated away);
it combines with finite orders as "no constraint".
"""

from fractions import Fraction
from operator import itemgetter

from .layouts import Kronecker, SeriesUsageError, SlotMap, euler_transform

VARS = ("q", "p", "t", "x", "y")
COUNTING_VARS = ("q", "p")

_VI = {v: i for i, v in enumerate(VARS)}


class SeriesDomainError(ArithmeticError):
    """A value left the integer domain, e.g. a negative base raised to a
    strict half-integer exponent, or 2 to a negative one."""


def _exact(c):
    """An entering coefficient as an int; a bool enters as the int it
    equals."""
    if isinstance(c, int):
        return int(c)
    raise SeriesUsageError("coefficients must be ints, got %r" % (c,))


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
        # one pass in C over the coefficients, and one over the exponents
        if not all(terms.values()) or cap is not None and \
                max(map(itemgetter(ti), terms), default=0) > cap:
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
        (a layouts.Kronecker) and none past order, held as the list ints
        until .terms or str() first needs its slots: layout.decode then
        drops the ints from the list."""
        s = cls(var, order)
        object.__setattr__(s, "_terms", None)
        object.__setattr__(s, "_packed", (layout, ints, None))
        return s

    def _powers(self):
        """The (n, slots, digits) of each nonzero power of a packed series,
        decoded from its ints at the first call."""
        layout, ints, powers = self._packed
        if powers is None:
            powers = layout.decode(ints)
            object.__setattr__(self, "_packed", (layout, None, powers))
        return powers

    def _chunks(self):
        """(key columns, digits) of each power of a packed series, lowest
        first: within a power, slots ascend in key order."""
        layout, ti = self._packed[0], _VI[self.var]
        return ((layout.columns(slots, n, ti), digits)
                for n, slots, digits in self._powers())

    @property
    def terms(self):
        """{key: coeff}; a packed series builds it from each power's key
        columns at the first read, and drops its ints or slots then."""
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
        coeff must be an int, and each counting exponent a nonnegative
        integer, with no power of the other counting variable."""
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

    # -- comparison --------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        if self.var != other.var or self.order != other.order:
            return False
        a, b = self._packed, other._packed
        if not (a and b and a[1] is not None and b[1] is not None
                and a[0].map == b[0].map):
            return self.terms == other.terms
        # one int per power on one slot map, at the wider slot width
        nbytes = max(a[0].nbytes, b[0].nbytes)
        x, y = (ints if lay.nbytes == nbytes else
                [lay.spread(v, nbytes) for v in ints]
                for lay, ints, _ in (a, b))
        return x[:len(y)] == y[:len(x)] and not any(x[len(y):] + y[len(x):])

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
    """str(c) for an int coefficient of any size.  str() refuses an int
    past sys.get_int_max_str_digits() digits (4,300 by default), a guard
    for parsing untrusted text that printing an exact result does not
    need; such an int is written out half by half."""
    try:
        return str(c)
    except ValueError:
        pass
    if c < 0:
        return "-" + coeff_str(-c)
    half = c.bit_length() * 3 // 20  # about half its decimal digits
    hi, lo = divmod(c, 10 ** half)
    return coeff_str(hi) + coeff_str(lo).zfill(half)


# -- expansion primitives ----------------------------------------------------


def plethystic_units(f):
    """The (degree, key) unit of each term of f, with the degree of its
    counting exponent and the key without it: the units of the layout of
    plethystic_exp(f)."""
    ti = _VI[f.var]
    return [(key[ti] // 2, key[:ti] + (0,) + key[ti + 1:]) for key in f.terms]


def plethystic_exp(f, super_signs=False, slot_map=None):
    """The plethystic exponential PE[f] = exp(sum_{k>=1} psi_k(f) / k).

    psi_k raises every variable to its k-th power, so each term c*M of f
    contributes the factor (1 - M)^(-c).  Every term of f must carry a
    positive power of the counting variable.  Writing f = sum_d f_d q^d and
    PE[f] = sum_n F_n q^n, the coefficients follow the Euler-transform
    recurrence n*F_n = sum_{k<=n} D_k*F_(n-k), D_k = sum_{d|k} d*psi_(k/d)(f_d),
    on Laurent polynomials in t, x, y.  Each F_n is one int of a
    layouts.Kronecker layout, on slot_map, a layouts.SlotMap of f.order
    whose units include plethystic_units(f), or else on the slot map of
    those units alone.  Each D_k is a {slot: coeff} map, psi_j of a term
    at j times its slot: the recurrence is int arithmetic, n*F_n divides
    by n as one int, and the result holds the F_n packed
    (Series.from_layout).  f's coefficients are ints, so the division by n
    is exact; its exponents must have a layout that fits
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
    units = plethystic_units(f)
    # (degree, key without the counting variable, coeff) per term of f
    terms = [(d, key, c) for (d, key), c in zip(units, f.terms.values())]
    a = [0] * (order + 1)
    for d, _, c in terms:
        a[d] += abs(c)
    # no digit of n F_n outgrows n [q^n] PE[|f| at 1]
    bound = max(n * g for n, g in enumerate(euler_transform(a, order)))
    lay = Kronecker(slot_map or SlotMap(units, order), bound)
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
    the positive powers of v; a negative power of zero, coeff at a
    negative exponent other than 1 and -1, or coeff at a strict
    half-integer exponent other than 1 and 0, raises SeriesDomainError.
    """
    coeff = _exact(coeff)
    if v not in _VI:
        raise SeriesUsageError("unknown variable %r" % (v,))
    rkey = monomial_key(exps)
    if v in COUNTING_VARS or any(rkey[_VI[u]] for u in COUNTING_VARS):
        raise SeriesUsageError(
            "substitute neither replaces nor introduces a counting variable")
    vi, steps, terms = _VI[v], {}, {}
    for key, c in s.terms.items():
        d = key[vi]
        if d:
            if d not in steps:
                # coeff^(d/2), and the key step that puts rkey^(d/2) in
                # place of v^(d/2); a zero power kills its terms unchecked
                power = _int_power(coeff, d)
                odd = power and [ru for ru in rkey if d * ru % 2]
                if odd:
                    raise SeriesDomainError(
                        "substitution exponent %s * %s leaves (1/2)Z"
                        % (half_str(d), half_str(odd[0])))
                steps[d] = power, [d * ru // 2 - d * (u == vi)
                                   for u, ru in enumerate(rkey)]
            power, step = steps[d]
            if not power:
                continue
            c *= power
            key = (key[0] + step[0], key[1] + step[1], key[2] + step[2],
                   key[3] + step[3], key[4] + step[4])
        terms[key] = terms.get(key, 0) + c
    return Series(s.var, s.order, terms)


def _int_power(base, d):
    """base^(d/2) as an int; d is a nonzero doubled exponent."""
    if base == 0:
        if d < 0:
            raise SeriesDomainError("zero raised to a negative power")
        return base
    if d % 2 == 0:
        if d > 0 or base in (1, -1):
            # (+-1)^(-k) = (+-1)^k, and an int power of an int is an int
            return base ** abs(d // 2)
        raise SeriesDomainError("%s raised to the negative power %s is not "
                                "an integer" % (base, half_str(d)))
    if base == 1:
        return base
    raise SeriesDomainError(
        "cannot evaluate %s at the half-integer exponent %s" % (base, half_str(d))
    )


def mismatches(a, b):
    """(key, coeff of a, coeff of b) of each coefficient where two series
    over the same counting variable differ, in canonical term order."""
    if a.var != b.var:
        raise SeriesUsageError("mismatched counting variables %r and %r"
                               % (a.var, b.var))
    ta, tb = a.terms, b.terms
    return [(key, ta.get(key, 0), tb.get(key, 0))
            for key in sorted(ta.keys() | tb.keys())
            if ta.get(key, 0) != tb.get(key, 0)]


def render_head(s, limit):
    """str(s) cut after its first limit terms in canonical order, followed
    by the number of terms left out."""
    head = _render(_sorted_chunk(s.terms, limit))
    more = len(s.terms) - limit
    return "%s … (%d more terms)" % (head, more) if more > 0 else head


def render_key(key):
    """Canonical text for a bare monomial (used in mismatch reports)."""
    return _render(_sorted_chunk({key: 1}))
