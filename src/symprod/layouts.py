"""The two layouts of the hot product loops, and the rule that picks one.

plethystic_exp and the brute sector sum hold each power of the counting
variable, a Laurent polynomial in the other variables, in a layout that
choose_layout picks from the units, (degree, key) pairs of which every
monomial formed at degree n is a product with degrees summing to n, and
from a bound on every coefficient formed (None: some are Fractions).
Kronecker makes it one int with a slot per monomial, Codec a sparse map of
packed monomials; the Kronecker layout is taken when it spends at most
BITS_PER_TERM bits per expected term.  Both offer packed, factor, mul_add,
product, copy and read, and frame and shift_add, on which symmetric_powers
builds every Sym^N of a sector block in the layout's own values.
"""

from math import gcd

# Chosen by tools/dense_threshold.py (catalog, seeded and quintic shapes):
# total time is flat for BITS_PER_TERM from 395 to 578, the sparse path
# wins from about 770; factors pay as one int below FACTOR_BITS per term.
BITS_PER_TERM = 512
FACTOR_BITS = 256


def mul_add(acc, a, b):
    """acc += a * b on {code: coeff} maps of one Codec, in place; returns
    acc.  Cancelled terms stay as zeros for the caller to drop."""
    get = acc.get
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            k = k1 + k2
            acc[k] = get(k, 0) + c1 * c2
    return acc


class Codec:
    """Keys packed into ints: the five doubled exponents are the balanced
    (signed) digits of one int in base 2^width, y the least significant, so
    the code of a product of monomials is the sum of their codes.  Exact
    while no exponent formed exceeds bound in absolute value; width adds a
    sign bit and a carry bit."""

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

    def packed(self, terms, n=0):
        """The {code: coeff} map of a {key: coeff} map (of any degree n)."""
        return {self.pack(key): c for key, c in terms.items() if c}

    def read(self, coeffs, ti):
        """{key: coeff} of sum_n coeffs[n] v^n, v the variable at index ti,
        each term unpacked once."""
        step = self.pack([2 if i == ti else 0 for i in range(5)])
        return {self.unpack(code + n * step): c
                for n, cn in enumerate(coeffs) for code, c in cn.items()}

    frame = lambda self, keys, d: (0, [*map(self.pack, keys)])  # codes add
    factor = staticmethod(lambda value, base=0: value)
    mul_add = staticmethod(mul_add)
    product = staticmethod(lambda a, b: mul_add({}, a, b))
    copy = staticmethod(dict)
    shift_add = staticmethod(lambda acc, a, s, c: mul_add(acc, a, {s: c}))


class Kronecker:
    """Kronecker substitution: a polynomial of degree n is one int whose
    balanced base-2^width digits (slots) are its coefficients.  Monomial
    key sits at slot sum_v (key[v] - n slope_v) / step_v * stride_v, step_v
    the gcd of the units' exponents of v and slope_v the largest multiple
    of step_v at most their least exponent per degree: every slot of a
    product of units is a nonnegative int, at most n reach_v per variable,
    and a sum of slots.  Strides leave room up to order, so no variable
    carries into the next.  No digit formed may exceed bound in absolute
    value; width adds a sign bit and rounds up to whole bytes."""

    def __init__(self, units, order, bound):
        # (index, step, slope, stride) of each variable a unit carries, y
        # first, and the slots it spans up to each degree
        self.vars, spans, stride = [], [], 1
        for v in range(4, -1, -1):
            if any(key[v] for _, key in units):
                step = gcd(*(key[v] for _, key in units))
                slope = step * min(key[v] // (d * step) for d, key in units)
                num, den = 0, 1  # reach_v = num / den
                for d, key in units:
                    if (key[v] - d * slope) // step * den > num * d:
                        num, den = (key[v] - d * slope) // step, d
                self.vars.append((v, step, slope, stride))
                spans.append([n * num // den * stride
                              for n in range(order + 1)])
                stride *= order * num // den + 1
        self.sizes = [1 + sum(s) for s in zip(*spans, [0] * (order + 1))]
        self.units = units
        self.nbytes = (bound.bit_length() + 8) // 8
        self.width = 8 * self.nbytes
        self._zero = (1 << self.width - 1).to_bytes(self.nbytes, "little")

    def slot(self, key, n):
        return sum((key[v] - n * slope) // step * stride
                   for v, step, slope, stride in self.vars)

    def support(self):
        """Per degree, the slots products of units reach, one bit each."""
        shifts = [(d, self.slot(key, d)) for d, key in self.units]
        reach = [1]
        for n in range(1, len(self.sizes)):
            r = 0
            for d, s in shifts:
                if d <= n:
                    r |= reach[n - d] << s
            reach.append(r)
        return reach

    def _digits(self, value):
        """(slot, digit) of each nonzero digit of value, lowest first and
        lazily, read from one to_bytes at the slots whose top bit flag sets."""
        nb, w = self.nbytes, self.width
        size = abs(value).bit_length() // w + 2
        bias = int.from_bytes(self._zero * size, "little")  # the top bits
        raw = value + bias
        x = raw ^ bias  # the digits of value, offset to be nonnegative
        # ones below the top bit carry into it unless the low bits are zero
        flag = ((x & ~bias) + bias - (bias >> w - 1) | x) & bias
        raw, half = raw.to_bytes(size * nb, "little"), 1 << w - 1
        return ((i, int.from_bytes(raw[i * nb:(i + 1) * nb], "little") - half)
                for i, f in enumerate(flag.to_bytes(size * nb, "little")
                                      [nb - 1::nb]) if f)

    def packed(self, terms, n):
        """The int of a {key: int coeff} map of degree n, written as bytes."""
        nb, half, zero = self.nbytes, 1 << self.width - 1, self._zero
        digits = [(self.slot(key, n), c) for key, c in terms.items()]
        size = 1 + max((i for i, _ in digits), default=0)
        raw = bytearray(zero * size)
        for i, c in digits:
            raw[i * nb:(i + 1) * nb] = (c + half).to_bytes(nb, "little")
        return int.from_bytes(raw, "little") - int.from_bytes(
            zero * size, "little")

    def factor(self, value, base=0):
        """value, base bits below its place, as the factor b of mul_add:
        the shift of its lowest slot and (shift, coeff) pairs above it, one
        per term, or one of the whole int where its slots hold fewer than
        FACTOR_BITS bits per term."""
        digits, w = [*self._digits(value)], self.width
        if not digits:
            return 0, ()
        low, top = digits[0][0], digits[-1][0]
        if (top - low) * w < FACTOR_BITS * len(digits):
            return base + w * low, ((0, value >> w * low),)
        return base + w * low, [(w * (i - low), c) for i, c in digits]

    @staticmethod
    def mul_add(acc, a, b):
        """acc + a * b for an int a and a factor b."""
        part = 0
        for s, c in b[1]:
            part += a * c << s
        return acc + (part << b[0])

    product = staticmethod(lambda a, b: Kronecker.mul_add(0, a, b))
    copy = staticmethod(lambda a: a)

    def frame(self, keys, d):
        """(origin, shifts) in bits: the lowest slot of keys, each above."""
        slots = [self.slot(key, d) for key in keys]
        low = min(slots, default=0)
        return self.width * low, [self.width * (s - low) for s in slots]

    shift_add = staticmethod(lambda acc, a, s, c: acc + (c * a << s))

    def read(self, coeffs, ti):
        """{key: coeff} of sum_n coeffs[n] v^n, v the variable at index ti,
        each int decoded once."""
        out = {}
        for n, value in enumerate(coeffs):
            base = [0] * 5
            base[ti] = 2 * n
            for v, _, slope, _ in self.vars:
                base[v] = n * slope
            for i, c in self._digits(value):
                key, rest = base[:], i
                for v, step, _, stride in reversed(self.vars):
                    j, rest = divmod(rest, stride)
                    key[v] += j * step
                out[tuple(key)] = c
        return out


def layout_measure(units, order, bound):
    """(Kronecker layout, bits of its slots per expected term): the bits of
    all degrees up to order over the slots products of units reach."""
    lay = Kronecker(units or [(1, (0,) * 5)], order, bound)
    bits = lay.width * sum(lay.sizes)
    # multisets of units by degree bound the slots reached from above, so a
    # layout too wide for them is refused before its support is built
    count = [1] + [0] * order
    for d, _ in units:
        for n in range(d, order + 1):
            count[n] += count[n - d]
    if bits > BITS_PER_TERM * sum(count):
        return lay, bits / sum(count)
    return lay, bits / sum(bin(r).count("1") for r in lay.support())


def choose_layout(units, order, bound):
    """The Kronecker layout when bound is an int and it spends at most
    BITS_PER_TERM bits per expected term, else a Codec wide enough for
    order times any unit and 2 order at the counting variable."""
    if bound is not None:
        lay, bits = layout_measure(units, order, bound)
        if bits <= BITS_PER_TERM:
            return lay
    return Codec(order * max([2] + [abs(e) for _, key in units for e in key]))


def euler_transform(a, order):
    """[q^n] PE[sum_d a[d] q^d] for n <= order, by the Euler transform
    n g_n = sum_k D_k g_(n-k), D_k = sum_(d | k) d a[d]."""
    D = [sum(d * a[d] for d in range(1, k + 1) if k % d == 0)
         for k in range(order + 1)]
    g = [1]
    for n in range(1, order + 1):
        g.append(sum(D[k] * g[n - k] for k in range(1, n + 1)) // n)
    return g


def sector_layout(order, cycles, keys, shift, b):
    """The layout of a sector sum over a space of dimension b with classes
    at keys, regraded by shift per moved cycle: an l-cycle is a unit of
    degree l, a key plus (l - 1) shift, and a sector of order n adds at
    most its dimension to [q^order] prod_{l <= cycles} (1 - q^l)^(-b)."""
    a = [0] + [b if l <= cycles else 0 for l in range(1, order + 1)]
    return choose_layout(
        [(l, tuple(e + (l - 1) * s for e, s in zip(key, shift)))
         for l in range(1, cycles + 1) for key in keys or [(0,) * 5]],
        order, euler_transform(a, order)[order])


def symmetric_powers(layout, blocks, d, top):
    """Sym^0, ..., Sym^top of a super space with classes of degree d, in
    layout: Sym^N has degree d N, packed at d = 1, a factor of mul_add
    above.  blocks lists (key, e, a): e classes at key counted a = +-1
    times each (-e odd ones if e < 0), so sum_N z^N Sym^N = prod (1 - a
    key z)^-e and a block's j-th power adds C(e + j - 1, j) a^j at j key."""
    origin, shifts = layout.frame([key for key, _, _ in blocks], d)
    zero = layout.packed({}, 0)
    powers = [layout.packed({(0,) * 5: 1}, 0)] + [zero] * top
    for s, (_, e, a) in zip(shifts, blocks):
        for N in range(top, 0, -1):  # powers[N - j] still lacks the block
            acc, ways = layout.copy(powers[N]), 1
            for j in range(1, N + 1):
                ways = ways * a * (e + j - 1) // j
                if not ways:
                    break
                acc = layout.shift_add(acc, powers[N - j], j * s, ways)
            powers[N] = acc
    return [layout.factor(v, N * origin) if d > 1 else layout.shift_add(
        layout.copy(zero), v, N * origin, 1) for N, v in enumerate(powers)]
