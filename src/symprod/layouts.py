"""The layout of the hot product loops: Kronecker-packed big ints.

plethystic_exp and the brute sector sum hold each power of the counting
variable, a Laurent polynomial in the other variables with int
coefficients, as one int of a Kronecker layout, with a slot per monomial.
A layout is built from the units, (degree, key) pairs of which every
monomial formed at degree n is a product with degrees summing to n, and
from a bound on every coefficient formed.  The slots lie on the lattice
that the units' exponents span, not in the box around them: where every
x and y exponent pair shares one parity (K3- and CY3-type sectors) an int
takes half the box, and where all lie on a line (a diagonal Hodge table)
one slot per point of it.  Products are int arithmetic: mul_add
multiplies by a factor in the form factor picks from the value, and
symmetric_powers builds every Sym^N of a sector block by shifts and adds
of ints in the frame of its keys.  decode turns each int into the lists
of its nonzero slots and their digits, found in C with no Python step per
empty slot, and drops the int; columns builds the keys of one degree a
coordinate column at a time, with no divmod per term.  Two layouts whose
vars, slopes and g agree (maps_like) map every slot to the same key, so
their decoded lists compare as they are.  slot is linear on the units,
slot(j key, j d) = j slot(key, d), so plethystic_exp builds each D_k on
slots and slot_factor makes its factor.
A layout past MAX_LAYOUT_BITS of ints in all -- exponents far apart on a
lattice of small index, such as all of Z^2, or in three or more variables
-- is refused with SeriesUsageError before any int is built.
"""

from itertools import compress, count, repeat
from math import gcd
from operator import mul
from sys import byteorder

# memoryview formats of the signed ints of 1, 2, 4 and 8 bytes, read in
# the host's byte order, and the sign byte of each top byte of a digit
_CASTS = {1: "b", 2: "h", 4: "i", 8: "q"}
_LITTLE_ENDIAN = byteorder == "little"
_SIGN_BYTE = bytes(255 if b > 127 else 0 for b in range(256))

# A factor pays as one int below FACTOR_BITS bits per term (_one_int), chosen
# by tools/dense_threshold.py on the heavy catalog and seeded shapes.
FACTOR_BITS = 256
# 16 MiB of ints per layout, about 200 times the largest that the catalog
# or the benchmark builds; hodge_orb on k3 fits to order 97.
MAX_LAYOUT_BITS = 1 << 27


class SeriesUsageError(ValueError):
    """An operation was called outside its contract (mismatched counting
    variable, constant monomial where expansion would not terminate, a
    layout past MAX_LAYOUT_BITS, ...)."""


class Kronecker:
    """Kronecker substitution: a polynomial of degree n is one int whose
    balanced base-2^width digits (slots) are its coefficients.  Monomial
    key of degree n has the coordinate (key[v] - n slope_v) / step_v in each
    variable v, slope_v the largest multiple of the gcd of the units'
    exponents of v at most their least exponent per degree and step_v the
    gcd of what the units hold above that slope: every coordinate of a
    product of units is a nonnegative int, at most n reach_v, and a sum of
    the units' coordinates.  The mixed-radix map phi puts each coordinate
    at a stride past the extent up to order of those below it, so no
    variable carries into the next, and key sits at slot phi / g, g the gcd
    of phi over the units: the slots lie on the lattice the units span.
    With two variables the second stride is rounded up until g is the
    index of that lattice (2 where all exponent pairs share one parity);
    on a line, as on a diagonal Hodge table, slot i is its i-th point.  No
    digit formed may exceed bound in absolute value; width adds a sign bit
    and rounds up to whole bytes.  The int of degree n spans at most
    1 + floor(sum_v floor(n reach_v) stride_v / g) slots."""

    def __init__(self, units, order, bound):
        # (index, slope) of each variable a unit holds, y first; (index,
        # step, slope) of those that vary, with reach and the coordinates
        # of every unit
        self.slopes, self.vars, reach, coords = [], [], [], []
        degrees = [d for d, _ in units]
        columns = [*zip(*(key for _, key in units))] or [()] * 5
        for v in range(4, -1, -1):
            col = columns[v]
            if any(col):
                step = gcd(*col)
                slope = step * min(e // (d * step)
                                   for d, e in zip(degrees, col))
                self.slopes.append((v, slope))
                col = [e - d * slope for d, e in zip(degrees, col)]
                step = gcd(*col)
                if step:
                    self.vars.append((v, step, slope))
                    coords.append([e // step for e in col])
                    num, den = 0, 1  # reach_v = num / den
                    for d, e in zip(degrees, coords[-1]):
                        if e * den > num * d:
                            num, den = e, d
                    reach.append((num, den))
        strides = [1]
        for num, den in reach[:-1]:
            strides.append(strides[-1] * (order * num // den + 1))
        if len(coords) == 2:
            c, index = _lattice(zip(*coords))
            if index:  # puts (-stride, 1) on {(a, b): a = c b mod index}
                strides[1] += (-c - strides[1]) % index
        # the coordinates of one variable have gcd 1 already
        self.g = gcd(*(sum(e * s for e, s in zip(w, strides))
                       for w in zip(*coords))) if len(coords) > 1 else 1
        self.vars = [var + (s,) for var, s in zip(self.vars, strides)]
        # the slots of the ints of degrees 0 to order, at most order + 1 over
        slots = order + 1 + sum(s * sum(n * num // den for n in range(
            order + 1)) for (num, den), s in zip(reach, strides)) // self.g
        self.nbytes = (bound.bit_length() + 8) // 8
        self.width = 8 * self.nbytes
        bits = self.width * slots
        if bits > MAX_LAYOUT_BITS:
            raise SeriesUsageError(
                "the product layout needs %d MiB of ints, past its limit of "
                "%d MiB: the exponents spread too far for order %d"
                % (-(-bits // 2**23), MAX_LAYOUT_BITS // 2**23, order))
        self._zero = (1 << self.width - 1).to_bytes(self.nbytes, "little")

    def slot(self, key, n):
        return sum((key[v] - n * slope) // step * stride
                   for v, step, slope, stride in self.vars) // self.g

    def _flagged(self, value):
        """(x, flag, size): the digits of value in its size slots, each in
        width-bit two's complement, and the top bit of every slot where
        value has a nonzero digit."""
        w = self.width
        size = abs(value).bit_length() // w + 2
        bias = int.from_bytes(self._zero * size, "little")  # the top bits
        # each slot of value + bias is its digit offset to be nonnegative,
        # and flipping the top bit back gives the digit in two's complement
        x = (value + bias) ^ bias
        # ones below the top bit carry into it unless the low bits are zero
        return x, ((x & ~bias) + bias - (bias >> w - 1) | x) & bias, size

    def _digits(self, x, flag, size):
        """(slots, digits): the nonzero slots of a _flagged value, lowest
        first, and their digits.  Slots of 1, 2, 4 or 8 bytes are read all
        at once by a memoryview cast of one to_bytes, slots of 3, 5, 6 or 7
        after widening each to 8 bytes with its sign byte, and compress and
        filter pick the nonzero ones, all in C; slots past 8 bytes, and
        every slot on a big-endian host, are sliced where flag marks them."""
        nb = self.nbytes
        data = x.to_bytes(size * nb, "little")
        if nb > 8 or not _LITTLE_ENDIAN:
            slots = list(compress(count(), flag.to_bytes(size * nb, "little")
                                  [nb - 1::nb]))
            from_bytes = int.from_bytes
            return slots, [from_bytes(data[i * nb:i * nb + nb], "little",
                                      signed=True) for i in slots]
        if nb not in _CASTS:
            wide = bytearray(8 * size)
            for j in range(nb):
                wide[j::8] = data[j::nb]
            sign = data[nb - 1::nb].translate(_SIGN_BYTE)
            for j in range(nb, 8):
                wide[j::8] = sign
            data, nb = wide, 8
        digits = memoryview(data).cast(_CASTS[nb])
        return list(compress(count(), digits)), list(filter(None, digits))

    def packed(self, slots, low=0):
        """The int of a {slot: int coeff} map, slots moved down by low."""
        nb, half = self.nbytes, 1 << self.width - 1
        zero = self._zero * (1 + max(slots, default=low) - low)
        raw = bytearray(zero)
        for i, c in slots.items():
            i = (i - low) * nb
            raw[i:i + nb] = (c + half).to_bytes(nb, "little")
        return int.from_bytes(raw, "little") - int.from_bytes(zero, "little")

    def _one_int(self, low, top, terms):  # terms in slots low to top
        return (top - low) * self.width < FACTOR_BITS * terms

    def slot_factor(self, slots):
        """factor(packed(slots)), made from the {slot: coeff} map itself."""
        slots = {i: c for i, c in slots.items() if c}
        if not slots:
            return 0, ()
        w, low = self.width, min(slots)
        if self._one_int(low, max(slots), len(slots)):
            return w * low, ((0, self.packed(slots, low)),)
        return w * low, [(w * (i - low), c) for i, c in sorted(slots.items())]

    def factor(self, value, base=0):
        """value, base bits below its place, as the factor b of mul_add:
        the shift of its lowest slot and (shift, coeff) pairs above it, one
        per term, or one of the whole int where its slots hold fewer than
        FACTOR_BITS bits per term.  The flag of its nonzero slots alone
        picks the form; only the per-term form decodes digits."""
        x, flag, size = self._flagged(value)
        if not flag:
            return 0, ()
        w = self.width
        low = (flag & -flag).bit_length() // w - 1
        top = flag.bit_length() // w - 1
        if self._one_int(low, top, flag.bit_count()):
            return base + w * low, ((0, value >> w * low),)
        slots, digits = self._digits(x, flag, size)
        return base + w * low, [(w * (i - low), c)
                                for i, c in zip(slots, digits)]

    @staticmethod
    def mul_add(acc, a, b):
        """acc + a * b for an int a and a factor b."""
        part = 0
        for s, c in b[1]:
            part += a * c << s
        return acc + (part << b[0])

    def frame(self, keys, d):
        """(origin, shifts) in bits: the lowest slot of keys, each above."""
        slots = [self.slot(key, d) for key in keys]
        low = min(slots, default=0)
        return self.width * low, [self.width * (s - low) for s in slots]

    def decode(self, ints):
        """[(n, slots, digits)] of each nonzero ints[n]: its nonzero slots,
        lowest first, and their digits.  Each int is dropped from the list
        ints once it is decoded."""
        out = []
        for n, value in enumerate(ints):
            ints[n] = None
            if value:
                out.append((n, *self._digits(*self._flagged(value))))
        return out

    def maps_like(self, other):
        """Whether other puts every key of every degree at the same slot:
        vars, slopes and g set the map, and the slot width does not."""
        return (self.vars, self.slopes, self.g) == \
            (other.vars, other.slopes, other.g)

    def columns(self, slots, n, ti):
        """The five key columns of the slots of degree n, the counting
        exponent at index ti: each varying variable from whole-list // and
        % of the slots' phi by the strides, outermost first, and each other
        coordinate repeated."""
        cols = [repeat(0)] * 5
        cols[ti] = repeat(2 * n)
        for v, slope in self.slopes:
            cols[v] = repeat(n * slope)
        rest = [i * self.g for i in slots] if self.g > 1 else slots
        outer = self.vars[::-1]
        for k, (v, step, slope, stride) in enumerate(outer, 1 - len(outer)):
            base = n * slope
            cols[v] = [base + r // stride * step for r in rest]
            # an outer stride may be 1 too, where the variables below it
            # reach 0 up to order; the innermost leaves no remainder
            if k:
                rest = [r % stride for r in rest]
        return cols


def _lattice(vectors):
    """(c, index): the lattice that the int vectors (a, b) span, their b
    coprime, is {(a, b): a = c b mod index}, a line where index is 0."""
    c, m, index = 0, 0, 0  # the span of (c, m) and (index, 0)
    for a, b in vectors:
        while b:  # Euclid on the b of (c, m) and (a, b)
            k = m // b
            c, m, a, b = a, b, c - k * a, m - k * b
        index = gcd(index, a)
    return c, index


def euler_transform(a, order):
    """[q^n] PE[sum_d a[d] q^d] for n <= order, by the Euler transform
    n g_n = sum_k D_k g_(n-k), D_k = sum_(d | k) d a[d] by a sieve."""
    D = [0] * (order + 1)
    for d in range(1, order + 1):
        da = d * a[d]
        for k in range(d, order + 1, d):
            D[k] += da
    g = [1]
    for n in range(1, order + 1):
        g.append(sum(map(mul, D[1:n + 1], reversed(g))) // n)
    return g


def sector_layout(order, cycles, keys, shift, b):
    """The layout of a sector sum over a space of dimension b with classes
    at keys, regraded by shift per moved cycle: an l-cycle is a unit of
    degree l, a key plus (l - 1) shift, and a sector of order n adds at
    most its dimension to [q^order] prod_{l <= cycles} (1 - q^l)^(-b)."""
    a = [0] + [b if l <= cycles else 0 for l in range(1, order + 1)]
    return Kronecker(
        [(l, tuple(e + (l - 1) * s for e, s in zip(key, shift)))
         for l in range(1, cycles + 1) for key in keys or [(0,) * 5]],
        order, euler_transform(a, order)[order])


def symmetric_powers(layout, blocks, d, top):
    """Sym^0, ..., Sym^top of a super space with classes of degree d, in
    layout: Sym^N has degree d N, packed at d = 1, a factor of mul_add
    above.  blocks lists (key, e, a): e classes at key counted a = +-1
    times each (-e odd ones if e < 0), so sum_N z^N Sym^N = prod (1 - a
    key z)^-e and a block's j-th power adds C(e + j - 1, j) a^j at j key,
    one shift and add of ints in the frame of the keys."""
    origin, shifts = layout.frame([key for key, _, _ in blocks], d)
    powers = [1] + [0] * top  # the packed 1 and zeros
    for s, (_, e, a) in zip(shifts, blocks):
        for N in range(top, 0, -1):  # powers[N - j] still lacks the block
            acc, ways = powers[N], 1
            for j in range(1, N + 1):
                ways = ways * a * (e + j - 1) // j
                if not ways:
                    break
                acc += ways * powers[N - j] << j * s
            powers[N] = acc
    return [layout.factor(v, N * origin) if d > 1 else v << N * origin
            for N, v in enumerate(powers)]
