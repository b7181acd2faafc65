"""The layout of the hot product loops: Kronecker-packed big ints.

plethystic_exp and the brute sector sum hold each power of the counting
variable, a Laurent polynomial in the other variables with int
coefficients, as one int of a Kronecker layout, with a slot per monomial.
A layout is a slot map and a slot width.  The slot map (SlotMap) is built
from the units, (degree, key) pairs of which every monomial formed at
degree n is a product with degrees summing to n, and the order; the width
from a bound on every coefficient formed.  The slots lie on the lattice
that the units' exponents span, not in the box around them: where every
x and y exponent pair shares one parity (K3- and CY3-type sectors) an int
takes half the box, and where all lie on a line (a diagonal Hodge table)
one slot per point of it.  A slot map built from more units than a
product forms holds that product too, so the two routes of a kind check
share the slot map of the union of their units and keep each its own
width.  Products are int arithmetic: mul_add multiplies an int by a
factor, one product per run of its nonzero slots, which a gap of more
than RUN_BITS bits of empty slots ends, and symmetric_powers builds
every Sym^N of a sector block by shifts and adds of ints in the frame of
its keys.  sector_units lists a sector sum's units at three cycle
lengths, which fix the slot map of every length, and sector_bound its
bound.
decode turns each int into the lists of its nonzero slots and their
digits, found in C with no Python step per empty slot, and drops the int;
columns builds the keys of one degree a coordinate column at a time, with
no divmod per term.  Two layouts on equal slot maps put every key at the
same slot, so their ints compare as they are at one width, and after
spread widens the narrower side's slots at two.  slot is linear on the
units, slot(j key, j d) = j slot(key, d), so plethystic_exp builds each
D_k on slots and slot_factor makes its factor, and a brute level-l block
is its family's block at its first, shortest, length (the sector sum asks
for l ascending) moved by slots of the shift.
A layout past MAX_LAYOUT_BITS of ints in all -- exponents far apart on a
lattice of small index, such as all of Z^2, or in three or more variables
-- is refused with SeriesUsageError before any int is built.
"""

from functools import lru_cache
from itertools import compress, count, repeat
from math import gcd
from operator import mul
from sys import byteorder

# memoryview formats of the signed ints of 1, 2, 4 and 8 bytes, read in
# the host's byte order, and the sign byte of each top byte of a digit
_CASTS = {1: "b", 2: "h", 4: "i", 8: "q"}
_LITTLE_ENDIAN = byteorder == "little"
_SIGN_BYTE = bytes(255 if b > 127 else 0 for b in range(256))

# A run of a factor's nonzero slots ends at a gap of more than RUN_BITS bits
# of empty slots, chosen by tools/dense_threshold.py on the heavy catalog,
# seeded and dense shapes.
RUN_BITS = 96
# 16 MiB of ints per layout, about 200 times the largest that the catalog
# or the benchmark builds; hodge_orb on k3 fits to order 97.
MAX_LAYOUT_BITS = 1 << 27


class SeriesUsageError(ValueError):
    """An operation was called outside its contract (mismatched counting
    variable, constant monomial where expansion would not terminate, a
    layout past MAX_LAYOUT_BITS, ...)."""


class SlotMap:
    """Where a layout puts each monomial: a key of degree n has the
    coordinate (key[v] - n slope_v) / step_v in each variable v, slope_v
    the largest multiple of the gcd of the units' exponents of v at most
    their least exponent per degree and step_v the gcd of what the units
    hold above that slope: every coordinate of a product of units is a
    nonnegative int, at most n reach_v, and a sum of the units'
    coordinates.  The mixed-radix map phi puts each coordinate at a stride
    past the extent up to order of those below it, so no variable carries
    into the next, and key sits at slot phi / g, g the gcd of phi over the
    units: the slots lie on the lattice the units span.  With two
    variables the second stride is rounded up until g is the index of that
    lattice (2 where all exponent pairs share one parity); on a line, as
    on a diagonal Hodge table, slot i is its i-th point.  vars, slopes and
    g set the map, and two maps that agree on them are equal.  The int of
    degree n spans at most 1 + floor(sum_v floor(n reach_v) stride_v / g)
    slots, and slots counts those of degrees 0 to order."""

    def __init__(self, units, order):
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
        self.order = order
        self.slots = order + 1 + sum(s * sum(n * num // den for n in range(
            order + 1)) for (num, den), s in zip(reach, strides)) // self.g

    def __eq__(self, other):
        return (self.vars, self.slopes, self.g) == \
            (other.vars, other.slopes, other.g)

    def slot(self, key, n):
        return sum((key[v] - n * slope) // step * stride
                   for v, step, slope, stride in self.vars) // self.g

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


class Kronecker(SlotMap):
    """Kronecker substitution: a polynomial of degree n is one int whose
    balanced base-2^width digits (slots) are its coefficients, at the
    slots of slot_map (map): a layout is its slot map at a width.  No
    digit formed may exceed bound in absolute value; width adds a sign bit
    and rounds up to whole bytes."""

    def __init__(self, slot_map, bound):
        self.__dict__.update(vars(slot_map), map=slot_map)
        self.nbytes = (bound.bit_length() + 8) // 8
        self.width = 8 * self.nbytes
        bits = self.width * self.slots
        if bits > MAX_LAYOUT_BITS:
            raise SeriesUsageError(
                "the product layout needs %d MiB of ints, past its limit of "
                "%d MiB: the exponents spread too far for order %d"
                % (-(-bits // 2**23), MAX_LAYOUT_BITS // 2**23, self.order))
        self._zero = (1 << self.width - 1).to_bytes(self.nbytes, "little")

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

    def slot_factor(self, slots):
        """factor of the int packed from a {slot: coeff} map, made from
        the map itself: its terms, lowest slot first, are summed into
        runs, each shifted to its slot above the first of its run."""
        # the farthest past a run's last slot that its next one may lie
        w, reach = self.width, RUN_BITS // self.width + 1
        firsts, runs = [], []  # the first slot of each run, and its int
        for i, c in sorted(slots.items()):
            if c:
                if runs and i - last <= reach:
                    runs[-1] += c << w * (i - firsts[-1])
                else:
                    firsts.append(i)
                    runs.append(c)
                last = i
        low = firsts[0] if runs else 0
        return w * low, [(w * (i - low), c) for i, c in zip(firsts, runs)]

    def factor(self, value):
        """value as the factor b of mul_add: the shift of its lowest slot
        and the runs of its nonzero slots above it, as (shift, int) pairs;
        a run ends at a gap of more than RUN_BITS bits of empty slots, and
        a factor of one run is the whole int.  The flag of the nonzero
        slots finds the runs: where the empty ones hold at most RUN_BITS
        bits in all, there is one; else cover marks each slot at most g
        slots above a nonzero one, so a nonzero slot starts a run where the
        slot below it is not covered and ends one where the slot g + 1
        above it is not.  Only a factor of several runs reads its digits,
        each run from its slice of their bytes."""
        x, flag, size = self._flagged(value)
        if not flag:
            return 0, []
        w, nb = self.width, self.nbytes
        starts = flag & -flag  # the lowest nonzero slot starts a run
        low = starts.bit_length() // w - 1
        if (flag.bit_length() // w - low - flag.bit_count()) * w > RUN_BITS:
            g, cover = RUN_BITS // w, flag  # g is below the empty slots
            for j in range(1, g + 1):
                cover |= flag << w * j
            starts = flag & ~(cover << w)
        if not starts & starts - 1:
            return w * low, [(0, value >> w * low)]
        firsts, lasts = (compress(count(), bits.to_bytes(
            size * nb, "little")[nb - 1::nb])
            for bits in (starts, flag & ~(cover >> w * (g + 1))))
        data, runs = x.to_bytes(size * nb, "little"), []
        for a, b in zip(firsts, lasts):
            # flipping each top bit of the slice's two's complement digits
            # offsets them by half a slot, and top takes the offset back
            top = int.from_bytes(self._zero * (b + 1 - a), "little")
            runs.append((w * (a - low), (int.from_bytes(
                data[a * nb:b * nb + nb], "little") ^ top) - top))
        return w * low, runs

    @staticmethod
    def mul_add(acc, a, b):
        """acc + a * b for an int a and a factor b."""
        part = 0
        for s, c in b[1]:
            part += a * c << s
        return acc + (part << b[0])

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

    def spread(self, value, nbytes):
        """value, an int of this layout, as the int of a layout on the same
        slot map whose slots take nbytes bytes, more than its own:
        offset by half a slot, each digit fills its slot alone,
        nonnegative, so slices of bytes move every slot into the wider
        frame at once, and the offset comes off at the new width."""
        nb = self.nbytes
        size = abs(value).bit_length() // self.width + 2
        data = (value + int.from_bytes(self._zero * size, "little")
                ).to_bytes(size * nb, "little")
        wide = bytearray(size * nbytes)
        for j in range(nb):
            wide[j::nbytes] = data[j::nb]
        return int.from_bytes(wide, "little") - int.from_bytes(
            self._zero.ljust(nbytes, b"\0") * size, "little")


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


def sector_units(cycles, keys, shift):
    """The units of a sector sum's slot map over classes at keys,
    regraded by shift per moved cycle: an l-cycle is a unit of degree l, a
    key plus (l - 1) shift.  Each unit is affine in l, so each exponent
    over its degree is monotone in l and every gcd, slope, reach, lattice
    and g of the map is fixed by the units of lengths 1, 2 and cycles:
    only those are listed (twice where cycles is 1 or 2), and their map is
    the one of every length."""
    s0, s1, s2, s3, s4 = shift
    return [(l, (k0 + m * s0, k1 + m * s1, k2 + m * s2, k3 + m * s3,
                 k4 + m * s4))
            for l, m in ((1, 0), (2, 1), (cycles, cycles - 1))
            if 0 < l <= cycles
            for k0, k1, k2, k3, k4 in keys or [(0,) * 5]]


@lru_cache(maxsize=64)
def sector_bound(order, cycles, b):
    """[q^order] prod_{l <= cycles} (1 - q^l)^(-b), the slot bound of a
    sector sum over a space of dimension b: a sector of order n adds at
    most its dimension to it.  The same for every kind of a table at one
    order and cycle bound."""
    a = [0] + [b if l <= cycles else 0 for l in range(1, order + 1)]
    return euler_transform(a, order)[order]


def symmetric_powers(layout, blocks, d, top):
    """Sym^0, ..., Sym^top of a super space with classes of degree d, as
    ints of layout: Sym^N has degree d N, and layout.factor makes it a
    factor of mul_add.  blocks lists (key, e, a): e classes at key counted
    a = +-1 times each (-e odd ones if e < 0), so sum_N z^N Sym^N = prod
    (1 - a key z)^-e and a block's j-th power adds C(e + j - 1, j) a^j at
    j key, one shift and add of ints in the frame of the keys."""
    w, slots = layout.width, [layout.slot(key, d) for key, _, _ in blocks]
    low = min(slots, default=0)  # the frame's origin, moved back last
    powers = [1] + [0] * top  # the packed 1 and zeros
    for i, (_, e, a) in zip(slots, blocks):
        s = w * (i - low)
        for N in range(top, 0, -1):  # powers[N - j] still lacks the block
            acc, ways = powers[N], 1
            for j in range(1, N + 1):
                ways = ways * a * (e + j - 1) // j
                if not ways:
                    break
                acc += ways * powers[N - j] << j * s
            powers[N] = acc
    return [v << N * w * low for N, v in enumerate(powers)]
