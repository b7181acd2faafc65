import tracemalloc
from fractions import Fraction
from operator import add

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from conftest import packed, pe_oracle, read, ref_render
from symprod import layouts
from symprod import orbifold as ob
from symprod.layouts import MAX_LAYOUT_BITS, Kronecker
from symprod.manifold import ManifoldData
from symprod.series import VARS, Series, SeriesUsageError, plethystic_exp


# Doubled exponents: odd ones are half-integers, negative ones Laurent.
exponent = st.integers(-4, 4)
# Coefficients of both signs, small and past 2^64.
coefficient = st.one_of(st.integers(-3, 3), st.integers(-2**80, 2**80))


@st.composite
def integral_f(draw):
    """An integral f over q or p, up to order 6, in two of the four other
    variables (the other counting one included), so the slots stay few."""
    var = draw(st.sampled_from(("q", "p")))
    ti = VARS.index(var)
    order = draw(st.integers(0, 6))
    free = draw(st.lists(st.sampled_from([i for i in range(5) if i != ti]),
                         min_size=2, max_size=2, unique=True))
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        key = [0] * 5
        for i in free:
            key[i] = draw(exponent)
        key[ti] = 2 * draw(st.integers(1, max(order, 1)))
        terms[tuple(key)] = draw(coefficient)
    return Series(var, order, terms)


@settings(max_examples=150, deadline=None)
@given(integral_f())
@example(Series("p", 3, {(0, 2, -3, 0, 1): -2**70, (0, 4, 1, 0, -3): 5}))
def test_plethystic_exp_matches_the_oracle(f):
    assert plethystic_exp(f) == pe_oracle(f)


# (first, second) vectors of a basis of each kind of lattice in the x and y
# exponents: every pair of one parity, a = r b mod D, a line, all of Z^2
LATTICES = {
    "parity": st.just(((1, 1), (2, 0))),
    "index": st.tuples(st.integers(2, 7), st.integers(0, 6)).map(
        lambda dr: ((dr[1] % dr[0], 1), (dr[0], 0))),
    "line": st.tuples(st.integers(0, 3), st.integers(1, 3)).map(
        lambda v: (v, (0, 0))),
    "full": st.just(((1, 0), (0, 1))),
}


@st.composite
def lattice_units(draw):
    """(units, kind): units (degree, key), the first of degree 1, whose
    doubled x and y exponents lie on a lattice of the kind (odd ones are
    half-integers) moved by a slope per degree (negative ones Laurent);
    kind "three" draws t too, on all of Z^3."""
    kind = draw(st.sampled_from(sorted(LATTICES) + ["three"]))
    ij = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
    if kind == "three":
        point = st.tuples(exponent, exponent, exponent)
    else:
        basis = draw(LATTICES[kind])
        point = ij.map(lambda c: tuple(c[0] * u + c[1] * v
                                       for u, v in zip(*basis)))
    slope = draw(point)
    units = []
    for d in [1] + draw(st.lists(st.integers(1, 3), max_size=4)):
        e = draw(point)
        units.append((d, (0, 0) + (0,) * (3 - len(e)) + tuple(
            a + d * s for a, s in zip(e, slope))))
    return units, kind


def product_map(draw, units, n, coeff=coefficient):
    """A {key: coeff} map of degree n whose keys are products of units."""
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        key, d = (0,) * 5, 0
        for du, k in draw(st.lists(st.sampled_from(units), max_size=3)):
            if d + du <= n:
                key, d = tuple(map(add, key, k)), d + du
        pad = units[0][1]  # of degree 1
        terms[tuple(a + (n - d) * b for a, b in zip(key, pad))] = \
            draw(coeff)
    return terms


@st.composite
def factor_pair(draw):
    """(units, kind) of lattice_units and two {key: coeff} maps, of degrees
    da and db, whose keys are products of the units."""
    units, kind = draw(lattice_units())
    def side():
        d = draw(st.integers(1, 3))
        return d, product_map(draw, units, d)
    return (units, kind), side(), side()


def as_series(terms, n):
    """The map of degree n as a q-series: the key with 2n at q."""
    return Series("q", None, {(2 * n,) + key[1:]: c
                              for key, c in terms.items()})


@settings(max_examples=200, deadline=None)
@given(factor_pair(), st.sampled_from((0, 256, 1 << 40)))
def test_kronecker_product_matches_mul_add_and_tuple_keys(pair, factor_bits):
    # on every kind of lattice: each map round-trips through its slots,
    # and the product of the ints is the product of the tuple keys, by
    # the factor of b's int and by the one built from b's slot map
    (units, kind), (da, a), (db, b) = pair
    event(kind)
    expected = as_series(a, da) * as_series(b, db)
    # no digit of a, of b or of the product outgrows this
    sa, sb = sum(map(abs, a.values())), sum(map(abs, b.values()))
    bound = max(sa * sb, sa, sb)
    lay, saved = Kronecker(units, da + db, bound), layouts.FACTOR_BITS
    for terms, n in ((a, da), (b, db)):
        assert read(lay, [0] * n + [packed(lay, terms, n)]) == \
            as_series(terms, n).terms
    layouts.FACTOR_BITS = factor_bits  # one int, or a shift-add per term
    try:
        factors = (lay.factor(packed(lay, b, db)), lay.slot_factor(
            {lay.slot(key, db): c for key, c in b.items()}))
    finally:
        layouts.FACTOR_BITS = saved
    for factor in factors:
        value = lay.mul_add(0, packed(lay, a, da), factor)
        got = read(lay, [0] * (da + db) + [value])
        assert Series("q", None, got) == expected


@settings(max_examples=200, deadline=None)
@given(lattice_units(), st.integers(1, 6))
def test_slot_is_linear_on_the_units(case, order):
    # plethystic_exp puts psi_j of a unit at j times the unit's slot
    units, kind = case
    event(kind)
    lay = Kronecker(units, order, 1)
    for d, key in units:
        for j in range(1, order // d + 1):
            assert lay.slot(tuple(j * e for e in key), j * d) == \
                j * lay.slot(key, d)


def divmod_read(lay, coeffs, ti):
    """The {key: coeff} map of the ints coeffs, by one balanced digit and one divmod per variable per term: each
    digit is the value's remainder mod 2^width, taken in (-half, half], and
    each slot's phi is split by the strides, outermost first."""
    out, w, g = {}, lay.width, lay.g
    for n, value in enumerate(coeffs):
        base = [0] * 5
        base[ti] = 2 * n
        for v, slope in lay.slopes:
            base[v] = n * slope
        i = 0
        while value:
            c = value & (1 << w) - 1
            if c >= 1 << w - 1:
                c -= 1 << w
            if c:
                key, rest = base[:], i * g
                for v, step, _, stride in reversed(lay.vars):
                    j, rest = divmod(rest, stride)
                    key[v] += j * step
                out[tuple(key)] = c
            value, i = (value - c) >> w, i + 1
    return out


@st.composite
def read_case(draw):
    """(kind, layout, {n: terms}): units of a lattice_units kind, of a
    three-variable box, or all at their slope (no varying variable), a
    bound of 1 to 6, 8, 9 or 11 bytes, and a {key: coeff} map of each degree
    up to the order, empty at any of them, with digits up to +-bound."""
    kind = draw(st.sampled_from(("lattice", "box", "slopes")))
    if kind == "lattice":
        units, kind = draw(lattice_units())
    elif kind == "box":  # 1, t^a, x^b and y^c
        step = st.integers(1, 3).flatmap(lambda a: st.sampled_from((a, -a)))
        units = [(1, (0,) * 5)] + [
            (1, tuple(draw(step) if i == v else 0 for i in range(5)))
            for v in (2, 3, 4)]
    else:
        slope = (0, 0) + draw(st.tuples(exponent, exponent, exponent))
        units = [(d, tuple(d * e for e in slope))
                 for d in [1] + draw(st.lists(st.integers(1, 3),
                                              max_size=3))]
    nbytes = draw(st.sampled_from((1, 2, 3, 4, 5, 6, 8, 9, 11)))
    bound = draw(st.integers(2 ** (8 * nbytes - 8) if nbytes > 1 else 1,
                             2 ** (8 * nbytes - 1) - 1))
    order = draw(st.integers(0, 4))
    lay = Kronecker(units, order, bound)
    assert lay.nbytes == nbytes
    digit = st.one_of(st.sampled_from((bound, -bound, 0)),
                      st.integers(-bound, bound))
    return kind, lay, {n: product_map(draw, units, n, digit)
                       for n in range(order + 1)}


def width_case(nbytes):
    """A read_case with slots of nbytes bytes: digits of both signs at the
    bound and at 1, an empty degree, and an empty slot between two full
    ones."""
    bound = 2 ** (8 * nbytes - 1) - 1
    lay = Kronecker([(1, (0,) * 5), (1, (0, 0, 0, 2, 0))], 3, bound)
    assert lay.nbytes == nbytes
    return "box", lay, {
        0: {(0,) * 5: -1}, 1: {(0, 0, 0, 2, 0): bound}, 2: {},
        3: {(0,) * 5: -bound, (0, 0, 0, 4, 0): 1, (0, 0, 0, 6, 0): -1}}


@settings(max_examples=200, deadline=None)
@given(read_case(), st.sampled_from((0, 1)))
@example(width_case(1), 0)  # slots read by one memoryview cast
@example(width_case(3), 1)  # widened to 8 bytes with the sign byte
@example(width_case(5), 0)
@example(width_case(8), 1)
@example(width_case(9), 0)  # past 8 bytes: one slice per digit
@example(width_case(11), 1)
@example(("slopes", Kronecker([(1, (0, 0, 0, 3, -1)), (2, (0, 0, 0, 6, -2))],
                              2, 127),
          {0: {(0,) * 5: 0}, 1: {(0, 0, 0, 3, -1): -127},
           2: {(0, 0, 0, 6, -2): 127}}), 1)
@example(("box", Kronecker([(1, (0,) * 5), (1, (0, 0, 1, 0, 0)),
                            (1, (0, 0, 0, -2, 0)), (1, (0, 0, 0, 0, 3))],
                           2, 2**71 - 1),
          {0: {(0,) * 5: 2**71 - 1}, 1: {},
           2: {(0, 0, 1, -2, 0): 1 - 2**71, (0, 0, 0, 0, 6): 5}}), 0)
@example(("lattice", Kronecker([(1, (0,) * 5), (3, (0, 0, 0, -1, 1))], 1, 1),
          {0: {(0,) * 5: 1}, 1: {(0,) * 5: -1}}), 0)  # an outer stride of 1
def test_read_matches_the_divmod_decoder(case, ti):
    # every degree's int, zero ones included, decodes to its map with the
    # counting exponent at ti, as the per-term divmod decoder reads it: a
    # packed series renders it from its key columns, in slot order, as the
    # reference renderer does from sorted keys, and builds its terms from
    # them.  Decoding drops each int from coeffs
    kind, lay, maps = case
    event(kind)
    if kind == "slopes":
        assert lay.vars == []
    coeffs = [packed(lay, terms, n) for n, terms in maps.items()]
    expected = divmod_read(lay, coeffs, ti)
    var, order = VARS[ti], len(maps) - 1
    s = Series.from_layout(var, order, lay, coeffs)
    assert coeffs == [None] * len(maps)
    assert s.is_integral()
    assert str(s) == ref_render(Series(var, order, expected))
    assert s.terms == expected
    assert s.terms == {key[:ti] + (2 * n,) + key[ti + 1:]: c
                       for n, terms in maps.items()
                       for key, c in terms.items() if c}
    assert str(s) == ref_render(s)  # now from the dict of its terms


def ints(lay, maps):
    """The ints of a {n: {key: coeff}} map of each degree in lay."""
    return [packed(lay, terms, n) for n, terms in maps.items()]


@st.composite
def packed_pair(draw):
    """Two sides (var, order, layout, maps) over one set of lattice_units:
    the second on the first's layout, on one of another width (the same
    slot map), or at a higher order or with one more unit (a map that may
    differ); with the first's maps, one coefficient redrawn, or one term
    moved a degree up; in the same or the other counting variable, at the
    same or a higher order."""
    units, kind = draw(lattice_units())
    order = draw(st.integers(0, 3))
    maps = {n: product_map(draw, units, n) for n in range(order + 1)}
    bound = max([1] + [abs(c) for terms in maps.values()
                       for c in terms.values()])
    lay = Kronecker(units, order, bound)
    how = draw(st.sampled_from(("same", "width", "order", "unit")))
    other = {"same": lambda: lay,
             "width": lambda: Kronecker(units, order, bound << 16),
             "order": lambda: Kronecker(units, order + 1, bound),
             "unit": lambda: Kronecker(
                 units + [draw(lattice_units())[0][0]], order, bound)}[how]()
    moved = {n: dict(terms) for n, terms in maps.items()}
    full = [n for n, terms in moved.items() if terms]
    change = draw(st.sampled_from(("none", "coeff", "degree")))
    if change != "none" and full:
        n = draw(st.sampled_from(full))
        key = draw(st.sampled_from(sorted(moved[n])))
        c = moved[n].pop(key)
        if change == "coeff":
            moved[n][key] = draw(st.integers(-bound, bound))
        elif n < order:  # a product of units at degree n + 1 too
            key = tuple(map(add, key, units[0][1]))
            moved[n + 1][key] = moved[n + 1].get(key, 0) + c
            if abs(moved[n + 1][key]) > bound:
                moved[n + 1][key] = c
    var = draw(st.sampled_from(("q", "p")))
    var2 = draw(st.sampled_from((var, var, "q" if var == "p" else "p")))
    order2 = draw(st.sampled_from((order, order, order + 1)))
    event("%s %s, %s" % (kind, how, change))
    return (var, order, lay, maps), (var2, order2, other, moved)


@settings(max_examples=300, deadline=None)
@given(packed_pair())
def test_packed_equality_is_dict_equality(pair):
    # == on two packed series, by their slots and digits where the layouts
    # map slots to keys alike, is == on the maps the divmod decoder reads
    sides = [Series.from_layout(var, order, lay, ints(lay, maps))
             for var, order, lay, maps in pair]
    dicts = [Series(var, order, divmod_read(lay, ints(lay, maps),
                                            VARS.index(var)))
             for var, order, lay, maps in pair]
    event("same map" if pair[0][2].maps_like(pair[1][2]) else "other map")
    expected = dicts[0] == dicts[1]
    event("equal" if expected else "unequal")
    assert (sides[0] == sides[1]) is expected
    assert (sides[1] == sides[0]) is expected
    assert [s.terms for s in sides] == [s.terms for s in dicts]


def test_packed_series_compare_by_degree_and_the_whole_slot_map():
    # two layouts with the same vars and slopes but g = 1 and g = 2: slot
    # 1 of degree 1 is x^(-1) y^(-1/2) q in one and x^(-1) q in the other
    a = Kronecker([(1, (0, 0, 0, -2, -2)), (1, (0, 0, 0, -2, -1)),
                   (1, (0, 0, 0, -1, -2))], 2, 1)
    b = Kronecker([(1, (0, 0, 0, -2, -2)), (1, (0, 0, 0, -1, -1)),
                   (1, (0, 0, 0, 0, -2))], 2, 1)
    assert (a.vars, a.slopes, a.g) == (b.vars, b.slopes, 1) and b.g == 2
    wide = Kronecker([(1, (0, 0, 0, -2, -2)), (1, (0, 0, 0, -2, -1)),
                      (1, (0, 0, 0, -1, -2))], 2, 2**40)
    assert a.maps_like(wide) and not a.maps_like(b) and a.width < wide.width

    def one(lay, n):  # the digit 1 at slot 1 of degree n
        return Series.from_layout("q", 2, lay, [0] * n + [1 << lay.width])

    assert str(one(a, 1)) == "x^(-1)*y^(-1/2)*q"
    assert str(one(b, 1)) == "x^(-1)*q"
    assert str(one(a, 2)) == "x^(-2)*y^(-3/2)*q^2"
    pairs = ((one(a, 1), one(b, 1), False), (one(a, 1), one(a, 2), False),
             (one(a, 1), one(wide, 1), True), (one(a, 2), one(a, 2), True))
    for s, t, equal in pairs:
        assert (s == t) is equal and (t == s) is equal
    # the equal pairs compared packed: neither built its terms
    assert all(s._terms is None and t._terms is None
               for s, t, equal in pairs if equal)
    assert [(s.terms == t.terms) for s, t, _ in pairs] == \
        [equal for _, _, equal in pairs]


@settings(max_examples=200, deadline=None)
@given(read_case(), st.sampled_from((0, 256, 2**60)))
def test_a_slot_map_gives_the_factor_of_its_packed_int(case, factor_bits):
    # zero coefficients, empty maps and every slot width: the factor built
    # from a map is the one factor decodes from its int, in either form
    kind, lay, maps = case
    event(kind)
    saved, layouts.FACTOR_BITS = layouts.FACTOR_BITS, factor_bits
    try:
        for n, terms in maps.items():
            slots = {lay.slot(key, n): c for key, c in terms.items()}
            assert lay.slot_factor(slots) == lay.factor(lay.packed(slots))
    finally:
        layouts.FACTOR_BITS = saved


def test_a_digit_at_the_width_bound_is_exact():
    # a bound of 2^63 has 64 bits: the slots take a sign bit more, so 72
    c = 2**63
    x = (0, 0, 0, 2, 0)
    lay = Kronecker([(1, x)], 1, c)
    assert lay.width == 72
    assert read(lay, [0, packed(lay, {x: c}, 1)]) == {(2, 0, 0, 2, 0): c}
    assert read(lay, [0, packed(lay, {x: -c}, 1)]) == {(2, 0, 0, 2, 0): -c}
    # PE[c x q] = 1 + c x q at order 1: n F_n reaches the bound exactly
    f = Series("q", 1, {(2, 0, 0, 2, 0): c})
    assert plethystic_exp(f) == Series("q", 1, {(0,) * 5: 1,
                                                (2, 0, 0, 2, 0): c})
    f = Series("q", 2, {(2, 0, 0, 2, 0): c - 1, (4, 0, 0, 1, 0): -c})
    assert plethystic_exp(f) == pe_oracle(f)


@given(st.lists(st.integers(0, 40), max_size=8))
def test_euler_transform_is_the_colored_partition_count(colors):
    # the coefficient bound of every sector layout: [q^n] of the product of
    # (1 - q^d)^(-a[d]), here one geometric series 1/(1 - q^d) at a time
    a, order = [0] + colors, len(colors)
    counts = [1] + [0] * order
    for d in range(1, order + 1):
        for _ in range(a[d]):
            for n in range(d, order + 1):
                counts[n] += counts[n - d]
    assert layouts.euler_transform(a, order) == counts


def test_plethystic_exp_refuses_fraction_coefficients():
    # the Kronecker layout holds ints: a Fraction is refused before any
    # layout is built, and so is one Fraction among int terms
    f = Series("q", 3, {(2, 0, 0, 2, 0): Fraction(1, 2)})
    with pytest.raises(SeriesUsageError, match="integer coefficients"):
        plethystic_exp(f)
    f = Series("q", 3, {(2, 0, 0, 0, 0): 1, (4, 0, 0, 2, 0): Fraction(-1, 3)})
    with pytest.raises(SeriesUsageError, match="integer coefficients"):
        plethystic_exp(f)


def test_a_layout_too_sparse_for_its_units_is_refused():
    # units 2^21 apart in x and in y (no common step): a square of 2^46
    # slots for a few dozen monomials is refused before any of it is built
    units = [(1, (0, 0, 0, 1, 0)), (1, (0, 0, 0, 2**21, 0)),
             (1, (0, 0, 0, 0, 1)), (1, (0, 0, 0, 0, 2**21))]
    tracemalloc.start()
    try:
        with pytest.raises(SeriesUsageError, match="spread too far"):
            Kronecker(units, 4, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    f = Series("q", 4, {(2, *key[1:]): 1 for _, key in units})
    with pytest.raises(SeriesUsageError, match="spread too far for order 4"):
        plethystic_exp(f)


def test_the_layout_limit_counts_every_slot_up_to_the_order():
    # one-byte slots, units 1, x and x^e at order 1 (they span all of Z):
    # 2 + e slots in all
    def layout(e):
        return Kronecker([(1, (0,) * 5), (1, (0, 0, 0, 1, 0)),
                          (1, (0, 0, 0, e, 0))], 1, 1)
    assert layout(MAX_LAYOUT_BITS // 8 - 2).width == 8
    with pytest.raises(SeriesUsageError, match="17 MiB"):
        layout(MAX_LAYOUT_BITS // 8 - 1)


@pytest.mark.parametrize("keys, order, stride, g", (
    # 1, xy and x^2 (every pair of one parity): the stride of x rounds up
    # from 4 to 5, so x and y of one parity sit at an even a + 5 b
    ([(0, 0), (1, 1), (2, 0)], 3, 5, 2),
    # 1, xy and y^3 (y = x mod 3): 7 rounds up to 8, and y + 8 x = 0 mod 3
    ([(0, 0), (1, 1), (0, 3)], 2, 8, 3),
    # 1, xy and x^2 y^2 (a line): g = 7 + 1, and (xy)^i sits at slot i
    ([(0, 0), (1, 1), (2, 2)], 3, 7, 8)))
def test_two_variables_divide_by_the_lattice_index(keys, order, stride, g):
    lay = Kronecker([(1, (0, 0, 0, 2 * a, 2 * b)) for a, b in keys],
                    order, 1)
    assert [var[3] for var in lay.vars] == [1, stride]
    assert lay.g == g


def diagonal(n):
    """The Hodge table of P^n: one class at each (p, p)."""
    return ManifoldData("P%d" % n, dim_c=n, hodge=[
        [int(p == q) for q in range(n + 1)] for p in range(n + 1)])


QUINTIC = ManifoldData("quintic", dim_c=3, hodge=[
    [1, 0, 0, 1], [0, 1, 101, 0], [0, 101, 1, 0], [1, 0, 0, 1]])


@pytest.mark.parametrize("name, order, slots", (
    ("k3", 16, 545), ("quintic", 16, 4705), ("P30", 12, 12 * 30 + 1)))
def test_the_top_int_spans_the_lattice_not_the_box(catalog, monkeypatch,
                                                   name, order, slots):
    # every k3 and quintic exponent pair shares one parity, so the top int
    # takes half the box of 33^2 and 97^2 slots; P^30 lies on the diagonal,
    # one slot per point of it
    X = {"quintic": QUINTIC, "P30": diagonal(30)}.get(name) or catalog[name]
    seen = []
    monkeypatch.setattr(ob, "sector_layout",
                        lambda *args, build=ob.sector_layout:
                        seen.append(build(*args)) or seen[-1])
    brute = ob.brute_series("hodge_orb", X, order)
    [layout] = seen
    top = {key: c for key, c in brute.terms.items() if key[0] == 2 * order}
    assert max(layout.slot(key, order) for key in top) + 1 == slots
    assert packed(layout, top, order).bit_length() <= slots * layout.width
    assert brute == ob.closed_series("hodge_orb", X, order)
