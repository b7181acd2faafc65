"""Graded vector spaces as finitely supported dimension maps.

One class, GradedDims, maps a bidegree (p, q) to a dimension.  Degrees live
in (1/2)Z and are stored doubled, matching the series layer.  A Hodge table
sits at its bidegrees (p, q); a Betti table puts degree d at (d, 0).  A
class is even or odd according to its total degree (p + q)/2 mod 2, and
graded symmetric powers are the super ones: even generators multiply
symmetrically, odd generators anticommute (so they square to zero);
blocks lists a table's classes for layouts.symmetric_powers, on which the
brute sector sums build them.

An input table enters once, through from_rows, which checks its rows; the
constructor only drops zero entries, so the internal products build maps
without re-checking them.  A half-integer total degree has no parity:
blocks rejects it.
"""

from collections import Counter

from .series import Series, _VI


def is_count(v):
    """Whether v is a nonnegative int, and not a bool."""
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


class GradedDims:
    """Dimension function on (1/2)Z x (1/2)Z: doubled (p, q) -> dimension."""

    __slots__ = ("dims",)

    def __init__(self, dims):
        self.dims = {k: b for k, b in dims.items() if b}

    @classmethod
    def from_rows(cls, what, rows, size=None):
        """The input table with rows[p][q] at doubled (p, q), checked: size
        rows of size nonnegative ints (not bools), or with size None one
        row of any length, as [betti] is, whose collapse() puts b_d at
        (d, 0).  ValueError, naming the table `what`, on anything else."""
        if not (isinstance(rows, list) and len(rows) == (size or 1) and all(
                isinstance(row, list) and size in (None, len(row))
                and all(map(is_count, row)) for row in rows)):
            raise ValueError("%s must be %s of nonnegative integers" % (
                what, "a %d x %d table" % (size, size) if size else "a list"))
        return cls({(2 * p, 2 * q): h for p, row in enumerate(rows)
                    for q, h in enumerate(row)})

    def __eq__(self, other):
        return isinstance(other, GradedDims) and self.dims == other.dims

    def __repr__(self):
        items = ", ".join("(%g, %g): %d" % (p / 2, q / 2, b)
                          for (p, q), b in sorted(self.dims.items()))
        return "GradedDims({%s})" % items

    def blocks(self, image=lambda p, q, s: ((0, 0, 0, p, q), s)):
        """The blocks (key, e, a) of layouts.symmetric_powers: a class at
        (p, q) of super sign s = (-1)^((p + q)/2) has image(p, q, s) =
        (key, a), and the b classes at (p, q) add s b to the e of the block
        (key, a), so images that agree share one block; by default x^p y^q,
        counted s times.  ValueError on a half-integer total degree."""
        merged = Counter()
        for (p, q), b in sorted(self.dims.items()):
            if (p + q) % 2:
                raise ValueError(
                    "bidegree (%g, %g) has a half-integer total degree, "
                    "which has no parity" % (p / 2, q / 2))
            s = -1 if (p + q) % 4 else 1
            merged[image(p, q, s)] += s * b
        return [(key, e, a) for (key, a), e in merged.items() if e]

    def collapse(self):
        """Collapse to the total grading: (p, q) -> (p + q, 0)."""
        out = {}
        for (p, q), b in self.dims.items():
            out[p + q, 0] = out.get((p + q, 0), 0) + b
        return GradedDims(out)

    def poly(self, x):
        """sum dim x^p y^q as an exact Series: the Poincare polynomial of a
        Betti table with x = "t", the Hodge polynomial with x = "x"."""
        xi, yi = _VI[x], _VI["y"]
        terms = {}
        for (p, q), b in self.dims.items():
            key = [0, 0, 0, 0, 0]
            key[xi] = p
            key[yi] = q
            terms[tuple(key)] = b
        return Series("q", None, terms)
