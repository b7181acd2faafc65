"""Graded vector spaces as finitely supported dimension maps.

One class, GradedDims, maps a bidegree (p, q) to a dimension.  Degrees live
in (1/2)Z and are stored doubled, matching the series layer.  A Hodge table
sits at its bidegrees (p, q); a Betti table puts degree d at (d, 0).  A
class is even or odd according to its total degree (p + q)/2 mod 2, and
graded symmetric powers are the super ones: even generators multiply
symmetrically, odd generators anticommute (so they square to zero).

The constructor only drops zero entries.  Input tables are validated once,
where they enter (ManifoldData), so the internal products build maps without
re-checking them.  A half-integer total degree has no parity: sym_powers
and euler, which need parities, reject it once per block.
"""

from math import comb

from .series import Series, _VI


class GradedDims:
    """Dimension function on (1/2)Z x (1/2)Z: doubled (p, q) -> dimension."""

    __slots__ = ("dims",)

    def __init__(self, dims):
        self.dims = {k: b for k, b in dims.items() if b}

    def __eq__(self, other):
        return isinstance(other, GradedDims) and self.dims == other.dims

    def __repr__(self):
        items = ", ".join("(%g, %g): %d" % (p / 2, q / 2, b)
                          for (p, q), b in sorted(self.dims.items()))
        return "GradedDims({%s})" % items

    def _blocks(self):
        """(p, q, dimension, odd) per bidegree, sorted."""
        blocks = []
        for (p, q), b in sorted(self.dims.items()):
            if (p + q) % 2:
                raise ValueError(
                    "bidegree (%g, %g) has a half-integer total degree, "
                    "which has no parity" % (p / 2, q / 2))
            blocks.append((p, q, b, (p + q) // 2 % 2 == 1))
        return blocks

    def within(self, top_p, top_q):
        """Whether all bidegrees are integers in [0, top_p] x [0, top_q]."""
        return all(p % 2 == q % 2 == 0 and 0 <= p <= 2 * top_p
                   and 0 <= q <= 2 * top_q for p, q in self.dims)

    def euler(self):
        """Alternating sum of dimensions, signed by total degree."""
        return sum(-b if odd else b for _, _, b, odd in self._blocks())

    def shift(self, dp, dq=0):
        """Translate all bidegrees by (dp/2, dq/2) (doubled shifts)."""
        return GradedDims({(p + dp, q + dq): b
                           for (p, q), b in self.dims.items()})

    def mod4(self, both=True):
        """The second degrees, and the first ones when both, reduced mod 4
        (doubled): each Sym^N is that of self with those degrees mod 4,
        which fix every parity and the signs of the genera."""
        out = {}
        for (p, q), b in self.dims.items():
            k = (p % 4 if both else p, q % 4)
            out[k] = out.get(k, 0) + b
        return GradedDims(out)

    def collapse(self):
        """Collapse to the total grading: (p, q) -> (p + q, 0)."""
        out = {}
        for (p, q), b in self.dims.items():
            out[p + q, 0] = out.get((p + q, 0), 0) + b
        return GradedDims(out)

    def sym_powers(self, n):
        """Super symmetric powers Sym^n, Sym^(n-1), ..., Sym^0 from one
        per-block convolution: each even block of dimension b contributes
        multisets (C(b+j-1, j) ways for j particles), each odd block subsets
        (C(b, j) ways).  Exact integer counts.  Being a generator, it raises
        only when advanced: ValueError on n < 0 or a half-integer degree."""
        if n < 0:
            raise ValueError("n must be nonnegative")
        slots = [{} for _ in range(n + 1)]
        slots[0][0, 0] = 1
        blocks = self._blocks()
        for i, (p, q, b, odd) in enumerate(blocks):
            # in place, top down: slots below top still hold the earlier
            # blocks; on the last block each finished slot leaves at once
            for top in range(n, -1, -1):
                tgt = slots[top]
                for j in range(1, top + 1):
                    ways = comb(b, j) if odd else comb(b + j - 1, j)
                    if not ways:
                        break
                    dp, dq = j * p, j * q
                    for (p0, q0), c in slots[top - j].items():
                        k = (p0 + dp, q0 + dq)
                        tgt[k] = tgt.get(k, 0) + c * ways
                if i == len(blocks) - 1:
                    yield GradedDims(slots.pop())
        while slots:  # no blocks: Sym^0 is the unit, the rest vanish
            yield GradedDims(slots.pop())

    def sym_power(self, n):
        """n-th super symmetric power: what sym_powers yields first."""
        return next(self.sym_powers(n))

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
