"""The input description of a closed manifold X, and every rule on it.

ManifoldData takes the fields of a manifold file, checks each input rule on
them, the pairing's last, and stores the tables as GradedDims.  The classes
of H*(X) are numbered consecutively in degree order straight from the Betti
table (classes(X) gives each shifted degree's first id and count; shifted
degree = degree - d for a 2d-dimensional X, so the intersection pairing has
degree 0), and a pairing is a sparse {(i, j): value} over those ids, built
from the counts alone: pairing_from_blocks parses a given one as X is built,
and default_pairing builds the default only when a Fock space asks for it.
"""

import re
from fractions import Fraction

from .graded import GradedDims, is_count


class InputError(ValueError):
    """Input at fault: a bad file or schema, or an inapplicable kind."""


class ManifoldData:
    """Input description of a closed manifold X, from the fields of a
    manifold file: ints dim_real and dim_c, a Betti list, Hodge rows h[p][q]
    and the B-table's, square with dim_c + 1 ints, a bool and pairing
    blocks.  Every rule on them is checked here, for files and library
    callers alike, and the tables are stored as GradedDims, degrees
    doubled: the Betti table puts degree d at (d, 0).  `hodge_b` holds the
    dimensions of the polyvector-field Dolbeault groups H^q(X, Lambda^p
    TX), indexed like a Hodge table at (p, q).  With a Hodge table,
    dim_real and betti default to 2 dim_c and its Betti numbers; without
    one, dim_c is checked against dim_real and dropped.  A given pairing is
    stored parsed, as pairing_from_blocks returns it; None leaves the
    default to the Fock space.  Once built, every field is read-only, so
    no value reaches the Fock space or the builders unchecked.
    """

    def __init__(self, name, dim_real=None, betti=None, dim_c=None,
                 hodge=None, hodge_b=None, calabi_yau=False, pairing=None):
        self.name = name
        self.dim_real = dim_real
        self.betti = betti
        self.dim_c = dim_c
        self.hodge = hodge
        self.hodge_b = hodge_b
        self.calabi_yau = calabi_yau
        self.pairing = pairing
        self._validate()
        self._built = True

    def __setattr__(self, name, value):
        if getattr(self, "_built", False):
            raise AttributeError("ManifoldData values are read-only once "
                                 "built")
        object.__setattr__(self, name, value)

    def _validate(self):
        name = self.name
        if not isinstance(name, str) or "".join(name.splitlines()) != name:
            raise ValueError("name must be a string without line breaks")
        for key, d in (("dim_c", self.dim_c), ("dim_real", self.dim_real)):
            if d is not None and not is_count(d):
                raise ValueError("%s must be a nonnegative integer" % key)
        if not isinstance(self.calabi_yau, bool):
            raise ValueError("calabi_yau must be true or false")
        if self.betti is not None:
            # the one row [b_0, b_1, ...] sits at (0, d): collapse moves it
            self.betti = GradedDims.from_rows("betti", [self.betti]).collapse()
        if self.hodge is not None:
            if self.dim_c is None:
                raise ValueError("a Hodge table needs dim_c")
            self.hodge = GradedDims.from_rows("hodge", self.hodge,
                                              self.dim_c + 1)
            if self.dim_real is None:
                self.dim_real = 2 * self.dim_c
            if self.betti is None:
                self.betti = self.hodge.collapse()
        elif self.betti is None:
            raise ValueError("need one of 'betti' or 'hodge'")
        elif self.dim_real is None:
            raise ValueError("a Betti vector needs dim_real")
        if self.dim_c is not None and 2 * self.dim_c != self.dim_real:
            raise ValueError("dim_real inconsistent with dim_c")
        if self.dim_real % 2:
            raise ValueError("dim_real must be a nonnegative even integer")
        if any(d > 2 * self.dim_real for d, _ in self.betti.dims):
            raise ValueError("Betti degree out of range")
        if self.hodge is None:
            # default_order reads dim_c == 2 as a surface with Hodge data
            self.dim_c = None
        elif self.hodge.collapse() != self.betti:
            raise ValueError("Betti numbers disagree with the Hodge table")
        if self.calabi_yau and self.hodge is None:
            raise ValueError("a Calabi-Yau input needs a Hodge table")
        if self.hodge_b is not None:
            if self.hodge is None:
                raise ValueError("a B-table needs a Hodge table")
            self.hodge_b = GradedDims.from_rows("hodgeB", self.hodge_b,
                                                self.dim_c + 1)
        elif self.calabi_yau:
            self.hodge_b = derive_B_table(self)
        if self.pairing is not None:
            self.pairing = pairing_from_blocks(self, self.pairing)

    # -- numeric invariants --------------------------------------------------

    @property
    def m(self):
        return self.dim_real // 2

    def euler(self):
        """Alternating sum of the Betti numbers, read off the table here
        and not from the super signs of GradedDims.blocks, which only the
        brute sector sums read."""
        return sum(-b if d % 4 else b for (d, _), b in self.betti.dims.items())

    def __repr__(self):
        return "ManifoldData(%r)" % self.name


def derive_B_table(X):
    """B-table of a Calabi-Yau manifold: h^{-p,q} = h^{d-p,q}, d = dim_C."""
    d2 = 2 * X.dim_c
    return GradedDims({(d2 - p, q): h for (p, q), h in X.hodge.dims.items()})


def classes(X):
    """The classes of H*(X), numbered consecutively in degree order, as
    {shifted degree: (first id, count)} over the nonzero Betti numbers."""
    first, out = 0, {}
    for (dd, _), b in sorted(X.betti.dims.items()):
        out[dd // 2 - X.m] = first, b
        first += b
    return out


def default_pairing(X):
    """Identity blocks between opposite shifted degrees, mirrored with the
    Koszul sign; standard symplectic middle block (1 at (2k, 2k+1), -1 at
    (2k+1, 2k)) when the middle parity is odd, identity when it is even.

    Needs Poincare duality (matching dimensions in opposite degrees); an
    odd middle block of odd dimension admits no nondegenerate antisymmetric
    form and is rejected.  Returns {(i, j): value} over class ids.
    """
    cls = classes(X)
    if any(n != cls.get(-j, (0, 0))[1] for j, (_, n) in cls.items()):
        raise InputError("default pairing needs Poincare duality on %s"
                         % X.name)
    eta = {}
    for j, (a, n) in cls.items():
        if j > 0:
            break
        if j == 0 and X.m % 2:
            if n % 2:
                raise InputError("odd middle block of odd dimension has no "
                                 "nondegenerate antisymmetric pairing")
            for i in range(a, a + n, 2):
                eta[i, i + 1], eta[i + 1, i] = 1, -1
            continue
        # an even middle degree (b == a) pairs each class with itself
        b, sign = cls[-j][0], -1 if (X.m + j) % 2 else 1
        for i in range(n):
            eta[a + i, b + i], eta[b + i, a + i] = 1, sign
    return eta


def _parse_entry(x):
    if type(x) is int:  # not a bool
        return x
    # a sign, digits and an optional /digits: Fraction alone would also
    # take "0.5", "1e3" and surrounding blanks
    if isinstance(x, str) and re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", x):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError("pairing entries must be integers or 'a/b' strings, "
                     "not %r" % (x,))


def _invertible(matrix):
    """Whether a square matrix over Q is invertible: eliminate the first
    column by a row with a nonzero entry there, until no row is left."""
    rows = [list(row) for row in matrix]
    while rows:
        i = next((i for i, r in enumerate(rows) if r[0]), None)
        if i is None:
            return False
        pivot = rows.pop(i)
        rows = [[x - Fraction(r[0], pivot[0]) * y
                 for x, y in zip(r[1:], pivot[1:])] for r in rows]
    return True


def pairing_from_blocks(X, blocks):
    """User-supplied pairing: a list of {degree: j, matrix: rows} with rows
    indexing the shifted-degree -j classes and columns the degree +j ones
    (a single square block when j = 0).  Each block must be invertible and
    the middle block graded-symmetric; a block off the middle is mirrored
    with the Koszul sign.  ValueError on anything else, from blocks of the
    wrong JSON shape to a degenerate block."""
    if not (isinstance(blocks, list) and all(
            isinstance(b, dict) and set(b) == {"degree", "matrix"}
            and type(b["degree"]) is int and isinstance(b["matrix"], list)
            and all(isinstance(row, list) for row in b["matrix"])
            for b in blocks)):
        raise ValueError("pairing must be a list of blocks with exactly the "
                         "keys degree (an integer) and matrix (a list of rows)")
    cls, eta, seen = classes(X), {}, set()
    for block in blocks:
        j = block["degree"]
        if abs(j) in seen:
            raise ValueError("pairing block for degree %d given twice" % abs(j))
        mat = [[_parse_entry(x) for x in row] for row in block["matrix"]]
        (a, n), (b, k) = cls.get(-j, (0, 0)), cls.get(j, (0, 0))
        if len(mat) != n or any(len(r) != k for r in mat):
            raise ValueError("pairing block %d has the wrong shape" % j)
        # opposite degrees of different counts pair degenerately
        if n != k or not _invertible(mat):
            raise ValueError("pairing block %d is degenerate" % j)
        sign = -1 if (X.m + j) % 2 else 1
        for r, row in enumerate(mat):
            for c, v in enumerate(row):
                if j == 0 and v != sign * mat[c][r]:
                    raise ValueError(
                        "middle pairing block is not graded-symmetric")
                if v:
                    eta[a + r, b + c] = v
                    if j:
                        eta[b + c, a + r] = sign * v
        seen.add(abs(j))
    for j in cls:
        if abs(j) not in seen:
            raise ValueError("pairing block for degree %d missing" % abs(j))
    return eta
