"""symprod: exact generating-function engine for symmetric-product invariants.

Computes graded dimensions, Poincare/Hodge polynomials and classical genera
of symmetric products Sym^n(X) and of their sector-decomposed refinements
(X^n, S_n), both by brute-force partition sums over super symmetric powers
and by the closed product/exponential formulas, all with exact int
coefficients and exponents in (1/2)Z, so the identities can be checked
coefficient by coefficient.
Also realizes the Heisenberg-superalgebra action on the associated Fock
space with machine-checked commutation relations.
"""

from .graded import GradedDims
from .manifold import ManifoldData
from .orbifold import SERIES_KINDS, brute_series, closed_series
from .series import Series

__all__ = [
    "GradedDims",
    "ManifoldData",
    "SERIES_KINDS",
    "Series",
    "brute_series",
    "closed_series",
]

__version__ = "0.1.0"
