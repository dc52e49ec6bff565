"""Exact engine for the deformed associator of a quantum Lie bracket.

The package computes the associator correction series and its inverse to
any truncation order over the two abstract two-site Casimir letters,
checks the classical bracket identities on exact matrix models of
semisimple Lie algebras, and verifies the deformed antisymmetry, Jacobi
and braid identities by typed conjugation rewriting.
"""

__version__ = "0.1.0"

from .ncalg import Alphabet, NCPoly, Scalar, commutator, parse_poly, parse_scalar, substitute

__all__ = [
    "Alphabet",
    "NCPoly",
    "Scalar",
    "commutator",
    "parse_poly",
    "parse_scalar",
    "substitute",
    "__version__",
]
