"""Exact cohomology rank reports for the generalized 12-fold cut-and-project tilings."""

from .exactfield import (
    LatticeId,
    ParseError,
    QuadRat,
    format_quadrat,
    lattice_member,
    mod_canon,
    parse_quadrat,
)

__version__ = "0.1.0"

__all__ = [
    "LatticeId",
    "ParseError",
    "QuadRat",
    "format_quadrat",
    "lattice_member",
    "mod_canon",
    "parse_quadrat",
    "__version__",
]
