"""F-polynomial invariants of oriented virtual knots from signed Gauss codes."""

from .gauss import Diagram, Entry, parse_gauss, format_gauss
from .invariants import (
    FReport,
    CrossingReport,
    affine_index_polynomial,
    arc_labels,
    dwrithe,
    f_polynomial,
    f_sequence,
    index_support,
    index_value,
    n_writhe,
)
from .laurent import LaurentPoly2, parse_poly

__version__ = "0.1.0"

__all__ = [
    "Diagram",
    "Entry",
    "parse_gauss",
    "format_gauss",
    "LaurentPoly2",
    "parse_poly",
    "FReport",
    "CrossingReport",
    "affine_index_polynomial",
    "arc_labels",
    "dwrithe",
    "f_polynomial",
    "f_sequence",
    "index_support",
    "index_value",
    "n_writhe",
]
