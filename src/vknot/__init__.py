"""F-polynomial invariants of oriented virtual knots from signed Gauss codes."""

from .gauss import Diagram, parse_gauss
from .invariants import FReport, arc_labels, f_sequence
from .laurent import LaurentPoly2, parse_poly

__version__ = "0.1.0"

__all__ = [
    "Diagram",
    "parse_gauss",
    "LaurentPoly2",
    "parse_poly",
    "FReport",
    "arc_labels",
    "f_sequence",
]
