"""Desk-scale discrete logarithms in small-characteristic fields, built on an
elliptic representation of the target extension field."""

from .algebra import (FieldDesc, Poly, ext_make, factor_modulus, field_make,
                      poly_factor)
from .basis import EllipticBasis, build_basis, find_basis, search_curve
from .curve import Curve, Point, TorsionData, semaev3
from .divisor import Divisor, Place, divisor_of, height
from .harvest import build_factor_base, harvest_core
from .psi import psi_eval, verify_relation
from .solve import bsgs_oracle, dlog, solve_core

__version__ = "0.1.0"

__all__ = [
    "Curve", "Divisor", "EllipticBasis", "FieldDesc", "Place",
    "Point", "Poly", "TorsionData", "bsgs_oracle", "build_basis",
    "build_factor_base", "divisor_of", "dlog", "ext_make", "factor_modulus",
    "field_make", "find_basis", "harvest_core", "height", "poly_factor",
    "psi_eval", "search_curve", "semaev3", "solve_core", "verify_relation",
]
