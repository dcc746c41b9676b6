"""Exact-arithmetic toolkit for frieze patterns with coefficients.

Constructs, validates, classifies and exhaustively enumerates friezes
with coefficients, including the full triangle-realization machinery for
classic integer friezes attached to polygon triangulations.
"""

from .classify import (CoeffTuple, classify_triangle, coefficient_witness,
                       decompose_triangle, delta, descent_steps, gamma_t,
                       iceberg_descent, in_coefficient_set, realize_triangle,
                       separating_unit_triangle)
from .core import (ZERO_ENTRY, FriezeMap, PatternGrid, ValidationReport,
                   Violation, check_glide, frieze_from_json, frieze_to_json,
                   grid_from_polygon, normalize_index, scale, to_polygon,
                   validate_local, validate_tame)
from .enumeration import (BoundData, EnumerationBudgetExceeded, enumerate_friezes,
                          quiddity_bound)
from .propagation import (TAU, Mat2, build_pattern,
                          closes_to_negative_identity, closure_product,
                          entry_via_product, eta, mu)
from .ptolemy import ptolemy_holds, verify_all_ptolemy
from .render import render_ascii, render_svg
from .scalars import (DomainSpec, Scalar, ValidationFailure, as_scalar, p_valuation,
                      parse_domain, scalar_from_str, scalar_to_str)
from .triangulation import (Triangulation, accordion, cc_labels_from,
                            cut_subpolygon, enumerate_triangulations,
                            frieze_from_triangulation, glue_three,
                            triangle_label_gcds_divide, triangulation_from_json,
                            triangulation_to_json)

__version__ = "0.1.0"

__all__ = [
    "BoundData", "CoeffTuple", "DomainSpec", "EnumerationBudgetExceeded", "FriezeMap", "Mat2",
    "PatternGrid", "Scalar", "TAU", "Triangulation", "ValidationFailure", "ValidationReport",
    "Violation", "ZERO_ENTRY", "accordion", "as_scalar", "build_pattern",
    "cc_labels_from", "check_glide", "classify_triangle",
    "closes_to_negative_identity", "closure_product", "coefficient_witness",
    "cut_subpolygon", "decompose_triangle", "delta", "descent_steps",
    "entry_via_product", "enumerate_friezes",
    "enumerate_triangulations", "eta", "frieze_from_json",
    "frieze_from_triangulation", "frieze_to_json", "gamma_t",
    "glue_three", "grid_from_polygon", "iceberg_descent",
    "in_coefficient_set", "mu", "normalize_index", "p_valuation",
    "parse_domain", "ptolemy_holds", "quiddity_bound",
    "realize_triangle", "render_ascii", "render_svg", "scalar_from_str",
    "scalar_to_str", "scale", "separating_unit_triangle", "to_polygon",
    "triangle_label_gcds_divide", "triangulation_from_json",
    "triangulation_to_json", "validate_local", "validate_tame",
    "verify_all_ptolemy",
]
