"""Explicit analytic objects of the invariant exponential-inequality toolkit.

Radial cap profiles, invariant Green functions with their regular constants,
and the glued near-extremal test family. Every singular construction has a
semi-analytic radial evaluation path next to its mesh-sampled one.
"""

from .radial import RadialModel, radial_model, radial_integral, log_integral_exp
from .moser import (
    MoserSequence,
    MoserReport,
    min_orbit_separation,
    moser_evaluate,
    moser_semianalytic_log_value,
)
from .green import (
    GreenError,
    GreenDecomposition,
    green_solve,
    extract_A,
    richardson_pair,
    green_l2_norm_sq,
    upper_bound_formula,
    upper_bound_value,
    invariant_shifted_solver,
)
from .family import (
    FamilyError,
    TestFunctionFamily,
    LowerBoundReport,
    build_test_family,
    test_family_lower_bound,
)

__all__ = [
    "RadialModel",
    "radial_model",
    "radial_integral",
    "log_integral_exp",
    "MoserSequence",
    "MoserReport",
    "min_orbit_separation",
    "moser_evaluate",
    "moser_semianalytic_log_value",
    "GreenError",
    "GreenDecomposition",
    "green_solve",
    "extract_A",
    "richardson_pair",
    "green_l2_norm_sq",
    "upper_bound_formula",
    "upper_bound_value",
    "invariant_shifted_solver",
    "FamilyError",
    "TestFunctionFamily",
    "LowerBoundReport",
    "build_test_family",
    "test_family_lower_bound",
]
