"""Exact computation of graded value semigroups and Okounkov bodies of
flagged projective hypersurfaces, with finite-generation certification and
toric limit data.  The elliptic-curve submodule, okbody.elliptic, is not
loaded here; it serves only the benchmark's ec_sweep workload."""

from .convex import (RationalPolytope, normal_fan_rays, polytope_equal,
                     polytope_to_json, scaled_simplex)
from .okounkov import (GradedSystem, OkounkovSemigroup, body_estimate,
                       generation_degree, semigroup, semigroup_to_json,
                       vertex_criterion)
from .polynomials import (HomogPoly, graded_monomials,
                          has_projective_common_zero)
from .series import PrecisionError, series_solve_branch
from .valuation import Flag, ZeroSectionError
from .varieties import (CASE_NAMES, CaseStudy, FlagReport,
                        case_study_from_json, case_study_to_json, make_case,
                        make_negative_control, verify_flag)

__version__ = "0.1.0"

__all__ = [
    "CASE_NAMES", "CaseStudy", "Flag", "FlagReport", "GradedSystem",
    "HomogPoly", "OkounkovSemigroup", "PrecisionError", "RationalPolytope",
    "ZeroSectionError", "body_estimate", "case_study_from_json",
    "case_study_to_json", "generation_degree", "graded_monomials",
    "has_projective_common_zero", "make_case", "make_negative_control",
    "normal_fan_rays", "polytope_equal", "polytope_to_json",
    "scaled_simplex", "semigroup", "semigroup_to_json", "series_solve_branch",
    "verify_flag", "vertex_criterion",
]
