"""Kazhdan-Lusztig laboratory: exact polynomial tables and theorem scans
for arbitrary Coxeter systems."""

from .coxeter import (
    CapExceededError, CoxeterMatrix, CoxeterSpecError, Element, GroupTable,
    INFINITY, ResourceLimitError, SettingError, canonical_form,
    parse_coxeter_spec,
)
from .hecke import (
    HeckeElt, InvariantError, KLTable, bar_element, mult_b_gen,
    mult_delta_gen,
)
from .laurent import LaurentPoly, leq_coefficientwise
from .parabolic import (
    ANTISPHERICAL, SPHERICAL, FlavorMismatchError, ParabolicContext,
    ParabolicKLTable, act_delta_gen, check_soergel_identification, project,
)
from .verify import (
    CapRequiredError, RouquierTable, SuiteReport, Violation, build_group,
    rouquier_multiplicities, rouquier_shadows, run_identity_suite,
    scan_monotonicity_antispherical, scan_monotonicity_classical,
    scan_monotonicity_inverse, scan_monotonicity_spherical,
)

__version__ = "0.1.0"

__all__ = [
    "ANTISPHERICAL", "CapExceededError", "CapRequiredError", "CoxeterMatrix",
    "CoxeterSpecError", "Element", "FlavorMismatchError", "GroupTable",
    "HeckeElt", "INFINITY", "InvariantError", "KLTable", "LaurentPoly",
    "ParabolicContext", "ParabolicKLTable", "ResourceLimitError",
    "RouquierTable", "SPHERICAL", "SettingError", "SuiteReport",
    "Violation", "act_delta_gen", "bar_element", "build_group",
    "canonical_form", "check_soergel_identification",
    "leq_coefficientwise", "mult_b_gen", "mult_delta_gen",
    "parse_coxeter_spec", "project", "rouquier_multiplicities",
    "rouquier_shadows", "run_identity_suite",
    "scan_monotonicity_antispherical", "scan_monotonicity_classical",
    "scan_monotonicity_inverse", "scan_monotonicity_spherical",
    "__version__",
]
