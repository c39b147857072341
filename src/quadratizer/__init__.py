"""quadratizer: exact pseudo-Boolean/spin/ternary polynomials, a catalog of
degree-reduction gadgets, and the brute-force oracle that proves each
transformation's claimed guarantee at desk scale."""

from .errors import QuadratizerError
from .gadgets.base import GadgetDescriptor, GadgetResult, Guarantee
from .pipeline import (
    QuadratizationResult,
    Strategy,
    compare_strategies,
    flip_to_submodular,
    quadratize,
)
from .poly import (
    Assignment,
    Domain,
    Monomial,
    Polynomial,
    QuadraticProfile,
    VariableRegistry,
)
from .textio import (
    format_polynomial,
    parse_polynomial,
    polynomial_from_json,
    polynomial_to_json,
    qubo_from_json,
    qubo_to_json,
)
from .verify import (
    DEFAULT_STATE_CAP,
    CheckStats,
    CostReport,
    VerificationReport,
    check_conditional,
    check_groundstate,
    check_pointwise,
    check_spectrum,
    cost_report,
    enumerate_min,
)

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "CheckStats",
    "CostReport",
    "DEFAULT_STATE_CAP",
    "Domain",
    "GadgetDescriptor",
    "GadgetResult",
    "Guarantee",
    "Monomial",
    "Polynomial",
    "QuadratizationResult",
    "QuadraticProfile",
    "QuadratizerError",
    "Strategy",
    "VariableRegistry",
    "VerificationReport",
    "check_conditional",
    "check_groundstate",
    "check_pointwise",
    "check_spectrum",
    "compare_strategies",
    "cost_report",
    "enumerate_min",
    "flip_to_submodular",
    "format_polynomial",
    "parse_polynomial",
    "polynomial_from_json",
    "polynomial_to_json",
    "quadratize",
    "qubo_from_json",
    "qubo_to_json",
]
