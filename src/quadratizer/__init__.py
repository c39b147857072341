"""quadratizer: exact pseudo-Boolean/spin/ternary polynomials, a catalog of
degree-reduction gadgets, and the brute-force oracle that proves each
transformation's claimed guarantee at desk scale.

The public names are listed once, in _SUBMODULE, and each one imports its
submodule on first access (PEP 562), so `import quadratizer` loads nothing
else.  A resolved name is kept in the package namespace.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULE = {
    "QuadratizerError": "errors",
    **dict.fromkeys(("GadgetDescriptor", "GadgetResult", "Guarantee"), "gadgets.base"),
    **dict.fromkeys(
        ("QuadratizationResult", "Strategy", "compare_strategies", "flip_to_submodular",
         "quadratize"),
        "pipeline",
    ),
    **dict.fromkeys(
        ("Assignment", "Domain", "Monomial", "Polynomial", "QuadraticProfile",
         "VariableRegistry"),
        "poly",
    ),
    **dict.fromkeys(
        ("format_polynomial", "parse_polynomial", "polynomial_from_json", "polynomial_to_json",
         "qubo_from_json", "qubo_to_json"),
        "textio",
    ),
    **dict.fromkeys(
        ("DEFAULT_STATE_CAP", "CheckStats", "CostReport", "VerificationReport",
         "check_conditional", "check_groundstate", "check_pointwise", "check_spectrum",
         "cost_report", "enumerate_min"),
        "verify",
    ),
}

__all__ = sorted(_SUBMODULE)


def __getattr__(name):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SUBMODULE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
