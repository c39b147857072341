"""quadratizer: exact pseudo-Boolean/spin/ternary polynomials, a catalog of
degree-reduction gadgets, and the brute-force oracle that proves each
transformation's claimed guarantee at desk scale.

One loader, _lazy_names, serves this package and `quadratizer.gadgets`: each
lists its public names once, in a {submodule: "name ..."} table, and each
name imports its submodule on first access (PEP 562), so `import quadratizer`
loads nothing else.  A resolved name is kept in the package namespace.
"""

import importlib

__version__ = "0.1.0"


def _lazy_names(namespace: dict, table: dict):
    """(name -> submodule map, __getattr__, __dir__) for the package whose
    globals are `namespace`, from its {submodule: "name ..."} table."""
    submodule = {name: module for module, names in table.items() for name in names.split()}
    package = namespace["__name__"]

    def __getattr__(name):
        if name not in submodule:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f".{submodule[name]}", package), name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted({*namespace, *submodule})

    return submodule, __getattr__, __dir__


_SUBMODULE, __getattr__, __dir__ = _lazy_names(globals(), {
    "errors": "QuadratizerError",
    "gadgets.base": "GadgetDescriptor GadgetResult",
    "pipeline": "QuadratizationResult Strategy compare_strategies flip_to_submodular quadratize",
    "poly": "Assignment Domain Monomial Polynomial QuadraticProfile VariableRegistry",
    "textio": "format_polynomial parse_polynomial polynomial_from_json polynomial_to_json "
              "qubo_from_json qubo_to_json",
    "verify": "DEFAULT_STATE_CAP CheckStats CostReport Guarantee VerificationReport "
              "check_conditional check_groundstate check_pointwise check_spectrum cost_report "
              "enumerate_min",
})

__all__ = sorted(_SUBMODULE)
