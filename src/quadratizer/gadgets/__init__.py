"""Quadratization gadget catalog.

Each public name is listed once, in the table below, and resolved on first
access by the package's one loader (`quadratizer._lazy_names`, PEP 562).
Importing the package loads the single-term gadgets, which fill the catalog
table (`base`), so `GADGETS` is whole whichever module comes first; the
multi-term and structured constructions load on first use, so a default
`quadratize`, which routes single terms only, never compiles them.
"""

from .. import _lazy_names
from ..verify import DEFAULT_STATE_CAP
from . import single_term  # noqa: F401  (fills GADGETS)

_SUBMODULE, __getattr__, __dir__ = _lazy_names(globals(), {
    "base": "EXPERIMENTAL GADGETS MUST_PASS GadgetDescriptor GadgetResult Guarantee",
    "single_term": "apply_gadget evaluate_experimental experimental_single_term ntr_abcg "
                   "ntr_abcg2 ntr_gbp ntr_kzfd ntr_kzfd_literals ntr_rbl ptr_bcr3 ptr_bcr4 "
                   "ptr_bg ptr_gbp ptr_ishikawa ptr_kz",
    "multi_term": "TermGroup choose_rosenberg_pair discover_fgbz_groups fgbz_negative "
                  "fgbz_positive rosenberg_auto_penalty rosenberg_pair scm_split sym_antisym_split",
    "structured": "CZW_PRESETS ExactCSpec check_ternary_encoding czw_count4 "
                  "czw_counting_hamiltonian exact_c_indicator sfr_aux_count sfr_bcr "
                  "ternary_to_binary",
})

__all__ = sorted([*_SUBMODULE, "experimental_reports"])


def experimental_reports(max_states: int = DEFAULT_STATE_CAP) -> dict:
    """Oracle verdicts for every experimental construction on its canonical
    probe instance.  The verdicts are data: formulas are built exactly as
    printed in their sources, and whatever the enumeration finds is recorded.

    Experimental catalog entries are probed on `min_degree` fresh variables
    of their domain, with coefficient -1 for a negative-term gadget, else +1.
    """
    from fractions import Fraction

    from ..poly import Domain, Polynomial, VariableRegistry
    from ..verify import check_claim
    from .base import EXPERIMENTAL, GADGETS
    from .single_term import evaluate_experimental
    from .structured import check_ternary_encoding, czw_count4, ternary_to_binary

    reports = {}
    for descriptor in (d for d in GADGETS.values() if d.status == EXPERIMENTAL):
        registry = VariableRegistry()
        mono = tuple(
            (registry.add_variable(descriptor.domain), 1) for _ in range(descriptor.min_degree)
        )
        coeff = Fraction(-1 if descriptor.sign == "negative" else 1)
        _, reports[descriptor.name] = evaluate_experimental(
            descriptor.name, coeff, mono, registry, max_states
        )

    # czw_count4 is built unchecked and proved here once, so its report is kept
    registry = VariableRegistry()
    vars = [registry.add_variable(Domain.BOOLEAN) for _ in range(4)]
    result = czw_count4(None, "b1b2b3b4", vars, registry, verify=False)
    reports["czw_count4"] = check_claim(
        result.guarantee, Polynomial.product(registry, vars), result.output, result.aux, max_states
    )

    registry = VariableRegistry()
    t = registry.add_variable(Domain.TERNARY)
    p = Polynomial.variable(registry, t)
    output = ternary_to_binary(p, t, Fraction(10), verify=False)
    reports["ternary_to_binary"] = check_ternary_encoding(
        p, output, t, tuple(registry.auxiliaries()), Fraction(10), max_states
    )
    return reports
