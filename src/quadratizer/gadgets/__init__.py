"""Quadratization gadget catalog."""

from __future__ import annotations

from fractions import Fraction

from ..poly import Domain, Polynomial, VariableRegistry
from ..verify import DEFAULT_STATE_CAP, VerificationReport, check_claim
from .base import (
    EXPERIMENTAL,
    GADGETS,
    MUST_PASS,
    GadgetDescriptor,
    GadgetResult,
    Guarantee,
)
from .multi_term import (
    TermGroup,
    choose_rosenberg_pair,
    discover_fgbz_groups,
    fgbz_negative,
    fgbz_positive,
    rosenberg_auto_penalty,
    rosenberg_pair,
    scm_split,
    sym_antisym_split,
)
from .single_term import (
    apply_gadget,
    evaluate_experimental,
    experimental_single_term,
    ntr_abcg,
    ntr_abcg2,
    ntr_gbp,
    ntr_kzfd,
    ntr_kzfd_literals,
    ntr_rbl,
    ptr_bcr3,
    ptr_bcr4,
    ptr_bg,
    ptr_gbp,
    ptr_ishikawa,
    ptr_kz,
)
from .structured import (
    CZW_PRESETS,
    ExactCSpec,
    check_ternary_encoding,
    czw_count4,
    czw_counting_hamiltonian,
    exact_c_indicator,
    sfr_aux_count,
    sfr_bcr,
    ternary_to_binary,
)

__all__ = [name for name in dir() if not name.startswith("_")]


def experimental_reports(max_states: int = DEFAULT_STATE_CAP) -> dict:
    """Oracle verdicts for every experimental construction on its canonical
    probe instance.  The verdicts are data: formulas are built exactly as
    printed in their sources, and whatever the enumeration finds is recorded.

    Experimental catalog entries are probed on `min_degree` fresh variables
    of their domain, with coefficient -1 for a negative-term gadget, else +1.
    """
    from ..errors import VerificationFailed  # here, so __all__ stays the catalog's

    reports: dict[str, VerificationReport] = {}
    for descriptor in (d for d in GADGETS.values() if d.status == EXPERIMENTAL):
        registry = VariableRegistry()
        mono = tuple(
            (registry.add_variable(descriptor.domain), 1) for _ in range(descriptor.min_degree)
        )
        coeff = Fraction(-1 if descriptor.sign == "negative" else 1)
        _, reports[descriptor.name] = evaluate_experimental(
            descriptor.name, coeff, mono, registry, max_states
        )

    registry = VariableRegistry()
    vars = [registry.add_variable(Domain.BOOLEAN) for _ in range(4)]
    target = Polynomial.product(registry, vars)
    try:
        result = czw_count4(None, "b1b2b3b4", vars, registry, max_states)
        reports["czw_count4"] = check_claim(
            result.guarantee, target, result.output, result.aux, max_states
        )
    except VerificationFailed as error:
        reports["czw_count4"] = error.report

    registry = VariableRegistry()
    t = registry.add_variable(Domain.TERNARY)
    p = Polynomial.variable(registry, t)
    z1 = len(registry)
    output = ternary_to_binary(p, t, Fraction(10), registry, verify=False)
    reports["ternary_to_binary"] = check_ternary_encoding(
        p, output, t, (z1, z1 + 1), Fraction(10), max_states
    )
    return reports
