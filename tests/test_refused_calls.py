"""A refused call leaves the registry as it was.

Every public construction that allocates auxiliaries checks its arguments
first: a wrong sign, domain, degree, count or parameter, and any number that
is not an exact rational (an int or a Fraction), raise before the first
auxiliary is added.  Each case below builds its inputs on a fresh registry,
then makes the refused call and compares the registry's rows before and after.
Refusals that come from the oracle after a build (the experimental gate,
`verify_after`, the self-checks in czw_count4 and ternary_to_binary) are not
covered: those builds still allocate.
"""

from fractions import Fraction

import pytest

from quadratizer.errors import (
    CommonTooSmall,
    DomainViolation,
    InvalidParameter,
    MixedSigns,
    NonPositivePenalty,
    PairAbsent,
    UnknownGadget,
    VariantRangeViolation,
    WrongDegree,
    WrongSign,
)
from quadratizer.gadgets.base import GADGETS
from quadratizer.gadgets.multi_term import (
    TermGroup,
    fgbz_negative,
    fgbz_positive,
    rosenberg_pair,
    scm_split,
)
from quadratizer.gadgets.single_term import apply_gadget, ntr_abcg2, ntr_kzfd_literals
from quadratizer.gadgets.structured import (
    ExactCSpec,
    czw_count4,
    czw_counting_hamiltonian,
    exact_c_indicator,
    sfr_aux_count,
    sfr_bcr,
    ternary_to_binary,
)
from quadratizer.poly import Domain, VariableRegistry
from quadratizer.rewrites import apply_elc
from quadratizer.textio import parse_polynomial
from quadratizer.verify import check_ternary_encoding, enumerate_min

B, Z, T = Domain.BOOLEAN, Domain.SPIN, Domain.TERNARY
OTHER = {B: Z, Z: B, T: B}


def _rows(registry):
    return [(e.label, e.domain.tag, e.gadget, e.partner) for e in map(registry.entry, registry)]


def _assert_refused(setup, error):
    """`setup(registry)` builds the inputs and returns the call to refuse."""
    registry = VariableRegistry()
    call = setup(registry)
    before = _rows(registry)
    with pytest.raises(error):
        call()
    assert _rows(registry) == before


def _mono(registry, domain, k):
    return tuple((registry.add_variable(domain), 1) for _ in range(k))


def _group(registry, common, tails, coeffs, tail_domain=B):
    """A TermGroup over `common` {0,1} variables, one member per tail size."""
    common = _mono(registry, B, common)
    members = [(tuple(sorted(common + _mono(registry, tail_domain, size))), coeff)
               for size, coeff in zip(tails, coeffs)]
    return TermGroup(tuple(members), common)


def _on_mono(call, domain, k, repeat=False):
    """setup(registry) that calls `call(mono, registry)` on a fresh product of
    k variables of `domain`; `repeat` lists its first variable twice."""
    def setup(r):
        mono = _mono(r, domain, k)
        mono = mono[:1] + mono[:-1] if repeat else mono
        return lambda: call(mono, r)

    return setup


def _catalog_cases():
    """(id, error, setup) for each catalog row, through the row's applier and
    through apply_gadget.  apply_gadget returns the identity below cubic and
    takes no parameters, so those cases go through the applier only."""
    cases = []
    for name, row in GADGETS.items():
        good = 1 if row.sign == "positive" else -1
        k = max(row.min_degree, 3)
        wrong_degrees = sorted({d for d in (row.min_degree - 1, (row.max_degree or 0) + 1, 4)
                                if d >= 1 and row.degree_error(d)})
        for via in ("apply", "apply_gadget"):
            for what, error, coeff, domain, degree, repeat in (
                ("sign", WrongSign, 0 if row.sign == "any" else -good, row.domain, k, False),
                ("domain", DomainViolation, good, OTHER[row.domain], k, False),
                ("repeat", DomainViolation, good, row.domain, k, True),
                ("float", TypeError, float(good), row.domain, k, False),
                ("str", TypeError, str(good), row.domain, k, False),
                *((f"degree{d}", WrongDegree, good, row.domain, d, False)
                  for d in wrong_degrees if via == "apply" or d > 2),
            ):
                if via == "apply":
                    call = lambda m, r, row=row, coeff=coeff: row.apply(coeff, m, r)
                else:
                    call = lambda m, r, name=name, coeff=coeff: apply_gadget(name, coeff, m, r)
                setup = _on_mono(call, domain, degree, repeat)
                cases.append((f"{name}-{via}-{what}", error, setup))
    for name, param, error in (
        ("ntr_abcg2", 0, InvalidParameter),
        ("ntr_abcg2", 2.5, TypeError),
        ("ntr_abcg2", "5/2", TypeError),
        ("ntr_gbp", 4, InvalidParameter),
        ("ptr_gbp", 0, InvalidParameter),
    ):
        row = GADGETS[name]
        coeff = 1 if row.sign == "positive" else -1
        call = lambda m, r, row=row, coeff=coeff, param=param: row.apply(coeff, m, r, param)
        cases.append((f"{name}-apply-{param!r}", error, _on_mono(call, row.domain, 3)))
    call = lambda m, r: apply_gadget("nope", -1, m, r)
    cases.append(("apply_gadget-unknown", UnknownGadget, _on_mono(call, B, 3)))
    return cases


def _literals(coeff, pos, neg, domain=B, overlap=False):
    def setup(r):
        vars = [r.add_variable(domain) for _ in range(pos + neg)]
        pos_vars, neg_vars = vars[:pos], vars[pos:]
        if overlap:
            neg_vars = neg_vars + pos_vars[:1]
        return lambda: ntr_kzfd_literals(coeff, pos_vars, neg_vars, r)

    return setup


def _on_text(text, call):
    """setup(registry) that calls `call(p)` on `text` parsed into the registry."""
    def setup(r):
        p = parse_polynomial(text, r)
        return lambda: call(p)

    return setup


def _rosenberg(text, pair, penalty="auto"):
    return _on_text(text, lambda p: rosenberg_pair(p, *pair, penalty=penalty))


def _fgbz(apply, *group_args, **group_kwargs):
    def setup(r):
        group = _group(r, *group_args, **group_kwargs)
        return lambda: apply(group, r)

    return setup


def _sfr(variant, n, c, gamma=1, count=None):
    def setup(r):
        vars = [r.add_variable(B) for _ in range(n if count is None else count)]
        return lambda: sfr_bcr(variant, ExactCSpec(n, c, gamma), vars, r)

    return setup


def _indicator(n, c):
    def setup(r):
        vars = [r.add_variable(B) for _ in range(4)]
        return lambda: exact_c_indicator(ExactCSpec(n, c), vars, r)

    return setup


def _czw(lam, bias, count=4, domain=B):
    def setup(r):
        vars = [r.add_variable(domain) for _ in range(count)]
        if bias is None:
            return lambda: czw_counting_hamiltonian(vars, r)
        return lambda: czw_count4(lam, bias, vars, r)

    return setup


def _ternary(lam, var=2):
    """ternary_to_binary on `t1 b1 - 2 t1 + b2`, where b1, b2, t1 are 0, 1, 2."""
    return _on_text("t1 b1 - 2 t1 + b2", lambda p: ternary_to_binary(p, var, lam))


def _ternary_encoding(lam):
    def setup(r):
        p = parse_polynomial("t1 b1 - 2 t1", r)
        output = ternary_to_binary(p, 1, 2, verify=False)
        return lambda: check_ternary_encoding(p, output, 1, r.auxiliaries(), lam)

    return setup


CASES = _catalog_cases() + [
    ("literals-sign", WrongSign, _literals(1, 2, 1)),
    ("literals-float", TypeError, _literals(-0.5, 2, 1)),
    ("literals-overlap", InvalidParameter, _literals(-1, 2, 1, overlap=True)),
    ("literals-empty", InvalidParameter, _literals(-1, 0, 0)),
    ("literals-domain", DomainViolation, _literals(-1, 2, 1, domain=Z)),
    ("rosenberg-absent", PairAbsent, _rosenberg("b1 b2 b3 + b4", (0, 3))),
    ("rosenberg-below", InvalidParameter, _rosenberg("- 5 b1 b2 b3", (0, 1), 3)),
    ("rosenberg-zero", NonPositivePenalty, _rosenberg("- 5 b1 b2 b3", (0, 1), 0)),
    ("rosenberg-float", TypeError, _rosenberg("- 5 b1 b2 b3", (0, 1), 7.5)),
    ("fgbz_negative-small", CommonTooSmall, _fgbz(fgbz_negative, 1, (2, 2), (-1, -1))),
    ("fgbz_negative-signs", MixedSigns, _fgbz(fgbz_negative, 2, (1, 1), (-1, 2))),
    ("fgbz_negative-tail", DomainViolation, _fgbz(fgbz_negative, 2, (1, 2), (-1, -2), Z)),
    ("fgbz_negative-float", TypeError, _fgbz(fgbz_negative, 2, (1, 1), (-1, -0.5))),
    ("fgbz_positive-signs", MixedSigns, _fgbz(fgbz_positive, 1, (1, 2), (1, -1))),
    ("fgbz_positive-tail", DomainViolation, _fgbz(fgbz_positive, 1, (1, 2), (1, 2), Z)),
    ("fgbz_positive-float", TypeError, _fgbz(fgbz_positive, 1, (1, 1), (0.5, 1))),
    ("sfr_bcr-variant", InvalidParameter, _sfr(5, 6, 4)),
    ("sfr_bcr-count", InvalidParameter, _sfr(1, 6, 4, count=5)),
    ("sfr_bcr-c", VariantRangeViolation, _sfr(1, 6, 7)),
    ("sfr_bcr-c-variant", VariantRangeViolation, _sfr(1, 6, 2)),
    ("sfr_bcr-gamma-zero", InvalidParameter, _sfr(1, 6, 4, gamma=0)),
    ("sfr_bcr-gamma-negative", InvalidParameter, _sfr(3, 6, 4, gamma=-1)),
    ("sfr_bcr-gamma-float", TypeError, _sfr(1, 6, 4, gamma=0.5)),
    ("sfr_bcr-gamma-str", TypeError, _sfr(2, 6, 2, gamma="1/2")),
    # a count must be an int: a float or a bool once reached bit_length or a trace
    ("sfr_bcr-variant-float", TypeError, _sfr(1.0, 4, 2)),
    ("sfr_bcr-variant-bool", TypeError, _sfr(True, 4, 2)),
    ("sfr_bcr-n-float", TypeError, _sfr(1, 4.0, 2, count=4)),
    ("sfr_bcr-c-float", TypeError, _sfr(1, 4, 2.0)),
    ("sfr_bcr-c-bool", TypeError, _sfr(2, 2, True)),
    ("sfr_aux_count-c-float", TypeError, lambda r: lambda: sfr_aux_count(3, ExactCSpec(4, 2.0))),
    ("exact_c_indicator-c-float", TypeError, _indicator(4, 2.0)),
    ("counting-count", InvalidParameter, _czw(None, None, count=3)),
    ("counting-domain", DomainViolation, _czw(None, None, domain=Z)),
    ("czw_count4-preset", InvalidParameter, _czw(None, "nope")),
    ("czw_count4-count", InvalidParameter, _czw(None, "b1b2b3b4", count=3)),
    ("czw_count4-bias", InvalidParameter, _czw(None, (1, 0, 0))),
    ("czw_count4-lam-zero", InvalidParameter, _czw(0, "b1b2b3b4")),
    ("czw_count4-lam-float", TypeError, _czw(2.5, "b1b2b3b4")),
    ("czw_count4-bias-float", TypeError, _czw(None, (0.5, 0, 0, 0))),
    ("ternary-domain", DomainViolation, _ternary(2, var=0)),
    ("ternary-lam-zero", InvalidParameter, _ternary(0)),
    ("ternary-lam-float", TypeError, _ternary(2.5)),
]


@pytest.mark.parametrize("error, setup", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_a_refused_call_leaves_the_registry_as_it_was(error, setup):
    _assert_refused(setup, error)


# Each entry point that takes a caller's number: x -> setup(registry).
INEXACT_ENTRY_POINTS = {
    "sign_error": lambda x: lambda r: lambda: GADGETS["ntr_kzfd"].sign_error(x),
    "apply_gadget": lambda x: _on_mono(lambda m, r: apply_gadget("ntr_kzfd", x, m, r), B, 3),
    "ntr_abcg2-scale_c": lambda x: _on_mono(lambda m, r: ntr_abcg2(-1, m, r, x), B, 3),
    "ntr_kzfd_literals": lambda x: _literals(x, 2, 1),
    "rosenberg_pair": lambda x: _rosenberg("- 5 b1 b2 b3", (0, 1), x),
    "scm_split": lambda x: _on_mono(lambda m, r: scm_split(x, m, r), B, 3),
    "czw_count4-bias": lambda x: _czw(None, (x, 0, 0, 0)),
    "czw_count4-lam": lambda x: _czw(x, "b1b2b3b4"),
    "sfr_bcr-gamma": lambda x: _sfr(1, 6, 4, gamma=x),
    "ternary_to_binary-lam": _ternary,
    "check_ternary_encoding-lam": _ternary_encoding,
    "apply_elc-alpha": lambda x: _on_text("5 b1 b2 - b1 - b2",
                                          lambda p: apply_elc(p, {0: 1, 1: 1}, alpha=x)),
    "enumerate_min-cap": lambda x: _on_text("b1 b2 b3", lambda p: enumerate_min(p, x)),
}


@pytest.mark.parametrize("value", [0.1, "1/3"])
@pytest.mark.parametrize("entry", sorted(INEXACT_ENTRY_POINTS))
def test_inexact_numbers_are_refused_before_any_allocation(entry, value):
    """A float or a string where an exact rational is wanted raises TypeError,
    as Polynomial(...) does for a coefficient, and allocates nothing."""
    _assert_refused(INEXACT_ENTRY_POINTS[entry](value), TypeError)
