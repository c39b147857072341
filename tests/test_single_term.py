"""Single-term gadget catalog: worked instances, exhaustive sweeps, and the
experimental gate."""

import math
from dataclasses import replace
from fractions import Fraction

import pytest

from quadratizer.errors import (
    DomainViolation,
    EnumerationCapExceeded,
    InvalidParameter,
    NoApplicableGadget,
    UnknownGadget,
    VerificationFailed,
    WrongDegree,
    WrongSign,
)
from quadratizer.gadgets import (
    evaluate_experimental,
    experimental_reports,
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
from quadratizer.gadgets.base import GADGETS, MUST_PASS, Guarantee
from quadratizer.gadgets import single_term
from quadratizer.gadgets.single_term import apply_gadget
from quadratizer.pipeline import Strategy, quadratize
from quadratizer.poly import Domain, Polynomial, VariableRegistry, monomial_degree
from quadratizer.textio import parse_polynomial
from quadratizer.verify import check_groundstate, check_pointwise, enumerate_min

from conftest import pointwise_holds


def boolean_instance(k):
    registry = VariableRegistry()
    ids = [registry.add_variable(Domain.BOOLEAN, f"b{i + 1}") for i in range(k)]
    return registry, ids, tuple((v, 1) for v in ids)


def spin_instance(k):
    registry = VariableRegistry()
    ids = [registry.add_variable(Domain.SPIN, f"z{i + 1}") for i in range(k)]
    return registry, ids, tuple((v, 1) for v in ids)


# ---------------------------------------------------------------------------
# Worked instances


def test_kzfd_six_local_worked_example():
    # -2 b1..b6 + b5b6 keeps its unique minimum -1 at the all-ones point
    registry, ids, mono = boolean_instance(6)
    context = Polynomial.product(registry, ids[4:], 1)
    original = Polynomial(registry, {mono: Fraction(-2)}) + context
    result = ntr_kzfd(Fraction(-2), mono, registry)
    expected = parse_polynomial(
        "10 b7 - 2 b1 b7 - 2 b2 b7 - 2 b3 b7 - 2 b4 b7 - 2 b5 b7 - 2 b6 b7",
        registry,
    )
    assert result.output == expected
    transformed = result.output + context
    minimum, minimizers = enumerate_min(transformed)
    assert minimum == -1
    assert minimizers == [{v: 1 for v in ids + list(result.aux)}]
    original_min, original_argmin = enumerate_min(original)
    assert original_min == -1
    assert original_argmin == [{v: 1 for v in ids}]


def test_kzfd_degenerate_degree_one():
    registry, ids, mono = boolean_instance(1)
    result = ntr_kzfd(Fraction(-1), mono, registry)
    expected = parse_polynomial("- b1 b2", registry)
    assert result.output == expected
    original = Polynomial(registry, {mono: Fraction(-1)})
    assert check_pointwise(original, result.output, result.aux).passed


def test_kzfd_cubic_pointwise():
    registry, ids, mono = boolean_instance(3)
    result = ntr_kzfd(Fraction(-1), mono, registry)
    original = Polynomial(registry, {mono: Fraction(-1)})
    assert pointwise_holds(original, result.output, result.aux)


def test_abcg_alternate_form_identity():
    # (k-1)*bk*ba - sum_{i<=k} bi*(ba + bk - 1) is the same polynomial
    for k in (3, 4, 5):
        registry, ids, mono = boolean_instance(k)
        result = ntr_abcg(Fraction(-1), mono, registry)
        ba = result.aux[0]
        a = Polynomial.variable(registry, ba)
        bk = Polynomial.variable(registry, ids[-1])
        alternate = (k - 1) * bk * a
        for v in ids:
            alternate = alternate - Polynomial.variable(registry, v) * (a + bk - 1)
        assert result.output == alternate


def test_abcg_pointwise_values():
    registry, ids, mono = boolean_instance(3)
    result = ntr_abcg(Fraction(-1), mono, registry)
    ba = result.aux[0]
    all_ones = {v: 1 for v in ids}
    assert min(
        result.output.evaluate({**all_ones, ba: x}) for x in (0, 1)
    ) == -1
    off = {ids[0]: 0, ids[1]: 0, ids[2]: 1}
    assert min(result.output.evaluate({**off, ba: x}) for x in (0, 1)) == 0


def test_abcg2_c1_reproduces_kzfd():
    registry, ids, mono = boolean_instance(4)
    via_abcg2 = ntr_abcg2(Fraction(-3), mono, registry, scale_c=1)
    registry2, ids2, mono2 = boolean_instance(4)
    via_kzfd = ntr_kzfd(Fraction(-3), mono2, registry2)
    assert via_abcg2.output.terms == via_kzfd.output.terms


def test_abcg2_default_c2_worked_example():
    registry, ids, mono = boolean_instance(3)
    result = ntr_abcg2(Fraction(-1), mono, registry)
    expected = parse_polynomial("5 b4 - 2 b1 b4 - 2 b2 b4 - 2 b3 b4", registry)
    assert result.output == expected
    original = Polynomial(registry, {mono: Fraction(-1)})
    assert pointwise_holds(original, result.output, result.aux)


def test_abcg2_six_local_context_minimum():
    registry, ids, mono = boolean_instance(6)
    context = Polynomial.product(registry, ids[4:], 1)
    result = ntr_abcg2(Fraction(-2), mono, registry)
    minimum, minimizers = enumerate_min(result.output + context)
    assert minimum == -1
    assert [m[v] for m in minimizers for v in ids] == [1] * 6


def test_abcg2_rejects_small_c():
    registry, ids, mono = boolean_instance(3)
    with pytest.raises(InvalidParameter):
        ntr_abcg2(Fraction(-1), mono, registry, scale_c=Fraction(1, 2))


def test_gbp_variants_and_flip_relation():
    for pivot in (1, 2, 3):
        registry, ids, mono = boolean_instance(3)
        result = ntr_gbp(Fraction(-1), mono, registry, pivot=pivot)
        original = Polynomial(registry, {mono: Fraction(-1)})
        assert pointwise_holds(original, result.output, result.aux)
    # flipping the auxiliary of the pivot-3 variant recovers ntr_abcg at k=3
    registry, ids, mono = boolean_instance(3)
    gbp = ntr_gbp(Fraction(-1), mono, registry, pivot=3)
    flipped, _ = gbp.output.flip(gbp.aux)
    registry2, ids2, mono2 = boolean_instance(3)
    abcg = ntr_abcg(Fraction(-1), mono2, registry2)
    assert flipped.terms == abcg.output.terms


def test_gbp_all_ones_minimum():
    registry, ids, mono = boolean_instance(3)
    result = ntr_gbp(Fraction(-1), mono, registry)
    ba = result.aux[0]
    all_ones = {v: 1 for v in ids}
    assert min(result.output.evaluate({**all_ones, ba: x}) for x in (0, 1)) == -1


def test_rbl_ground_state_projection():
    registry, ids, mono = spin_instance(3)
    result = ntr_rbl(Fraction(-1), mono, registry)
    assert result.guarantee == Guarantee.GROUND_STATE
    original = Polynomial(registry, {mono: Fraction(-1)})
    report = check_groundstate(original, result.output, result.aux)
    assert report.passed
    # projection = exactly the +1-product states
    _, minimizers = enumerate_min(result.output)
    products = {m[ids[0]] * m[ids[1]] * m[ids[2]] for m in minimizers}
    assert products == {1}


def test_rbl_all_plus_inner_minimum():
    registry, ids, mono = spin_instance(3)
    result = ntr_rbl(Fraction(-1), mono, registry)
    ta = result.aux[0]
    plus = {v: 1 for v in ids}
    values = {x: result.output.evaluate({**plus, ta: x}) for x in (-1, 0, 1)}
    assert min(values.values()) == -1
    assert values[-1] == -1  # (4 + 4*ta)^2 - 1 at ta = -1


def test_rbl_scaling_preserves_argmin():
    registry, ids, mono = spin_instance(3)
    single = ntr_rbl(Fraction(-1), mono, registry)
    registry2, ids2, mono2 = spin_instance(3)
    tripled = ntr_rbl(Fraction(-3), mono2, registry2)
    assert tripled.output.terms == single.output.scale(3).terms
    _, argmin_a = enumerate_min(single.output)
    _, argmin_b = enumerate_min(tripled.output)
    assert argmin_a == argmin_b


def test_bg_quartic_worked_example():
    registry, ids, mono = boolean_instance(4)
    result = ptr_bg(Fraction(1), mono, registry)
    expected = parse_polynomial(
        "2 b5 + b5 b1 - b5 b2 - b5 b3 - b5 b4"
        " + b6 + b6 b2 - b6 b3 - b6 b4 + b3 b4",
        registry,
    )
    assert result.output == expected
    assert len(result.aux) == 2


def test_bg_cubic_pointwise_values():
    registry, ids, mono = boolean_instance(3)
    result = ptr_bg(Fraction(1), mono, registry)
    ba = result.aux[0]
    all_ones = {v: 1 for v in ids}
    assert min(result.output.evaluate({**all_ones, ba: x}) for x in (0, 1)) == 1
    partial = {ids[0]: 0, ids[1]: 1, ids[2]: 1}
    assert min(result.output.evaluate({**partial, ba: x}) for x in (0, 1)) == 0


def test_ishikawa_quartic_worked_example():
    registry, ids, mono = boolean_instance(4)
    result = ptr_ishikawa(Fraction(1), mono, registry)
    expected = parse_polynomial(
        "3 b5 - 2 b5 b1 - 2 b5 b2 - 2 b5 b3 - 2 b5 b4"
        " + b1 b2 + b1 b3 + b1 b4 + b2 b3 + b2 b4 + b3 b4",
        registry,
    )
    assert result.output == expected


def test_ishikawa_cubic_pointwise():
    registry, ids, mono = boolean_instance(3)
    result = ptr_ishikawa(Fraction(1), mono, registry)
    original = Polynomial(registry, {mono: Fraction(1)})
    assert pointwise_holds(original, result.output, result.aux)


def test_ishikawa_quartic_all_ones():
    registry, ids, mono = boolean_instance(4)
    result = ptr_ishikawa(Fraction(1), mono, registry)
    ba = result.aux[0]
    all_ones = {v: 1 for v in ids}
    assert min(result.output.evaluate({**all_ones, ba: x}) for x in (0, 1)) == 1


def test_bcr3_squared_counter_values():
    registry, ids, mono = boolean_instance(4)
    result = ptr_bcr3(Fraction(1), mono, registry)
    assert len(result.aux) == 2
    a1, a2 = result.aux
    all_ones = {v: 1 for v in ids}
    best_at_top = min(
        result.output.evaluate({**all_ones, a1: x, a2: y})
        for x in (0, 1)
        for y in (0, 1)
    )
    assert best_at_top == 1
    three_on = {ids[0]: 1, ids[1]: 1, ids[2]: 1, ids[3]: 0}
    assert (
        min(
            result.output.evaluate({**three_on, a1: x, a2: y})
            for x in (0, 1)
            for y in (0, 1)
        )
        == 0
    )


def test_bcr3_zero_vector_representable():
    # at the all-zero input the bracket constant 2^m - k is binary
    # representable on the auxiliaries, so the minimum is exactly 0
    for k in (3, 4, 5, 6):
        registry, ids, mono = boolean_instance(k)
        result = ptr_bcr3(Fraction(1), mono, registry)
        zeros = {v: 0 for v in ids}
        aux_domains = [(0, 1)] * len(result.aux)
        import itertools

        best = min(
            result.output.evaluate({**zeros, **dict(zip(result.aux, combo))})
            for combo in itertools.product(*aux_domains)
        )
        assert best == 0


def test_bcr4_quartic_worked_example():
    registry, ids, mono = boolean_instance(4)
    result = ptr_bcr4(Fraction(1), mono, registry)
    # (1/2) * (sum b - 2 a1) * (sum b - 2 a1 - 1)
    body = sum(
        (Polynomial.variable(registry, v) for v in ids), Polynomial.zero(registry)
    )
    bracket = body - 2 * Polynomial.variable(registry, result.aux[0])
    assert result.output == (bracket * (bracket - 1)).scale(Fraction(1, 2))
    two_on = {ids[0]: 1, ids[1]: 1, ids[2]: 0, ids[3]: 0}
    assert result.output.evaluate({**two_on, result.aux[0]: 1}) == 0


def test_kz_cubic_identity_as_printed():
    registry, ids, mono = boolean_instance(3)
    result = ptr_kz(Fraction(1), mono, registry)
    expected = parse_polynomial(
        "1 - b4 - b1 - b2 - b3 + b4 b1 + b4 b2 + b4 b3 + b1 b2 + b1 b3 + b2 b3",
        registry,
    )
    assert result.output == expected
    ba = result.aux[0]
    assert min(result.output.evaluate({**{v: 1 for v in ids}, ba: x}) for x in (0, 1)) == 1
    assert min(result.output.evaluate({**{v: 0 for v in ids}, ba: x}) for x in (0, 1)) == 0


def test_gbp_positive_worked_example():
    # b1b2b3 + b1b3 - b2 with the pivot-2 variant reproduces the printed
    # rewrite (ba - b1 ba - b3 ba + b2 ba + 2 b1 b3) - b2
    registry, ids, mono = boolean_instance(3)
    context = parse_polynomial("b1 b3 - b2", registry)
    result = ptr_gbp(Fraction(1), mono, registry, pivot=2)
    combined = result.output + context
    expected = parse_polynomial(
        "b4 - b1 b4 - b3 b4 + b2 b4 + 2 b1 b3 - b2", registry
    )
    assert combined == expected
    original = Polynomial(registry, {mono: Fraction(1)}) + context
    assert pointwise_holds(original, combined, result.aux)


def test_literal_kzfd_tail():
    # -(b1 b2 (1-b3)) via the generalized flipped reduction
    registry, ids, _ = boolean_instance(3)
    result = ntr_kzfd_literals(Fraction(-1), ids[:2], ids[2:], registry)
    one = Polynomial.constant(registry, 1)
    target = -(
        Polynomial.product(registry, ids[:2])
        * (one - Polynomial.variable(registry, ids[2]))
    )
    assert pointwise_holds(target, result.output, result.aux)


# ---------------------------------------------------------------------------
# Catalog-wide properties


def _admissible_coeffs(descriptor):
    magnitudes = (Fraction(1), Fraction(3), Fraction(7, 2))
    if descriptor.sign == "negative":
        return [-m for m in magnitudes]
    if descriptor.sign == "positive":
        return list(magnitudes)
    return [m for m in magnitudes] + [-m for m in magnitudes]


@pytest.mark.parametrize(
    "name", sorted(d.name for d in GADGETS.values() if d.status == MUST_PASS)
)
def test_must_pass_guarantee_suite(name):
    descriptor = GADGETS[name]
    checker = (
        check_pointwise
        if descriptor.guarantee == Guarantee.POINTWISE_MIN
        else check_groundstate
    )
    for k in descriptor.degrees_up_to(6):
        if k < 3:
            continue  # degenerate passthrough is the pipeline's job
        for coeff in _admissible_coeffs(descriptor):
            registry = VariableRegistry()
            ids = [registry.add_variable(descriptor.domain) for _ in range(k)]
            mono = tuple((v, 1) for v in ids)
            result = apply_gadget(name, coeff, mono, registry)
            original = Polynomial(registry, {mono: coeff})
            report = checker(original, result.output, result.aux)
            assert report.passed, (name, k, coeff, report)


# Each row's auxiliary count, written out as its source states it.
AUX_FORMULAS = [
    ("ntr_kzfd", lambda k: 1),
    ("ntr_abcg", lambda k: 1),
    ("ntr_abcg2", lambda k: 1),
    ("ntr_gbp", lambda k: 1),
    ("ntr_rbl", lambda k: 1),
    ("ptr_bg", lambda k: k - 2),
    ("ptr_ishikawa", lambda k: (k - 1) // 2),
    ("ptr_bcr4", lambda k: math.ceil(math.log2(k)) - 1),
    ("ptr_bcr3", lambda k: math.ceil(math.log2(k))),
    ("ptr_kz", lambda k: 1),
    ("ptr_gbp", lambda k: 1),
    ("ptr_bcr1", lambda k: (k - 1) // 2),
    ("ptr_bcr2", lambda k: 1),
    ("ptr_kz_z", lambda k: 1),
    ("ptr_rbl_3to2", lambda k: 1),
    ("ptr_rbl_4to2", lambda k: 1),
    ("ntr_lhz", lambda k: 1),
    ("ntr_lhz_z", lambda k: 1),
]


def test_every_row_has_an_aux_formula():
    assert sorted(name for name, _ in AUX_FORMULAS) == sorted(GADGETS)


def _ref_applies_to(row, coefficient_sign, degree, domain):
    """The earlier routing rule of a catalog row, kept as it was."""
    if row.sign == "negative" and coefficient_sign >= 0:
        return False
    if row.sign == "positive" and coefficient_sign <= 0:
        return False
    return domain is row.domain and row.degree_error(degree) is None


def _ref_routes(row, coeff, mono, registry):
    """The earlier routing decision for one row: the term holds one domain,
    and _ref_applies_to accepts its sign, degree and domain."""
    domains = {registry.domain(v) for v, _ in mono}
    sign = 1 if coeff > 0 else -1
    return len(domains) == 1 and _ref_applies_to(row, sign, monomial_degree(mono), domains.pop())


@pytest.mark.parametrize("name,formula", AUX_FORMULAS)
def test_aux_counts_match_descriptors(name, formula):
    """For both signs and k = 1..10, the earlier routing rule accepts a term
    exactly when the row's rejection is None and its applier builds it, and
    each accepted call makes the row's aux_count(k) auxiliaries, tagged with
    its name, under its guarantee.

    Both rules refuse a mixed-domain term, a foreign-domain term and a
    squared ternary factor (the one squared factor a polynomial can hold).
    A squared factor in the row's own domain never reaches routing, since a
    polynomial reduces b^2 to b and z^2 to 1; the rejection refuses it as a
    direct call does."""
    descriptor = GADGETS[name]
    for sign in (-1, 1):
        for k in range(1, 11):
            registry = VariableRegistry()
            mono = tuple((registry.add_variable(descriptor.domain), 1) for _ in range(k))
            routed = _ref_routes(descriptor, Fraction(sign), mono, registry)
            rejection = descriptor.rejection(Fraction(sign), mono, registry)
            assert routed == (rejection is None), (sign, k)
            try:
                result = descriptor.apply(Fraction(sign), mono, registry)
            except (WrongSign, WrongDegree) as error:
                assert not routed, (sign, k)
                assert (type(error), str(error)) == (type(rejection), str(rejection))
                continue
            assert routed, (sign, k)
            assert len(result.aux) == formula(k) == descriptor.aux_count(k)
            assert [registry.entry(a).gadget for a in result.aux] == [name] * len(result.aux)
            assert result.guarantee == descriptor.guarantee

    coeff = Fraction(1 if descriptor.sign == "positive" else -1)
    k = next(d for d in descriptor.degrees_up_to(10) if d >= 3)
    other = Domain.SPIN if descriptor.domain is Domain.BOOLEAN else Domain.BOOLEAN
    registry = VariableRegistry()
    own = [registry.add_variable(descriptor.domain) for _ in range(k)]
    foreign = [registry.add_variable(other) for _ in range(k)]
    ternary = [registry.add_variable(Domain.TERNARY) for _ in range(k - 1)]
    mixed = tuple((v, 1) for v in own[:-1] + foreign[-1:])
    squared_ternary = ((ternary[0], 2), *((v, 1) for v in ternary[1:]))
    for mono in (mixed, tuple((v, 1) for v in foreign), squared_ternary):
        assert not _ref_routes(descriptor, coeff, mono, registry)
        assert isinstance(descriptor.rejection(coeff, mono, registry), DomainViolation)
    squared_own = ((own[0], 2), *((v, 1) for v in own[1:-1]))
    error = descriptor.rejection(coeff, squared_own, registry)
    assert (type(error), str(error)) == (DomainViolation, "gadget monomials use each variable once")


def test_submodularity_counts_kzfd_vs_abcg():
    for k in range(3, 11):
        registry, ids, mono = boolean_instance(k)
        kzfd = ntr_kzfd(Fraction(-1), mono, registry)
        assert kzfd.output.quadratic_profile().non_submodular == 0
        registry, ids, mono = boolean_instance(k)
        abcg = ntr_abcg(Fraction(-1), mono, registry)
        assert abcg.output.quadratic_profile().non_submodular == 1


@pytest.mark.parametrize("name", ["ntr_kzfd", "ptr_ishikawa", "ptr_bcr4"])
def test_positive_scaling_equivariance(name):
    descriptor = GADGETS[name]
    coeff = Fraction(-1) if descriptor.sign == "negative" else Fraction(1)
    registry = VariableRegistry()
    ids = [registry.add_variable(descriptor.domain) for _ in range(4)]
    mono = tuple((v, 1) for v in ids)
    unit = apply_gadget(name, coeff, mono, registry)
    registry2 = VariableRegistry()
    ids2 = [registry2.add_variable(descriptor.domain) for _ in range(4)]
    mono2 = tuple((v, 1) for v in ids2)
    scaled = apply_gadget(name, coeff * Fraction(5, 2), mono2, registry2)
    assert scaled.output.terms == unit.output.scale(Fraction(5, 2)).terms


def test_wrong_sign_rejected():
    registry, ids, mono = boolean_instance(3)
    with pytest.raises(WrongSign):
        ntr_kzfd(Fraction(1), mono, registry)
    with pytest.raises(WrongSign):
        ptr_ishikawa(Fraction(-1), mono, registry)
    with pytest.raises(WrongSign):
        ptr_kz(Fraction(-1), mono, registry)


def test_wrong_degree_rejected():
    registry, ids, mono = boolean_instance(4)
    with pytest.raises(WrongDegree):
        ntr_gbp(Fraction(-1), mono, registry)
    with pytest.raises(WrongDegree):
        ptr_kz(Fraction(1), mono, registry)


def test_apply_gadget_identity_below_cubic():
    registry, ids, _ = boolean_instance(2)
    mono = tuple((v, 1) for v in ids)
    result = apply_gadget("ptr_ishikawa", Fraction(5), mono, registry)
    assert result.aux == ()
    assert result.output == Polynomial(registry, {mono: Fraction(5)})
    assert result.guarantee == Guarantee.POINTWISE_MIN
    # below cubic the named row still checks the term's domain and sign
    with pytest.raises(DomainViolation, match="not in the 'z' domain"):
        apply_gadget("ntr_rbl", Fraction(5), mono, registry)
    with pytest.raises(WrongSign, match="expected a positive coefficient"):
        apply_gadget("ptr_ishikawa", Fraction(-5), mono, registry)


# ---------------------------------------------------------------------------
# Experimental gate


# Verdicts as found by the oracle on the canonical probes; they are data the
# suite freezes so regressions in either the formulas or the gate show up.
EXPECTED_VERDICTS = {
    "ptr_bcr1": False,
    "ptr_bcr2": True,
    "ptr_kz_z": False,
    "ptr_rbl_3to2": False,
    "ptr_rbl_4to2": False,
    "ntr_lhz": False,
    "ntr_lhz_z": False,
    "czw_count4": True,
    "ternary_to_binary": True,
}


def test_experimental_reports_all_recorded():
    reports = experimental_reports()
    assert {name: report.passed for name, report in reports.items()} == EXPECTED_VERDICTS
    for name, report in reports.items():
        if not report.passed:
            assert report.counterexample is not None, name


def test_experimental_reports_raise_a_cap_error():
    # the ground-state check behind czw_count4 enumerates 256 states; a cap
    # below that is an error, not a missing verdict
    with pytest.raises(EnumerationCapExceeded, match="256 states exceed the cap of 100"):
        experimental_reports(100)
    assert experimental_reports(256)["czw_count4"].passed


def test_experimental_reports_prove_czw_count4_once(monkeypatch):
    """The probes run five ground-state checks, czw_count4's once; its
    report is the one czw_count4's own gate computes."""
    from quadratizer import verify
    from quadratizer.gadgets import czw_count4

    calls = []
    original = verify.check_groundstate
    monkeypatch.setattr(verify, "check_groundstate",
                        lambda *args: calls.append(args) or original(*args))
    reports = experimental_reports()
    assert len(calls) == 5
    monkeypatch.undo()
    registry = VariableRegistry()
    xs = [registry.add_variable(Domain.BOOLEAN) for _ in range(4)]
    gated = czw_count4(None, "b1b2b3b4", xs, registry)
    assert reports["czw_count4"] == verify.check_claim(
        gated.guarantee, Polynomial.product(registry, xs), gated.output, gated.aux
    )


def test_experimental_gate_blocks_failures():
    registry, ids, mono = spin_instance(3)
    with pytest.raises(VerificationFailed) as excinfo:
        experimental_single_term("ptr_rbl_3to2", Fraction(1), mono, registry)
    assert excinfo.value.report is not None
    assert excinfo.value.report.counterexample is not None


def test_experimental_gate_exposes_passes():
    registry, ids, mono = boolean_instance(4)
    result = experimental_single_term("ptr_bcr2", Fraction(1), mono, registry)
    original = Polynomial(registry, {mono: Fraction(1)})
    assert pointwise_holds(original, result.output, result.aux)


def test_rbl_4to2_formula_as_printed():
    registry, ids, mono = spin_instance(4)
    result, report = evaluate_experimental("ptr_rbl_4to2", Fraction(1), mono, registry)
    ta = result.aux[0]
    assert registry.domain(ta) is Domain.TERNARY
    expected = parse_polynomial(
        "16 t5^2 + 4 t5 z1 + 4 t5 z2 + 4 t5 z3 + 4 t5 z4"
        " + 2 z1 z2 + 2 z1 z3 + 2 z1 z4 + 2 z2 z3 + 2 z2 z4 + 2 z3 z4 + 4",
        registry,
    )
    assert result.output == expected
    assert not report.passed


def test_kz_z_both_signs_recorded():
    for coeff in (Fraction(1), Fraction(-1)):
        registry, ids, mono = spin_instance(3)
        result, report = evaluate_experimental("ptr_kz_z", coeff, mono, registry)
        assert not report.passed
        assert report.counterexample is not None
        # the printed form misses at both guarantee levels
        original = Polynomial(registry, {mono: coeff})
        assert not check_groundstate(original, result.output, result.aux).passed


def test_output_over_twins_is_checked_against_the_twins(monkeypatch):
    """The check target follows from the output, not from the gadget's name:
    an output over the {0,1} twins of its spin input is checked against the
    input's {0,1} image under any catalog name."""
    registry, ids, mono = spin_instance(4)
    _, expected = evaluate_experimental("ntr_lhz", Fraction(-1), mono, registry)
    monkeypatch.setitem(GADGETS, "ntr_lhz_z", replace(GADGETS["ntr_lhz_z"], apply=single_term._x_ntr_lhz))
    registry, ids, mono = spin_instance(4)
    result, report = evaluate_experimental("ntr_lhz_z", Fraction(-1), mono, registry)
    assert not set(result.output.variables()) & set(ids)
    assert report == expected
    assert report.stats.states_enumerated > 0


def test_unknown_gadget():
    registry, ids, mono = boolean_instance(3)
    with pytest.raises(UnknownGadget):
        experimental_single_term("ptr_nonsense", Fraction(1), mono, registry)


# ---------------------------------------------------------------------------
# The catalog table: each row's applier is the gadget the row names


# Each row's sign, domain tag and degree range, written out so that a row and
# its gadget cannot drift together unnoticed.
CATALOG_ROWS = {
    "ntr_kzfd": ("negative", "b", 1, None),
    "ntr_abcg": ("negative", "b", 3, None),
    "ntr_abcg2": ("negative", "b", 3, None),
    "ntr_gbp": ("negative", "b", 3, 3),
    "ntr_rbl": ("negative", "z", 3, 3),
    "ptr_bg": ("positive", "b", 3, None),
    "ptr_ishikawa": ("positive", "b", 3, None),
    "ptr_bcr3": ("positive", "b", 3, None),
    "ptr_bcr4": ("positive", "b", 3, None),
    "ptr_kz": ("positive", "b", 3, 3),
    "ptr_gbp": ("positive", "b", 3, 3),
    "ptr_bcr1": ("positive", "b", 3, None),
    "ptr_bcr2": ("positive", "b", 4, 4),
    "ptr_kz_z": ("any", "z", 3, 3),
    "ptr_rbl_3to2": ("positive", "z", 3, 3),
    "ptr_rbl_4to2": ("positive", "z", 4, 4),
    "ntr_lhz": ("negative", "z", 4, 4),
    "ntr_lhz_z": ("negative", "z", 4, 4),
}


def _rejection(name, domain, degree, coeff, exponent=1):
    registry = VariableRegistry()
    ids = [registry.add_variable(domain) for _ in range(degree)]
    mono = tuple((v, exponent if i == 0 else 1) for i, v in enumerate(ids))
    with pytest.raises(Exception) as caught:
        GADGETS[name].apply(Fraction(coeff), mono, registry)
    return type(caught.value), str(caught.value)


@pytest.mark.parametrize("name", list(GADGETS))
def test_catalog_row_applies_its_named_gadget(name):
    """A probe of the row's sign, domain and minimum degree comes back traced
    as `name(`.  Degree <= 2 terms pass through apply_gadget unchanged, so a
    row whose minimum degree is lower is probed at degree 3.

    Terms outside the row (wrong sign, zero, too low or too high a degree, a
    squared factor, a foreign domain) each raise the gadget's own error,
    checked in the order factors, then sign, then degree."""
    descriptor = GADGETS[name]
    registry = VariableRegistry()
    ids = [
        registry.add_variable(descriptor.domain)
        for _ in range(max(descriptor.min_degree, 3))
    ]
    mono = tuple((v, 1) for v in ids)
    coeff = Fraction(-1 if descriptor.sign == "negative" else 1)
    if descriptor.status == MUST_PASS:
        result = apply_gadget(name, coeff, mono, registry)
        with pytest.raises(UnknownGadget):
            evaluate_experimental(name, coeff, mono, VariableRegistry())
    else:
        result, _ = evaluate_experimental(name, coeff, mono, registry)
    assert result.trace.startswith(f"{name}(")
    sign, tag, low, high = CATALOG_ROWS[name]
    assert (descriptor.sign, descriptor.domain.tag, descriptor.min_degree) == (sign, tag, low)
    assert descriptor.max_degree == high
    domain = Domain.from_tag(tag)
    good, right = max(low, 3), coeff
    wrong = {"negative": 1, "positive": -1, "any": 0}[sign]
    bound = f">= {low}" if high is None else f"in [{low}, {high}]"

    def sign_message(value):
        if sign == "any":
            return "coefficient must be nonzero"
        return f"expected a {sign} coefficient, got {value}"

    assert _rejection(name, domain, good, wrong) == (WrongSign, sign_message(wrong))
    assert _rejection(name, domain, good, 0) == (WrongSign, sign_message(0))
    assert _rejection(name, domain, low - 1, right) == (
        WrongDegree, f"gadget needs degree {bound}, got {low - 1}"
    )
    if high is not None:
        assert _rejection(name, domain, high + 1, right) == (
            WrongDegree, f"gadget needs degree {bound}, got {high + 1}"
        )
    for other in (Domain.BOOLEAN, Domain.SPIN, Domain.TERNARY):
        if other is not domain:
            assert _rejection(name, other, good, right) == (
                DomainViolation, f"variable 0 is not in the {tag!r} domain"
            )
    assert _rejection(name, domain, good, right, exponent=2) == (
        DomainViolation, "gadget monomials use each variable once"
    )
    # the check order: factors before sign, sign before degree
    other = Domain.SPIN if domain is Domain.BOOLEAN else Domain.BOOLEAN
    assert _rejection(name, other, low - 1 or 1, wrong)[0] is DomainViolation
    assert _rejection(name, domain, low - 1, wrong) == (WrongSign, sign_message(wrong))


def test_ptr_bcr1_turns_even_degrees_away_in_routing():
    """ptr_bcr1 is stated for odd k only.  Its row says so, so a route moves
    an even term on to its next gadget, and a direct call still rejects it."""
    route = Strategy(positive_route=("ptr_bcr1", "ptr_ishikawa"), allow_experimental=True)
    result = quadratize(parse_polynomial("b1 b2 b3 b4"), route)
    assert [trace.split("(")[0] for trace in result.aux_map.values()] == ["ptr_ishikawa"]
    alone = Strategy(positive_route=("ptr_bcr1",), allow_experimental=True)
    with pytest.raises(NoApplicableGadget):
        quadratize(parse_polynomial("b1 b2 b3 b4"), alone)
    registry, _, mono = boolean_instance(4)
    with pytest.raises(WrongDegree, match="^ptr_bcr1 is stated for odd k only$"):
        GADGETS["ptr_bcr1"].apply(Fraction(1), mono, registry)


def test_experimental_reports_follow_the_catalog():
    experimental = [d.name for d in GADGETS.values() if d.status != MUST_PASS]
    assert list(experimental_reports()) == experimental + ["czw_count4", "ternary_to_binary"]


def test_apply_gadget_rejects_an_unknown_name():
    registry = VariableRegistry()
    mono = tuple((registry.add_variable(Domain.BOOLEAN), 1) for _ in range(3))
    with pytest.raises(UnknownGadget, match="no gadget named 'nonsense'"):
        apply_gadget("nonsense", 1, mono, registry)


THIRTY_DIGITS = Fraction(123456789012345678901234567891, 98765432109876543210987654323)


@pytest.mark.parametrize("c", [Fraction(1), Fraction(3), Fraction(7, 3), THIRTY_DIGITS])
@pytest.mark.parametrize("form,twin,twin_sign,domain,k", [
    ("ptr_bcr2", "ptr_bcr4", 1, Domain.BOOLEAN, 4),
    ("ptr_rbl_3to2", "ntr_rbl", -1, Domain.SPIN, 3),
    ("ptr_rbl_4to2", "ntr_lhz_z", -1, Domain.SPIN, 4),
])
def test_experimental_rows_repeat_another_row(c, form, twin, twin_sign, domain, k):
    """Three experimental rows build another row's output term for term (in
    dict order, with the same auxiliaries and label): ptr_bcr2 at k = 4 is
    the must-pass ptr_bcr4 at k = 4, with one auxiliary and pointwise-min,
    and the two positive spin forms are their negative twins' formulas with
    the sign not flipped, ptr_rbl_3to2(c) = ntr_rbl(-c) and
    ptr_rbl_4to2(c) = ntr_lhz_z(-c)."""
    results = []
    for name, coeff in ((form, c), (twin, twin_sign * c)):
        registry = VariableRegistry()
        mono = tuple((registry.add_variable(domain), 1) for _ in range(k))
        result = GADGETS[name].apply(coeff, mono, registry)
        domains = [registry.domain(a) for a in result.aux]
        results.append((list(result.output.terms.items()), result.aux, domains, result.guarantee))
    assert results[0] == results[1]
    if form == "ptr_bcr2":
        assert len(results[0][1]) == 1 and results[0][3] == Guarantee.POINTWISE_MIN
