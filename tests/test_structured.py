"""Symmetric-function gadgets: exact-c indicators, the counting gadget, and
the ternary encoding."""

from fractions import Fraction

import pytest

from quadratizer.errors import (
    DomainViolation,
    InvalidParameter,
    QuadratizerError,
    VariantRangeViolation,
    VerificationFailed,
)
from quadratizer.gadgets import (
    ExactCSpec,
    check_ternary_encoding,
    czw_count4,
    czw_counting_hamiltonian,
    exact_c_indicator,
    ntr_abcg2,
    ntr_rbl,
    sfr_aux_count,
    sfr_bcr,
    ternary_to_binary,
)
from quadratizer.poly import Domain, Polynomial, VariableRegistry
from quadratizer.textio import parse_polynomial
from quadratizer.verify import check_groundstate, check_pointwise, enumerate_min


def _vars(n, domain=Domain.BOOLEAN):
    registry = VariableRegistry()
    return registry, [registry.add_variable(domain, f"{domain.tag}{i+1}") for i in range(n)]


def in_range(variant, n, c):
    if variant in (1, 3):
        return 1 <= c and n <= 2 * c and c <= n
    return 0 <= c and 2 * c <= n


def test_indicator_target_matches_printed_symmetric_function():
    # gamma [sum b = 2] over 4 variables is the printed pairs/triples/quad mix
    registry, ids = _vars(4)
    target = exact_c_indicator(ExactCSpec(4, 2), ids, registry)
    expected = parse_polynomial(
        "b1 b2 + b1 b3 + b1 b4 + b2 b3 + b2 b4 + b3 b4"
        " - 3 b1 b2 b3 - 3 b1 b2 b4 - 3 b1 b3 b4 - 3 b2 b3 b4"
        " + 6 b1 b2 b3 b4",
        registry,
    )
    assert target == expected


def test_sfr_variant1_printed_square():
    registry, ids = _vars(4)
    result = sfr_bcr(1, ExactCSpec(4, 2), ids, registry)
    assert len(result.aux) == 2
    body = sum((Polynomial.variable(registry, v) for v in ids), Polynomial.zero(registry))
    bracket = (
        body
        - 3
        - Polynomial.variable(registry, result.aux[0])
        + 3 * Polynomial.variable(registry, result.aux[1])
    )
    assert result.output == bracket * bracket


def test_sfr_variant2_printed_square():
    registry, ids = _vars(4)
    result = sfr_bcr(2, ExactCSpec(4, 2), ids, registry)
    body = sum((Polynomial.variable(registry, v) for v in ids), Polynomial.zero(registry))
    bracket = (
        1
        - body
        - Polynomial.variable(registry, result.aux[0])
        + 3 * Polynomial.variable(registry, result.aux[1])
    )
    assert result.output == bracket * bracket
    target = exact_c_indicator(ExactCSpec(4, 2), ids, registry)
    assert check_pointwise(target, result.output, result.aux).passed


def test_sfr_variant3_printed_binomial():
    registry, ids = _vars(4)
    result = sfr_bcr(3, ExactCSpec(4, 2), ids, registry)
    assert len(result.aux) == 1
    body = sum((Polynomial.variable(registry, v) for v in ids), Polynomial.zero(registry))
    bracket = body - 3 + 3 * Polynomial.variable(registry, result.aux[0])
    assert result.output == (bracket * (bracket - 1)).scale(Fraction(1, 2))


def test_sfr_variant4_printed_binomial():
    registry, ids = _vars(4)
    result = sfr_bcr(4, ExactCSpec(4, 2), ids, registry)
    assert len(result.aux) == 1
    body = sum((Polynomial.variable(registry, v) for v in ids), Polynomial.zero(registry))
    bracket = 1 - body + 3 * Polynomial.variable(registry, result.aux[0])
    assert result.output == (bracket * (bracket - 1)).scale(Fraction(1, 2))


@pytest.mark.parametrize("variant", [1, 2, 3, 4])
def test_sfr_indicator_pointwise_sweep(variant):
    for n in range(1, 7):
        for c in range(0, n + 1):
            if not in_range(variant, n, c):
                continue
            for gamma in (Fraction(1), Fraction(3), Fraction(5, 2)):
                registry, ids = _vars(n)
                spec = ExactCSpec(n, c, gamma)
                result = sfr_bcr(variant, spec, ids, registry)
                target = exact_c_indicator(spec, ids, registry)
                report = check_pointwise(target, result.output, result.aux)
                assert report.passed, (variant, n, c, gamma, report)


@pytest.mark.parametrize("variant", [1, 2, 3, 4])
def test_sfr_aux_counts(variant):
    import math

    for n in range(1, 11):
        for c in range(0, n + 1):
            if not in_range(variant, n, c):
                continue
            spec = ExactCSpec(n, c)
            registry, ids = _vars(n)
            result = sfr_bcr(variant, spec, ids, registry)
            assert len(result.aux) == sfr_aux_count(variant, spec)
            # where the raw ceil(log2) formulas are positive they agree
            raw = {
                1: (lambda: math.ceil(math.log2(c)) + 1),
                2: (lambda: math.ceil(math.log2(n - c)) + 1 if n > c else None),
                3: (lambda: math.ceil(math.log2(c))),
                4: (lambda: math.ceil(math.log2(n - c)) if n > c else None),
            }[variant]()
            if raw:
                assert len(result.aux) == raw


def test_sfr_range_violations():
    registry, ids = _vars(4)
    with pytest.raises(VariantRangeViolation):
        sfr_bcr(1, ExactCSpec(4, 1), ids, registry)  # c below n/2
    with pytest.raises(VariantRangeViolation):
        sfr_bcr(2, ExactCSpec(4, 3), ids, registry)  # c above n/2
    with pytest.raises(VariantRangeViolation):
        sfr_bcr(3, ExactCSpec(4, 5), ids, registry)


@pytest.mark.parametrize("variant", [0, 5])
@pytest.mark.parametrize("n, c", [(2, 2), (2, 0), (4, 5)])
def test_sfr_rejects_an_unknown_variant_before_its_range(variant, n, c):
    # an unknown variant has no range of c to violate
    registry, ids = _vars(n)
    with pytest.raises(InvalidParameter) as excinfo:
        sfr_bcr(variant, ExactCSpec(n, c), ids, registry)
    assert type(excinfo.value) is InvalidParameter
    assert str(excinfo.value) == f"variant must be 1..4, got {variant}"


def test_sfr_aux_count_rejects_an_unknown_variant():
    with pytest.raises(InvalidParameter, match="variant must be 1..4, got 5"):
        sfr_aux_count(5, ExactCSpec(4, 2))


def test_sfr_variants_1_and_3_need_a_positive_c():
    # n = c = 0 passes the n/2 <= c <= n rule, so only c >= 1 rejects it
    with pytest.raises(VariantRangeViolation) as excinfo:
        sfr_bcr(1, ExactCSpec(0, 0), [], VariableRegistry())
    assert str(excinfo.value) == "variants 1/3 need c >= 1"


def test_sfr_rejects_nonpositive_gamma():
    registry, ids = _vars(4)
    with pytest.raises(InvalidParameter):
        sfr_bcr(1, ExactCSpec(4, 2, Fraction(-1)), ids, registry)


def test_sfr_variant_autoselect_helper_equivalence():
    # variants 3/4 use half the auxiliaries of 1/2 at the same (n, c)
    spec = ExactCSpec(6, 3)
    assert sfr_aux_count(3, spec) < sfr_aux_count(1, spec)
    assert sfr_aux_count(4, spec) < sfr_aux_count(2, spec)


# ---------------------------------------------------------------------------
# Counting gadget


def test_counting_manifold_property():
    registry, ids = _vars(4)
    h_count, aux = czw_counting_hamiltonian(ids, registry)
    minimum, minimizers = enumerate_min(h_count)
    assert minimum == -10
    # every ground state leaves exactly sum(b) auxiliaries in the 0 state,
    # and every logical configuration appears in the manifold
    seen = set()
    for state in minimizers:
        logical = sum(state[v] for v in ids)
        off_aux = sum(1 for a in aux if state[a] == 0)
        assert off_aux == logical
        seen.add(tuple(state[v] for v in ids))
    assert len(seen) == 16


def test_czw_preset_b_structure_and_gate():
    registry, ids = _vars(4)
    result = czw_count4(None, "b1b2b3b4", ids, registry)
    lam = Fraction(2)  # 1 + range of the -ba4 bias
    # output = -ba4 + lam * H_count over the allocated auxiliaries
    registry2, ids2 = _vars(4)
    h2, aux2 = czw_counting_hamiltonian(ids2, registry2)
    expected = -Polynomial.variable(registry2, aux2[3]) + h2.scale(lam)
    assert result.output.terms == expected.terms
    target = Polynomial.product(registry, ids)
    assert check_groundstate(target, result.output, result.aux).passed


def test_czw_preset_z_gate():
    registry, ids = _vars(4)
    result = czw_count4(None, "z1z2z3z4", ids, registry)
    # output = 2 ba1 - 2 ba2 + 2 ba3 - 2 ba4 + lam * H_count with lam = 1 + 8
    registry2, ids2 = _vars(4)
    h2, aux2 = czw_counting_hamiltonian(ids2, registry2)
    bias = (
        2 * Polynomial.variable(registry2, aux2[0])
        - 2 * Polynomial.variable(registry2, aux2[1])
        + 2 * Polynomial.variable(registry2, aux2[2])
        - 2 * Polynomial.variable(registry2, aux2[3])
    )
    assert result.output.terms == (bias + h2.scale(9)).terms


def test_czw_lambda_sweep_reports():
    outcomes = {}
    for lam in (4, 16, 64):
        registry, ids = _vars(4)
        try:
            czw_count4(lam, "z1z2z3z4", ids, registry)
        except VerificationFailed as error:
            outcomes[lam] = error.report
        else:
            outcomes[lam] = True
    # each lambda has a recorded verdict; large lambdas must succeed
    assert set(outcomes) == {4, 16, 64}
    assert outcomes[16] is True and outcomes[64] is True


def test_czw_custom_bias_verifies_symmetric_target():
    registry, ids = _vars(4)
    result = czw_count4(None, [0, 0, -1, 0], ids, registry)
    # bias -ba3 selects sum(b) <= 2, i.e. the target is -[sum <= 2]
    assert result.guarantee == "ground-state"


def test_czw_invalid_parameters():
    registry, ids = _vars(4)
    with pytest.raises(InvalidParameter):
        czw_count4(0, "b1b2b3b4", ids, registry)
    with pytest.raises(InvalidParameter):
        czw_count4(None, "nonsense", ids, registry)
    with pytest.raises(InvalidParameter):
        czw_count4(None, [1, 2], ids, registry)


# ---------------------------------------------------------------------------
# Ternary -> binary


def test_ternary_linear_encoding():
    for lam in (1, 10):
        registry = VariableRegistry()
        t = registry.add_variable(Domain.TERNARY, "t1")
        p = Polynomial.variable(registry, t)
        output = ternary_to_binary(p, t, lam)
        z1, z2 = registry.auxiliaries()[-2:]
        report = check_ternary_encoding(p, output, t, (z1, z2), lam)
        assert report.passed
        # 4 spin states realize the 3 t values at energy -lam
        minimum, _ = enumerate_min(output)
        assert minimum == -1 - lam


def test_ternary_encoding_check_pins_states_and_counterexample():
    # p = t - 3 t b + b has two minimizers, (t, b) = (-1, 0) and (1, 1), at -1
    registry = VariableRegistry()
    t = registry.add_variable(Domain.TERNARY, "t1")
    b = registry.add_variable(Domain.BOOLEAN, "b2")
    p = parse_polynomial("t1 - 3 t1 b2 + b2", registry)
    output = ternary_to_binary(p, t, 2)
    z1, z2 = registry.auxiliaries()[-2:]
    report = check_ternary_encoding(p, output, t, (z1, z2), 2)
    assert report.passed and report.counterexample is None
    # 3 * 2 states of the original plus 2 * 2 * 2 of the encoding
    assert report.stats.states_enumerated == 14
    assert (report.stats.min_original, report.stats.min_transformed) == (-1, -3)
    # the wrong lam misses the minimum; an extra z1 z2 term moves the argmin
    wrong_lam = check_ternary_encoding(p, output, t, (z1, z2), 3)
    moved = output + Polynomial.product(registry, [z1, z2], Fraction(1, 2))
    wrong_argmin = check_ternary_encoding(p, moved, t, (z1, z2), 2)
    for report in (wrong_lam, wrong_argmin):
        assert not report.passed
        assert report.counterexample == {t: -1, b: 0}
        assert report.stats.states_enumerated == 14


def test_ternary_to_binary_raises_a_refuted_encoding_with_its_report(monkeypatch):
    """No lam > 0 fails the encoding, so the refusal is reached through a check
    that proves the wrong lam: the rewrite raises with that check's report."""

    def wrong_lam(original, transformed, t, z_pair, lam):
        return check_ternary_encoding(original, transformed, t, z_pair, lam + 1)

    monkeypatch.setattr("quadratizer.gadgets.structured.check_ternary_encoding", wrong_lam)
    registry = VariableRegistry()
    t = registry.add_variable(Domain.TERNARY, "t1")
    p = parse_polynomial("t1 - 3 t1 b2 + b2", registry)
    with pytest.raises(VerificationFailed) as raised:
        ternary_to_binary(p, t, 2)
    assert str(raised.value) == "ternary encoding failed its ground-space check at lam=2"
    # a second build makes two new spins, but the report names only t1 and b2
    output = ternary_to_binary(p, t, 2, verify=False)
    spins = tuple(registry.auxiliaries()[-2:])
    assert raised.value.report == check_ternary_encoding(p, output, t, spins, 3)
    assert not raised.value.report.passed


def test_ternary_without_t_unchanged():
    registry = VariableRegistry()
    t = registry.add_variable(Domain.TERNARY)
    b = registry.add_variable(Domain.BOOLEAN)
    p = Polynomial.variable(registry, b)
    assert ternary_to_binary(p, t, 10) is p


def test_ternary_rejects_bad_inputs():
    registry = VariableRegistry()
    b = registry.add_variable(Domain.BOOLEAN)
    t = registry.add_variable(Domain.TERNARY)
    p = Polynomial.variable(registry, t)
    with pytest.raises(DomainViolation):
        ternary_to_binary(p, b, 10)
    with pytest.raises(InvalidParameter):
        ternary_to_binary(p, t, 0)


def test_rbl_output_through_ternary_encoding():
    # spin cubic -> ternary-aux quadratic -> all-spin quadratic, ground states
    # still projecting onto the +1-product states
    registry = VariableRegistry()
    zs = [registry.add_variable(Domain.SPIN, f"z{i+1}") for i in range(3)]
    mono = tuple((v, 1) for v in zs)
    rbl = ntr_rbl(Fraction(-1), mono, registry)
    ta = rbl.aux[0]
    fully_spin = ternary_to_binary(rbl.output, ta, 10)
    assert all(
        registry.domain(v) is Domain.SPIN for v in fully_spin.variables()
    )
    assert fully_spin.degree() <= 2
    minimum, minimizers = enumerate_min(fully_spin)
    products = {m[zs[0]] * m[zs[1]] * m[zs[2]] for m in minimizers}
    assert products == {1}


def test_exact_c_indicator_rejects_wrong_variable_count():
    # built over three variables, the two-variable indicator would be -3 at
    # (1, 1, 1), where gamma * [sum == 1] is 0
    registry, ids = _vars(3)
    with pytest.raises(InvalidParameter, match="expected 2 variables"):
        exact_c_indicator(ExactCSpec(2, 1), ids, registry)
    with pytest.raises(InvalidParameter, match="expected 3 variables"):
        exact_c_indicator(ExactCSpec(3, 1), ids[:2], registry)
    target = exact_c_indicator(ExactCSpec(3, 1), ids, registry)
    assert target.evaluate(dict.fromkeys(ids, 1)) == 0


@pytest.mark.parametrize("n, c", [(3, -1), (3, 4), (0, -1), (0, 1)])
def test_exact_c_indicator_refuses_c_outside_zero_to_n(n, c):
    """As sfr_bcr does, with its message: c = -1 raised math.comb's bare
    ValueError, and c = n + 1 gave the zero polynomial.  The variable count
    is checked first, the range before the variables."""
    registry, zs = _vars(n + 1, Domain.SPIN)
    with pytest.raises(VariantRangeViolation) as excinfo:
        exact_c_indicator(ExactCSpec(n, c), zs[:n], registry)
    assert str(excinfo.value) == f"c must lie in [0, {n}], got {c}"
    with pytest.raises(InvalidParameter, match=f"expected {n} variables"):
        exact_c_indicator(ExactCSpec(n, c), zs, registry)
    registry, bs = _vars(n)
    with pytest.raises(VariantRangeViolation) as sfr:
        sfr_bcr(2, ExactCSpec(n, c), bs, registry)
    assert str(sfr.value) == str(excinfo.value)


@pytest.mark.parametrize("domain", [Domain.SPIN, Domain.TERNARY])
def test_exact_c_indicator_rejects_variables_outside_zero_one(domain):
    """Over z1..z3 the expansion is no indicator (it ranges from -12 to 4), so
    a variable outside {0,1} is refused; a repeated variable still raises
    first."""
    registry = VariableRegistry()
    bs = [registry.add_variable(Domain.BOOLEAN) for _ in range(2)]
    other = registry.add_variable(domain)
    with pytest.raises(DomainViolation, match=r"^variable 2 is not a \{0,1\} variable$"):
        exact_c_indicator(ExactCSpec(3, 1), [other, *bs], registry)
    with pytest.raises(ValueError, match="distinct"):
        exact_c_indicator(ExactCSpec(3, 1), [other, other, bs[0]], registry)


_HUGE = 10**5000  # more digits than int() writes under CPython's default limit


@pytest.mark.parametrize("call", [
    lambda r, bs: exact_c_indicator(ExactCSpec(3, _HUGE), bs, r),
    lambda r, bs: exact_c_indicator(ExactCSpec(_HUGE, 1), bs, r),
    lambda r, bs: sfr_bcr(1, ExactCSpec(3, _HUGE), bs, r),
    lambda r, bs: sfr_bcr(1, ExactCSpec(_HUGE, 1), bs, r),
    lambda r, bs: sfr_bcr(_HUGE, ExactCSpec(3, 2), bs, r),
    lambda r, bs: sfr_aux_count(_HUGE, ExactCSpec(3, 2)),
    lambda r, bs: ntr_abcg2(Fraction(-1), tuple((b, 1) for b in bs), r,
                            scale_c=Fraction(1, _HUGE)),
], ids=["indicator-c", "indicator-n", "sfr-c", "sfr-n", "sfr-variant", "aux-count-variant",
        "abcg2-C"])
def test_a_refused_number_int_cannot_write_raises_a_library_error(call):
    """The message names c, n, the variant or C through format_fraction, so a
    number past int()'s digit limit raises a QuadratizerError, not a bare
    ValueError from the f-string."""
    registry, ids = _vars(3)
    with pytest.raises(QuadratizerError):
        call(registry, ids)
