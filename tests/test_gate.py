"""The proof gate, verify.check_claim, on the outputs of every gadget family,
and the degenerate-transform sweep: every public check and every
`verify --mode` on inputs at the edges of their contract."""

import itertools
import json
import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadratizer.cli import main
from quadratizer.errors import (
    InvalidParameter,
    QuadratizerError,
    UnknownVariable,
    VariableMismatch,
    VerificationFailed,
)
from quadratizer.gadgets import (
    EXPERIMENTAL,
    GADGETS,
    MUST_PASS,
    ExactCSpec,
    choose_rosenberg_pair,
    czw_count4,
    discover_fgbz_groups,
    exact_c_indicator,
    fgbz_negative,
    fgbz_positive,
    rosenberg_pair,
    sfr_bcr,
    ternary_to_binary,
)
from quadratizer.pipeline import Strategy, quadratize
from quadratizer.poly import Domain, Polynomial, VariableRegistry, monomial_vars
from quadratizer.rewrites import (
    Deduction,
    apply_deduc_reduc,
    apply_elc,
    find_elcs,
    find_zero_deductions,
)
from quadratizer.textio import format_polynomial, parse_polynomial, polynomial_to_json
from quadratizer.verify import (
    Guarantee,
    VerificationReport,
    check_claim,
    check_conditional,
    check_groundstate,
    check_pointwise,
    check_spectrum,
    check_ternary_encoding,
)

from conftest import CUBIC_OBJECTIVE, DEDUC_INSTANCE, all_assignments, naive_value, pointwise_holds

POINTWISE, GROUND, CONDITIONAL = (
    Guarantee.POINTWISE_MIN, Guarantee.GROUND_STATE, Guarantee.CONDITIONAL_MIN
)


# ---------------------------------------------------------------------------
# The naive verdict of each guarantee, by the conftest brute force


def _argmins(values: dict) -> set:
    low = min(values.values())
    return {state for state, value in values.items() if value == low}


def _naive_verdict(guarantee, original, transformed, aux) -> bool:
    if guarantee == POINTWISE:
        return pointwise_holds(original, transformed, aux)
    if guarantee == CONDITIONAL:
        vars = set(original.variables()) | set(transformed.variables())
        states = [(tuple(sorted(a.items())), a) for a in all_assignments(original, vars)]
        want = {key: naive_value(original, a) for key, a in states}
        got = {key: naive_value(transformed, a) for key, a in states}
        return min(want.values()) == min(got.values()) and _argmins(want) == _argmins(got)
    aux = sorted(set(aux))
    aux_spaces = [transformed.registry.domain(a).values for a in aux]
    want, got = {}, {}
    for x in all_assignments(original):
        key = tuple(sorted(x.items()))
        want[key] = naive_value(original, x)
        got[key] = min(
            naive_value(transformed, {**x, **dict(zip(aux, values))})
            for values in itertools.product(*aux_spaces)
        )
    return _argmins(want) == _argmins(got)


# ---------------------------------------------------------------------------
# Each family's outputs as (guarantee, original, transformed, aux, image):
# `image` is what the picked check must see, the twin image of a spin
# original whose transform lives over the twins, else the original.


def _random_poly(rng, registry, vars, terms=5):
    """Random products of `vars` plus one product of the first three, which
    is put back if the others cancel it, so the degree is at least 3."""
    subsets = [rng.sample(vars, rng.randint(1, len(vars))) for _ in range(rng.randint(1, terms))]
    products = [(tuple(subset), rng.choice((-1, 1)) * rng.randint(1, 5))
                for subset in subsets + [vars[:3]]]
    p = Polynomial.from_products(registry, products)
    return p if p.degree() >= 3 else p + Polynomial.product(registry, vars[:3])


def _variables(registry, domain, n):
    return [registry.add_variable(domain, f"{domain.tag}{i + 1}") for i in range(n)]


def _single_term(status, rng):
    cases = []
    for name, row in sorted(GADGETS.items()):
        if row.status != status:
            continue
        k = rng.choice([k for k in row.degrees_up_to(5) if k >= 3])
        registry = VariableRegistry()
        mono = tuple((v, 1) for v in _variables(registry, row.domain, k))
        sign = {"negative": -1, "positive": 1}.get(row.sign) or rng.choice((-1, 1))
        coeff = sign * Fraction(rng.randint(1, 6), rng.randint(1, 2))
        result = row.apply(coeff, mono, registry)
        original = Polynomial(registry, {mono: coeff})
        on_twins = not set(result.output.variables()) <= set(original.variables()) | set(result.aux)
        image = original.to_boolean() if on_twins else original
        cases.append((result.guarantee, original, result.output, result.aux, image))
    return cases


def _rosenberg(rng):
    registry = VariableRegistry()
    p = _random_poly(rng, registry, _variables(registry, Domain.BOOLEAN, 4))
    result = rosenberg_pair(p, *choose_rosenberg_pair(p))
    return [(result.guarantee, p, result.output, result.aux, p)]


def _fgbz(rng):
    """Three terms of one sign over b1 b2 and three distinct nonempty tails
    from b3..b5, so the terms never merge and each sign gives one group."""
    cases = []
    for sign, apply in ((-1, fgbz_negative), (1, fgbz_positive)):
        registry = VariableRegistry()
        xs = _variables(registry, Domain.BOOLEAN, 5)
        tails = [tail for size in (1, 2, 3) for tail in itertools.combinations(xs[2:], size)]
        p = Polynomial.from_products(registry, [
            (tuple(xs[:2]) + tail, sign * rng.randint(1, 5)) for tail in rng.sample(tails, 3)
        ])
        group = discover_fgbz_groups(p, "negative" if sign < 0 else "positive")[0]
        result = apply(group, registry)
        original = Polynomial(registry, dict(group.members))
        cases.append((result.guarantee, original, result.output, result.aux, original))
    return cases


def _sfr_bcr(rng):
    variant, n = rng.randint(1, 4), rng.randint(2, 4)
    valid = [c for c in range(n + 1) if (1 <= c and n <= 2 * c if variant in (1, 3) else 2 * c <= n)]
    spec = ExactCSpec(n, rng.choice(valid), Fraction(rng.randint(1, 4), rng.randint(1, 2)))
    registry = VariableRegistry()
    xs = _variables(registry, Domain.BOOLEAN, n)
    result = sfr_bcr(variant, spec, xs, registry)
    target = exact_c_indicator(spec, xs, registry)
    return [(result.guarantee, target, result.output, result.aux, target)]


def _czw_count4(rng):
    registry = VariableRegistry()
    xs = _variables(registry, Domain.BOOLEAN, 4)
    result = czw_count4(rng.choice([None, rng.randint(40, 60)]), "b1b2b3b4", xs, registry)
    target = Polynomial.product(registry, xs)
    return [(result.guarantee, target, result.output, result.aux, target)]


def _deduc_reduc(rng):
    p = parse_polynomial(DEDUC_INSTANCE)
    pairs = [(p, Deduction(((0, 1), (1, 1))))]
    registry = VariableRegistry()
    q = _random_poly(rng, registry, _variables(registry, Domain.BOOLEAN, 4))
    pairs += [(q, d) for d in find_zero_deductions(q, 2)[:2]]
    cases = []
    for original, deduction in pairs:
        result = apply_deduc_reduc(original, deduction)
        cases.append((result.guarantee, original, result.output, result.aux, original))
    return cases


def _elc(rng):
    p = parse_polynomial(CUBIC_OBJECTIVE)
    pairs = [(p, {0: 1, 1: 0, 2: 0}, 4)]
    registry = VariableRegistry()
    q = _random_poly(rng, registry, _variables(registry, Domain.BOOLEAN, 4))
    pairs += [(q, elc, "auto") for elc in find_elcs(q, q.variables()[:2])[:2]]
    cases = []
    for original, elc, alpha in pairs:
        result = apply_elc(original, elc, alpha)
        cases.append((result.guarantee, original, result.output, result.aux, original))
    return cases


def _spin_objectives(rng):
    """A spin objective quadratized through its {0,1} twins, then the same
    registry, twins and all, routed through the spin gadget ntr_rbl, whose
    output uses the spins themselves."""
    registry = VariableRegistry()
    zs = _variables(registry, Domain.SPIN, 4)
    quadratic = Polynomial.from_products(registry, [
        (tuple(rng.sample(zs, rng.randint(1, 2))), rng.randint(-3, 3)) for _ in range(4)
    ])
    cubic = Polynomial.product(registry, zs[:3], -rng.randint(1, 3))
    spin = _random_poly(rng, registry, zs)  # spin terms of degree up to 4, both signs
    cases = []
    for p in (spin, quadratic + cubic):
        result = quadratize(p)
        cases.append((result.guarantee, p, result.output, result.aux, p.to_boolean()))
    result = quadratize(quadratic + cubic, Strategy(negative_route=("ntr_rbl",)))
    cases.append((result.guarantee, quadratic + cubic, result.output, result.aux, quadratic + cubic))
    return cases


FAMILIES = {
    "single-term must-pass": lambda rng: _single_term(MUST_PASS, rng),
    "single-term experimental": lambda rng: _single_term(EXPERIMENTAL, rng),
    "rosenberg": _rosenberg,
    "fgbz": _fgbz,
    "sfr_bcr": _sfr_bcr,
    "czw_count4": _czw_count4,
    "apply_deduc_reduc": _deduc_reduc,
    "apply_elc": _elc,
    "spin objectives": _spin_objectives,
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=5, deadline=None)
def test_gate_gives_the_report_of_the_check_it_picks(family, seed):
    """pointwise-min runs check_pointwise, conditional-min check_conditional
    with no auxiliaries, ground-state check_groundstate, on the twin
    image where the transform lives over the twins; the verdict is the
    conftest brute force's."""
    cases = FAMILIES[family](random.Random(seed))
    assert cases
    for guarantee, original, transformed, aux, image in cases:
        report = check_claim(guarantee, original, transformed, aux)
        if guarantee == POINTWISE:
            assert report == check_pointwise(image, transformed, aux)
        elif guarantee == CONDITIONAL:
            assert report == check_conditional(image, transformed)
        else:
            assert report == check_groundstate(image, transformed, aux)
        assert report.passed == _naive_verdict(guarantee, image, transformed, aux)


def test_fgbz_family_gives_both_signs_where_random_tails_once_merged():
    # at this seed the three tails drawn with repetition were all equal, so
    # the terms merged into one and the family returned no case
    assert [guarantee for guarantee, *_ in _fgbz(random.Random(27722033))] == [POINTWISE] * 2


def test_gate_raises_its_failure_message_with_the_report():
    p = parse_polynomial("b1 b2 b3 - 2 b1 b2 b3 b4")
    result = quadratize(p)
    passed = check_claim(POINTWISE, p, result.output, result.aux).require("unused")
    assert passed.passed and passed == check_pointwise(p, result.output, result.aux)
    broken = result.output + 1
    with pytest.raises(VerificationFailed) as raised:
        check_claim(POINTWISE, p, broken, result.aux).require("the rewrite broke")
    assert str(raised.value) == "the rewrite broke"
    assert raised.value.report == check_pointwise(p, broken, result.aux)
    assert not raised.value.report.passed


def test_gate_uses_the_twin_image_only_when_the_transform_uses_a_twin():
    p = parse_polynomial("z1 z2 - z1")
    image = p.to_boolean()  # allocates the twins b1, b2
    assert check_claim(POINTWISE, p, p, []) == check_pointwise(p, p, [])
    assert check_claim(POINTWISE, p, image, []) == check_pointwise(image, image, [])
    # a spin without a twin keeps the original as it is
    registry = p.registry
    z3 = registry.add_variable(Domain.SPIN, "z3")
    q = p * Polynomial.variable(registry, z3)
    with pytest.raises(QuadratizerError, match="unexpected variables"):
        check_claim(POINTWISE, q, image * Polynomial.variable(registry, z3), [])


def test_gate_refuses_auxiliaries_for_conditional_min():
    """Conditional-min labels zero-auxiliary rewrites: any auxiliary raises
    before an id is looked up, an original variable and an unknown id too."""
    p = parse_polynomial(DEDUC_INSTANCE)
    result = apply_deduc_reduc(p, Deduction(((0, 1), (1, 1))))
    extra = p.registry.add_auxiliary(Domain.BOOLEAN, "unused")
    for aux in ([extra], [extra, -1, extra], [99], [0]):
        with pytest.raises(InvalidParameter, match="^conditional-min takes no auxiliaries, got"):
            check_claim(CONDITIONAL, p, result.output, aux)
    report = check_claim(CONDITIONAL, p, result.output, [])
    assert report == check_conditional(p, result.output) and report.passed


def test_gate_refuses_a_label_it_does_not_know():
    """A mistyped label raises before any check, so it cannot pass a wrong
    output that pointwise-min fails."""
    p = parse_polynomial("b1 b2 b3")
    result = quadratize(p)
    broken = result.output + 1
    assert not check_claim(POINTWISE, p, broken, result.aux).passed
    known = "expected one of conditional-min, ground-state, pointwise-min$"
    for label in ("pointwise", "Pointwise-Min", "", "spectrum"):
        with pytest.raises(InvalidParameter, match=f"^unknown guarantee {label!r}; {known}"):
            check_claim(label, p, broken, result.aux)
    with pytest.raises(InvalidParameter, match=known):  # before the overlap check
        check_claim("pointwise", p, broken, [0])


# ---------------------------------------------------------------------------
# Degenerate-transform sweep


def _without(p, var):
    """p minus every term that holds `var`: the variable cancels out."""
    return p - Polynomial(p.registry, {m: c for m, c in p.terms.items() if var in monomial_vars(m)})


def _degenerate_inputs(rng):
    """(input, original, transformed, aux) around one real quadratization of
    a random {0,1} or spin cubic: a variable cancelled out of the output, an
    auxiliary absent from it, repeated ids, a negative id, an original
    variable passed as an auxiliary, and constant and zero polynomials."""
    registry = VariableRegistry()
    xs = _variables(registry, rng.choice([Domain.BOOLEAN, Domain.SPIN]), 3)
    p = _random_poly(rng, registry, xs, terms=3)
    result = quadratize(p)
    out, aux = result.output, list(result.aux)
    cancelled = _without(out, min(set(out.variables()) - set(aux)))
    absent = registry.add_auxiliary(Domain.BOOLEAN, "sweep")
    constant = Polynomial.constant(registry, rng.randint(-3, 3))
    zero = Polynomial.zero(registry)
    return [
        ("cancelled variable", p, cancelled, aux),
        ("absent auxiliary", p, out, aux + [absent]),
        ("repeated ids", p, out, aux + aux[::-1]),
        ("negative id", p, out, aux + [-1]),
        ("original as auxiliary", p, out, aux + [xs[0]]),
        ("constant", constant, constant + rng.randint(0, 1), []),
        ("constant original", constant, out, aux),
        ("zero", zero, zero, []),
        ("zero transformed", p, zero, aux),
    ]


SWEPT_CHECKS = {
    "check_pointwise": check_pointwise,
    "check_groundstate": check_groundstate,
    "check_spectrum": check_spectrum,
    "check_conditional": lambda o, t, aux: check_conditional(o, t),
    **{f"check_claim[{g}]": partial(check_claim, g) for g in (POINTWISE, GROUND, CONDITIONAL)},
}
DIRECT_FOLDED = {"check_pointwise", "check_groundstate", "check_spectrum"}
READS_AUX = DIRECT_FOLDED | {f"check_claim[{POINTWISE}]", f"check_claim[{GROUND}]"}


def _outcome(call, *args):
    """The report, or the library error raised; any other exception fails."""
    try:
        return call(*args)
    except QuadratizerError as error:
        return error


def _space(registry, vars) -> int:
    count = 1
    for var in set(vars):
        count *= len(registry.domain(var).values)
    return count


@pytest.mark.parametrize("seed", range(12))
def test_degenerate_inputs_give_a_report_or_a_library_error(seed):
    """No other exception escapes.  An auxiliary id outside the registry
    raises instead of aliasing a variable: UnknownVariable, or
    VariableMismatch when the check reads the transform's variables first.
    An original variable passed as an auxiliary raises VariableMismatch
    wherever auxiliaries are read, also when a spin original is proved
    through its twin image.  The gate refuses any auxiliary for a
    conditional-min label with InvalidParameter.
    A folded check enumerates the original's variables and each distinct
    auxiliary once (the gate is left out there: it may enumerate a spin
    original's twin image)."""
    for input_name, original, transformed, aux in _degenerate_inputs(random.Random(seed)):
        for name, check in SWEPT_CHECKS.items():
            outcome = _outcome(check, original, transformed, aux)
            assert isinstance(outcome, (VerificationReport, QuadratizerError)), (input_name, name)
            if name == f"check_claim[{CONDITIONAL}]" and aux:
                assert isinstance(outcome, InvalidParameter), (input_name, outcome)
            elif input_name == "negative id" and name in READS_AUX:
                assert isinstance(outcome, QuadratizerError), (input_name, name, outcome)
            elif input_name == "original as auxiliary" and name in READS_AUX:
                assert isinstance(outcome, VariableMismatch), (input_name, name, outcome)
            elif isinstance(outcome, VerificationReport) and name in DIRECT_FOLDED:
                states = _space(original.registry, original.variables() + aux)
                assert outcome.stats.states_enumerated == states, (input_name, name)


def _ternary_degenerate_inputs(rng):
    registry = VariableRegistry()
    t = registry.add_variable(Domain.TERNARY, "t1")
    b = registry.add_variable(Domain.BOOLEAN, "b1")
    p = Polynomial.from_products(registry, [
        ((t,), rng.randint(-3, 3) or 1), ((t, t), rng.randint(-3, 3)), ((t, b), rng.randint(-3, 3)),
    ])
    lam = Fraction(rng.randint(1, 6), rng.randint(1, 2))
    z1 = len(registry)
    out = ternary_to_binary(p, t, lam, verify=False)
    z2 = z1 + 1
    absent = registry.add_auxiliary(Domain.SPIN, "sweep")
    cancelled = _without(out, z2)
    constant, zero = Polynomial.constant(registry, rng.randint(-3, 3)), Polynomial.zero(registry)
    return lam, [
        ("cancelled variable", p, cancelled, t, (z1, z2)),
        ("absent auxiliary", p, out, t, (z1, absent)),
        ("repeated ids", p, out, t, (z1, z1)),
        ("negative id", p, out, t, (z1, -1)),
        ("negative id", p, out, -1, (z1, z2)),
        ("original as auxiliary", p, out, t, (b, z2)),
        ("constant", constant, constant, t, (z1, z2)),
        ("zero", zero, zero, t, (z1, z2)),
    ]


@pytest.mark.parametrize("seed", range(12))
def test_ternary_encoding_check_on_degenerate_inputs(seed):
    lam, inputs = _ternary_degenerate_inputs(random.Random(seed))
    for input_name, original, transformed, t, z_pair in inputs:
        outcome = _outcome(check_ternary_encoding, original, transformed, t, z_pair, lam)
        assert isinstance(outcome, (VerificationReport, QuadratizerError)), input_name
        if input_name == "negative id":
            assert isinstance(outcome, UnknownVariable), (t, z_pair, outcome)


@pytest.mark.parametrize("seed", range(6))
def test_verify_modes_on_degenerate_inputs_exit_with_documented_codes(tmp_path, capsys, seed):
    """Each input of the API sweep as files: the original as grammar text,
    the transform as polynomial JSON, the ids as `--aux` labels."""
    for index, (input_name, original, transformed, aux) in enumerate(
        _degenerate_inputs(random.Random(seed))
    ):
        registry = original.registry
        source, quadratized = tmp_path / f"{index}.txt", tmp_path / f"{index}.json"
        source.write_text(format_polynomial(original) + "\n")
        quadratized.write_text(polynomial_to_json(transformed))
        names = ",".join(registry.label(v) if 0 <= v < len(registry) else str(v) for v in aux)
        for mode in ("pointwise", "groundstate", "conditional"):
            argv = ["verify", "--original", str(source), "--quadratized", str(quadratized),
                    "--mode", mode]
            rc = main(argv + ([f"--aux={names}"] if names else []))
            out = capsys.readouterr().out
            assert rc in (0, 1, 2, 3), (input_name, mode)
            if rc in (0, 1):
                assert json.loads(out)["passed"] is (rc == 0), (input_name, mode)
            if input_name in ("negative id", "original as auxiliary"):
                assert rc == 2, (input_name, mode)
