"""Zero-auxiliary rewrites: deductions, excludable configurations, splits."""

import itertools
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadratizer import verify
from quadratizer.errors import (
    DeductionUnproven,
    DomainViolation,
    ElcUnproven,
    EnumerationCapExceeded,
    InvalidParameter,
)
from quadratizer.poly import Domain, Polynomial, VariableRegistry, monomial_vars
from quadratizer.rewrites import (
    Deduction,
    _cofactor,
    _elc_penalty,
    apply_deduc_reduc,
    apply_elc,
    elc_cancel,
    find_elcs,
    find_zero_deductions,
    most_connected_variable,
    solve_by_splitting,
    split,
)
from quadratizer.textio import parse_polynomial
from quadratizer.verify import check_conditional, enumerate_min, value_range

from conftest import (
    DEDUC_INSTANCE,
    DEDUC_REDUCED,
    SPLIT_INSTANCE,
    argmin_set,
    brute_force_min,
    naive_value,
)


def test_find_deductions_worked_instance():
    p = parse_polynomial(DEDUC_INSTANCE)
    deductions = find_zero_deductions(p, max_arity=2)
    monomials = {d.monomial for d in deductions}
    assert ((0, 1), (1, 1)) in monomials  # the b1*b2 = 0 deduction
    for d in deductions:  # each is proved again when it is applied
        apply_deduc_reduc(p, d)
    # every reported deduction really vanishes at every minimizer
    _, minimizers = enumerate_min(p)
    for d in deductions:
        for m in minimizers:
            assert any(m[v] == 0 for v, _ in d.monomial)


def test_find_deductions_single_positive_literal():
    registry = VariableRegistry()
    b = registry.add_variable(Domain.BOOLEAN)
    p = Polynomial.variable(registry, b)
    deductions = find_zero_deductions(p, max_arity=1)
    assert [d.monomial for d in deductions] == [((b, 1),)]


def test_find_deductions_cubic_objective(cubic_objective):
    # unique minimum at (1,1,1,0): every monomial touching b4 vanishes there
    deductions = find_zero_deductions(cubic_objective, max_arity=2)
    monomials = {d.monomial for d in deductions}
    assert ((3, 1),) in monomials
    assert ((0, 1), (3, 1)) in monomials


def test_deduc_reduc_worked_instance():
    p = parse_polynomial(DEDUC_INSTANCE)
    result = apply_deduc_reduc(p, Deduction(((0, 1), (1, 1))))
    expected = parse_polynomial(DEDUC_REDUCED, p.registry)
    assert result.output == expected  # the lam = 6 = max(4 + b3 + b3 b4) form
    report = check_conditional(p, result.output)
    assert report.passed


def test_deduc_reduc_empty_cofactor():
    p = parse_polynomial("b1 b2 + b3")
    deduction = Deduction(((2, 1),))  # b3 = 0 at minima
    result = apply_deduc_reduc(p, deduction)
    # cofactor of b3 is the constant 1, so auto-lam is 1
    assert result.output == parse_polynomial("b1 b2 + b3", p.registry)
    # a monomial dividing no term at all: zero cofactor, auto-lam 0
    absent = Deduction(((1, 1), (2, 1)))  # b2 b3 = 0 at minima
    result = apply_deduc_reduc(p, absent)
    assert result.output == p


def test_deduc_reduc_degree_drops_with_nonconstant_cofactor():
    p = parse_polynomial(DEDUC_INSTANCE)
    result = apply_deduc_reduc(p, Deduction(((0, 1), (1, 1))))
    assert result.output.degree() < p.degree()


def test_deduc_reduc_requires_proof():
    p = parse_polynomial(DEDUC_INSTANCE)
    false = Deduction(((0, 1),))  # b1 = 1 at every global minimizer
    with pytest.raises(DeductionUnproven):
        apply_deduc_reduc(p, false)


def test_deduc_reduc_random_instances_preserve_minima():
    rng = random.Random(7)
    for _ in range(10):
        registry = VariableRegistry()
        ids = [registry.add_variable(Domain.BOOLEAN) for _ in range(6)]
        terms = {}
        for _ in range(rng.randint(3, 8)):
            size = rng.randint(1, 4)
            subset = tuple(sorted(rng.sample(ids, size)))
            mono = tuple((v, 1) for v in subset)
            terms[mono] = terms.get(mono, 0) + rng.randint(-3, 3)
        p = Polynomial(registry, {m: Fraction(c) for m, c in terms.items() if c})
        deductions = find_zero_deductions(p, max_arity=2)
        if not deductions:
            continue
        result = apply_deduc_reduc(p, deductions[0])
        assert check_conditional(p, result.output).passed


def test_find_elcs_worked_instance(cubic_objective):
    elcs = find_elcs(cubic_objective, [0, 1, 2])
    assert {0: 1, 1: 0, 2: 0} in elcs  # the (1,0,0) configuration
    # soundness: no minimizer extends any reported configuration
    _, minimizers = enumerate_min(cubic_objective)
    for config in elcs:
        for m in minimizers:
            assert any(m[v] != x for v, x in config.items())
    # completeness at full arity: everything except the minimizer's projection
    full = [c for c in elcs if len(c) == 3]
    assert len(full) == 7


def test_find_elcs_trailing_pair(cubic_objective):
    # on (b3, b4) the unique minimizer restricts to (1, 0): the b3 = 0
    # extensions are excludable, b3 = 1 alone is not
    elcs = find_elcs(cubic_objective, [2, 3])
    assert {2: 0} in elcs
    assert {2: 0, 3: 0} in elcs and {2: 0, 3: 1} in elcs
    assert {3: 1} in elcs and {2: 1, 3: 1} in elcs
    assert {2: 1} not in elcs and {2: 1, 3: 0} not in elcs


def test_find_elcs_unique_all_zero_minimizer():
    p = parse_polynomial("b1 + b2")
    elcs = find_elcs(p, [0, 1])
    assert {0: 1} in elcs and {1: 1} in elcs
    assert {0: 0} not in elcs


def test_apply_elc_reproduces_printed_reduction(cubic_objective, quadratic_objective):
    result = apply_elc(cubic_objective, {0: 1, 1: 0, 2: 0}, alpha=4)
    expected = parse_polynomial(
        "b1 b2 + b2 b3 + b3 b4 + 4 b1 - 4 b1 b2 - 4 b1 b3",
        cubic_objective.registry,
    )
    assert result.output == expected
    assert argmin_set(result.output) == argmin_set(cubic_objective)


def test_apply_elc_refuses_a_bad_alpha_before_its_proof():
    """A chain of 22 {0,1} variables is past the state cap, so the proof would
    raise EnumerationCapExceeded; a negative or inexact alpha is refused first."""
    p = parse_polynomial(" ".join(f"+ b{i} b{i + 1}" for i in range(1, 22)))
    with pytest.raises(EnumerationCapExceeded):
        apply_elc(p, {0: 1})
    with pytest.raises(InvalidParameter, match="alpha must be >= 0, got -1"):
        apply_elc(p, {0: 1}, alpha=-1)
    with pytest.raises(TypeError, match="exact rationals, got float"):
        apply_elc(p, {0: 1}, alpha=0.5)


def test_apply_elc_alpha_zero_is_identity(cubic_objective):
    result = apply_elc(cubic_objective, {0: 1, 1: 0, 2: 0}, alpha=0)
    assert result.output == cubic_objective


def test_apply_elc_auto_alpha(cubic_objective):
    result = apply_elc(cubic_objective, {0: 1, 1: 0, 2: 0})
    # range of the worked cubic is [-2, 2], so auto alpha is 5
    assert result.output.coefficient(((0, 1),)) == 5
    assert argmin_set(result.output) == argmin_set(cubic_objective)


def test_apply_elc_rejects_unproven(cubic_objective):
    with pytest.raises(ElcUnproven):
        apply_elc(cubic_objective, {0: 1, 1: 1, 2: 1})  # the minimizer itself


def test_apply_elc_rejects_a_configuration_outside_zero_one():
    p = parse_polynomial("b1 b2 + t1")
    with pytest.raises(DomainViolation, match="excludable configurations use"):
        apply_elc(p, {p.registry.by_label("t1"): 1})
    with pytest.raises(DomainViolation, match="value 2 is not in"):
        apply_elc(p, {0: 2})


def test_deduc_reduc_proves_only_zero_one_monomials():
    """A ternary variable in the monomial raises before any proof."""
    p = parse_polynomial("b1 t1 - t1")
    t1 = p.registry.by_label("t1")
    with pytest.raises(DomainViolation, match="deductions are defined over"):
        apply_deduc_reduc(p, Deduction(((0, 1), (t1, 1))))


def test_asserted_deduc_reduc_keeps_the_zero_one_rule():
    """A spin deduction raises, where it once returned `2 z1` labelled
    conditional-min; no argument gets a deduction past the {0,1} rule."""
    with pytest.raises(DomainViolation, match="deductions are defined over"):
        apply_deduc_reduc(parse_polynomial("z1 z2 + z1"), Deduction(((0, 1),)))


def test_apply_elc_random_instances():
    rng = random.Random(11)
    for _ in range(10):
        registry = VariableRegistry()
        ids = [registry.add_variable(Domain.BOOLEAN) for _ in range(5)]
        terms = {}
        for _ in range(rng.randint(3, 7)):
            subset = tuple(sorted(rng.sample(ids, rng.randint(1, 3))))
            mono = tuple((v, 1) for v in subset)
            terms[mono] = terms.get(mono, 0) + rng.randint(-3, 3)
        p = Polynomial(registry, {m: Fraction(c) for m, c in terms.items() if c})
        elcs = find_elcs(p, ids[:3])
        if not elcs:
            continue
        result = apply_elc(p, elcs[0])
        assert argmin_set(result.output) == argmin_set(p)


def test_elc_cancel_picks_printed_configuration(cubic_objective):
    choice = elc_cancel(cubic_objective, ((0, 1), (1, 1), (2, 1)))
    assert choice is not None
    config, alpha = choice
    assert config == {0: 1, 1: 0, 2: 0}
    assert alpha == 4


def test_elc_cancel_finds_nothing_to_cancel():
    p = parse_polynomial("b1 b2 - b3")
    assert elc_cancel(p, ((0, 1), (2, 1))) is None  # b1 b3 is not a term of p
    # cancelling +b1 b2 needs (1,0) or (0,1) excluded, and both are minimizers
    assert elc_cancel(p, ((0, 1), (1, 1))) is None


def test_elc_cancel_rejects_a_monomial_outside_zero_one():
    """A spin monomial has no {0,1} configuration to exclude: elc_cancel
    raises as find_elcs does, instead of returning a spin set to 0."""
    p = parse_polynomial("z1 z2 + z1")
    with pytest.raises(DomainViolation, match="excludable configurations use"):
        elc_cancel(p, ((0, 1), (1, 1)))
    with pytest.raises(DomainViolation, match="excludable configurations use"):
        find_elcs(p, [0, 1])


def test_split_both_branches(cubic_objective):
    at_zero, at_one = split(cubic_objective, 0)
    assert at_zero == parse_polynomial("b2 b3 + b3 b4", cubic_objective.registry)
    import itertools

    for values in itertools.product((0, 1), repeat=3):
        a = dict(zip((1, 2, 3), values))
        assert naive_value(at_zero, a) == naive_value(cubic_objective, {**a, 0: 0})
        assert naive_value(at_one, a) == naive_value(cubic_objective, {**a, 0: 1})


def test_split_absent_variable():
    p = parse_polynomial("b1 b2 + b3")
    registry = p.registry
    extra = registry.add_variable(Domain.BOOLEAN)
    low, high = split(p, extra)
    assert low == p and high == p


def test_most_connected_variable():
    p = parse_polynomial(SPLIT_INSTANCE)
    assert most_connected_variable(p) == 0  # b1 sits in three high-degree terms


def test_solve_by_splitting_worked_instance():
    p = parse_polynomial(SPLIT_INSTANCE)
    result = solve_by_splitting(p)
    # exactly three quadratic subproblems, every one degree <= 2
    assert len(result.subproblems) == 3
    assert all(q.degree() <= 2 for q in result.subproblems)
    want_min, _ = brute_force_min(p)
    assert result.minimum == want_min
    assert naive_value(p, result.argmin) == want_min


def test_solve_by_splitting_quadratic_input_direct():
    p = parse_polynomial("b1 b2 - b3")
    result = solve_by_splitting(p)
    assert len(result.subproblems) == 1
    assert result.minimum == -1


def test_solve_by_splitting_custom_solver_contract():
    p = parse_polynomial(SPLIT_INSTANCE)
    calls = []

    def solver(q):
        calls.append(q)
        minimum, minimizers = enumerate_min(q)
        return minimum, minimizers[0]

    result = solve_by_splitting(p, quad_solver=solver)
    assert calls == result.subproblems
    assert result.minimum == brute_force_min(p)[0]


def test_solve_by_splitting_rejects_spin():
    registry = VariableRegistry()
    zs = [registry.add_variable(Domain.SPIN) for _ in range(3)]
    p = Polynomial.product(registry, zs)
    with pytest.raises(DomainViolation):
        solve_by_splitting(p)


def _ref_elc_penalty(registry, config):
    """The configuration's indicator as it was built, one literal at a time."""
    penalty = Polynomial.constant(registry, 1)
    for var in sorted(config):
        b = Polynomial.variable(registry, var)
        penalty = penalty * (b if config[var] == 1 else (1 - b))
    return penalty


@pytest.mark.seed_loop
@given(st.permutations(range(10)), st.integers(1, 10),
       st.lists(st.sampled_from((0, 1)), min_size=10, max_size=10))
@settings(max_examples=100, deadline=None)
def test_elc_penalty_matches_the_literal_products(ids, k, values):
    """Up to 10 configured variables, keyed in random id order: the one-pass
    expansion gives the literal-by-literal product's terms in dict order."""
    registry = VariableRegistry()
    for _ in range(10):
        registry.add_variable(Domain.BOOLEAN)
    config = dict(zip(ids[:k], values))
    assert list(_elc_penalty(registry, config).terms.items()) == list(
        _ref_elc_penalty(registry, config).terms.items()
    )


def _ref_cofactor(p, mono):
    """The cofactor split as it was, summing the cofactor in its own dict."""
    vars = set(monomial_vars(mono))
    cofactor = {}
    rest = {}
    for term, coeff in p.terms.items():
        term_vars = set(monomial_vars(term))
        if vars <= term_vars:
            reduced = tuple((v, e) for v, e in term if v not in vars)
            cofactor[reduced] = cofactor.get(reduced, Fraction(0)) + coeff
        else:
            rest[term] = coeff
    return Polynomial(p.registry, cofactor), Polynomial(p.registry, rest)


def _ref_deduc_reduc(p, mono):
    """apply_deduc_reduc's lam and output over the old split."""
    cofactor, rest = _ref_cofactor(p, mono)
    lam = value_range(cofactor)[1] if cofactor else Fraction(0)
    return lam, rest + Polynomial(p.registry, {mono: lam})


def _check_deduc_reduc_against_reference(p, mono):
    """The split always matches the old loop.  The rewrite raises
    DomainViolation for a monomial outside {0,1}, DeductionUnproven when a
    naive minimizer sets every variable of it to 1 (a variable p does not
    use is free), and otherwise matches the old output and lam."""
    cofactor, rest = _cofactor(p, mono)
    ref_cofactor, ref_rest = _ref_cofactor(p, mono)
    assert (cofactor.terms, rest.terms) == (ref_cofactor.terms, ref_rest.terms)
    if any(p.registry.domain(v) is not Domain.BOOLEAN for v, _ in mono):
        with pytest.raises(DomainViolation):
            apply_deduc_reduc(p, Deduction(mono))
        return
    if any(all(m.get(v, 1) == 1 for v, _ in mono) for m in brute_force_min(p)[1]):
        with pytest.raises(DeductionUnproven):
            apply_deduc_reduc(p, Deduction(mono))
        return
    lam, output = _ref_deduc_reduc(p, mono)
    result = apply_deduc_reduc(p, Deduction(mono))
    assert result.output.terms == output.terms
    assert result.trace.endswith(f", lam={lam})")


def test_cofactor_with_a_zero_partial_sum_matches_the_old_loop():
    """Over two ternary variables t1^2 t2 and t1 t2^2 reduce to the same
    cofactor monomial as t1 t2, and the first two of the three constants sum
    to zero on the way: the constructor drops that entry and adds it again
    after b3, where the old loop kept its place.  Only the order differs."""
    p = parse_polynomial("t1 t2 - t1^2 t2 + t1 t2 b3 + 2 t1 t2^2")
    mono = tuple((p.registry.by_label(name), 1) for name in ("t1", "t2"))
    assert list(_cofactor(p, mono)[0].terms) != list(_ref_cofactor(p, mono)[0].terms)
    _check_deduc_reduc_against_reference(p, mono)


@pytest.mark.seed_loop
@given(st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_deduc_reduc_matches_the_old_cofactor_loop(seed):
    rng = random.Random(seed)
    registry = VariableRegistry()
    vars = [registry.add_variable(Domain.from_tag(rng.choice("bbtz"))) for _ in range(rng.randint(2, 4))]
    terms = [
        (
            tuple((v, rng.randint(1, 2)) for v in sorted(rng.sample(vars, rng.randint(0, len(vars))))),
            rng.choice((-3, -2, -1, 1, 2, 3)),
        )
        for _ in range(rng.randint(1, 8))
    ]
    p = Polynomial(registry, terms)
    mono = tuple((v, 1) for v in sorted(rng.sample(vars, rng.randint(1, len(vars)))))
    _check_deduc_reduc_against_reference(p, mono)


@pytest.mark.seed_loop
@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_rewrites_accept_exactly_the_facts_no_naive_minimizer_matches(seed):
    """Every deduction of arity <= 2 and every configuration over <= 3
    variables, against the naive minimizers: a rewrite accepts a fact exactly
    when none matches it, the finders list exactly the accepted facts, and an
    accepted rewrite keeps the minimum and passes check_conditional.  Each
    accepted configuration does so again at alpha 0, at a random positive
    rational, and at elc_cancel's alpha where elc_cancel picks it; a negative
    alpha raises."""
    rng = random.Random(seed)
    registry = VariableRegistry()
    vars = [registry.add_variable(Domain.BOOLEAN) for _ in range(rng.randint(2, 5))]
    p = Polynomial(registry, [
        (
            tuple((v, 1) for v in sorted(rng.sample(vars, rng.randint(0, min(3, len(vars)))))),
            rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)),
        )
        for _ in range(rng.randint(1, 6))
    ])
    low, minimizers = brute_force_min(p)

    def matched(config):
        # a variable no term of p uses is free: it matches either value
        return any(all(m.get(v, x) == x for v, x in config.items()) for m in minimizers)

    def check(original, result):
        assert check_conditional(original, result.output).passed
        assert brute_force_min(result.output)[0] == low

    deductions = []
    for subset in (s for arity in (1, 2) for s in itertools.combinations(vars, arity)):
        deduction = Deduction(tuple((v, 1) for v in subset))
        try:
            result = apply_deduc_reduc(p, deduction)
        except DeductionUnproven:
            assert matched(dict.fromkeys(subset, 1))
            continue
        assert not matched(dict.fromkeys(subset, 1))
        check(p, result)
        if set(subset) <= set(p.variables()):
            deductions.append(deduction)
    assert find_zero_deductions(p, 2) == deductions

    cancels = {}  # elc_cancel's pick for each monomial that has one
    for mono in (m for m in p.terms if m):
        choice = elc_cancel(p, mono)
        if choice is not None:
            cancels[tuple(sorted(choice[0].items()))] = (mono, choice[1])

    def random_alpha():
        return Fraction(rng.randint(1, 30), rng.randint(1, 7))

    elcs = []
    for arity in range(1, min(3, len(vars)) + 1):
        for subset in itertools.combinations(vars, arity):
            for values in itertools.product((0, 1), repeat=arity):
                config = dict(zip(subset, values))
                try:
                    result = apply_elc(p, config)
                except ElcUnproven:
                    assert matched(config)
                    continue
                assert not matched(config)
                check(p, result)
                elcs.append(config)
                for alpha in (0, random_alpha()):
                    check(p, apply_elc(p, config, alpha))
                with pytest.raises(InvalidParameter):
                    apply_elc(p, config, -random_alpha())
                key = tuple(sorted(config.items()))
                if key in cancels:
                    mono, alpha = cancels.pop(key)
                    result = apply_elc(p, config, alpha)
                    check(p, result)
                    assert mono not in result.output.terms  # the penalty cancels it
    assert [c for c in find_elcs(p, vars) if len(c) <= 3] == elcs
    assert not cancels  # every pick is a configuration apply_elc accepts


@pytest.mark.seed_loop
@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_rewrites_accept_exactly_the_facts_in_small_blocks(seed):
    """The same facts against the naive minimizers, with the oracle's kernel
    at 4-state blocks: an objective here has at most 5 {0,1} variables, so
    only blocks this small give enumerate_min three slow variables."""
    with mock.patch.object(verify, "BLOCK_STATES", 4):
        test_rewrites_accept_exactly_the_facts_no_naive_minimizer_matches.hypothesis.inner_test(seed)
