"""Mutation tests: each proof path against the naive oracle in conftest.

A real output is mutated one way at a time: one output coefficient +1/2 or
-1/2, one output term dropped, or one variable in one output term renamed to
another auxiliary or original variable.  Renames move any variable of a
rewrite's output and of a gadget's output at k = 3..4, and only auxiliaries
at k = 5..6.  The library's verdict on every mutant must equal the naive
verdict; a pointwise output's naive values are tabulated once, in exact
integers, and each mutant re-evaluates only the terms where it differs.  A
mutant that still passes is not a miss when the naive oracle passes it too
(penalty slack is a valid output), so the survivors are pinned per gadget,
degree and operator: a change that adds or removes slack shows up as a diff
of these tables.  Random {0,1} and spin objectives routed under every CLI
preset add a corpus with no pinned table: there only agreement is checked,
and renames move original variables too on objectives of at most 4
variables.  A spin objective past degree 2 routes through its {0,1} twins:
check_claim judges its mutants against the spin original, the naive oracle
against the twin image.
"""

import itertools
import random
from collections import Counter
from fractions import Fraction
from math import lcm, prod
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadratizer.cli import STRATEGY_PRESETS, _build_strategy
from quadratizer.gadgets import GADGETS, MUST_PASS, apply_gadget
from quadratizer.pipeline import quadratize
from quadratizer.poly import Domain, Polynomial, VariableRegistry
from quadratizer.rewrites import apply_deduc_reduc, apply_elc, find_elcs, find_zero_deductions
from quadratizer.textio import parse_polynomial
from quadratizer.verify import DEFAULT_STATE_CAP, Guarantee, check_claim, check_conditional

from conftest import (
    CUBIC_OBJECTIVE,
    DEDUC_INSTANCE,
    all_assignments,
    naive_value,
)

HALF = Fraction(1, 2)
# the routed spin corpus's draws per preset, and mutants checked per draw
SPIN_EXAMPLES, SPIN_MUTANTS = 8, 200

# (gadget, degree, operator) -> mutants that pass check_claim; the rest of
# the 3631 mutants of the must-pass gadgets at k = 3..6 (2275 of them
# renames) fail it
GADGET_SURVIVORS = {
    ("ntr_gbp", 3, "+1/2"): 2,
    ("ntr_rbl", 3, "+1/2"): 1,
    ("ntr_rbl", 3, "-1/2"): 1,
    ("ntr_rbl", 3, "drop"): 1,
    ("ptr_bg", 3, "+1/2"): 1,
    ("ptr_bg", 4, "+1/2"): 2,
    ("ptr_bg", 4, "rename"): 2,
    ("ptr_bg", 5, "+1/2"): 3,
    ("ptr_bg", 6, "+1/2"): 4,
    ("ptr_gbp", 3, "+1/2"): 1,
    ("ptr_ishikawa", 5, "rename"): 5,
    ("ptr_kz", 3, "+1/2"): 3,
}

# (rewrite, operator) -> (mutants, mutants that pass check_conditional), over
# the 7 proven deductions and the 19 proven configurations below
REWRITE_SURVIVORS = {
    ("deduc_reduc", "+1/2"): (39, 32),
    ("deduc_reduc", "-1/2"): (39, 32),
    ("deduc_reduc", "drop"): (39, 17),
    ("deduc_reduc", "rename"): (180, 74),
    ("elc", "+1/2"): (111, 19),
    ("elc", "-1/2"): (111, 19),
    ("elc", "drop"): (111, 0),
    ("elc", "rename"): (618, 237),
}

GADGET_CASES = [
    (name, k)
    for name, descriptor in sorted(GADGETS.items())
    if descriptor.status == MUST_PASS
    for k in descriptor.degrees_up_to(6)
    if k >= 3
]


def _mutants(p: Polynomial, aux=(), rename_originals=True):
    """(operator, mutant) for each term of p, in sorted term order; a rename
    moves one variable of the term (only an auxiliary unless
    rename_originals) to each other variable of p or `aux`; renaming to a
    variable the term holds merges the two factors."""
    targets = sorted(set(p.variables()) | set(aux))
    for mono, coeff in sorted(p.terms.items()):
        yield "+1/2", p + Polynomial(p.registry, {mono: HALF})
        yield "-1/2", p + Polynomial(p.registry, {mono: -HALF})
        yield "drop", p - Polynomial(p.registry, {mono: coeff})
        for a in (v for v, _ in mono if rename_originals or v in aux):
            for v in (v for v in targets if v != a):
                renamed = tuple((v if w == a else w, e) for w, e in mono)
                yield "rename", p + Polynomial(p.registry, {renamed: coeff, mono: -coeff})


def _argmin(values: dict) -> set:
    low = min(values.values())
    return {key for key, value in values.items() if value == low}


def _groundstate_holds(original, transformed, aux) -> bool:
    """Naive ground-state rule: minimizing `transformed` over the auxiliaries
    at each original assignment gives the original's argmin set."""
    aux = sorted(aux)
    domains = [transformed.registry.domain(a).values for a in aux]
    folded, values = {}, {}
    for x in all_assignments(original):
        key = tuple(sorted(x.items()))
        folded[key] = min(
            naive_value(transformed, {**x, **dict(zip(aux, combo))})
            for combo in itertools.product(*domains)
        )
        values[key] = naive_value(original, x)
    return _argmin(folded) == _argmin(values)


def _conditional_holds(original, transformed) -> bool:
    """Naive conditional rule: equal minimum and equal argmin set over the
    union of both polynomials' variables."""
    vars = set(original.variables()) | set(transformed.variables())

    def minima(p):
        values = {tuple(sorted(a.items())): naive_value(p, a) for a in all_assignments(p, vars)}
        return min(values.values()), _argmin(values)

    return minima(original) == minima(transformed)


def _scaled_terms(p, scale):
    terms = [(c * scale, mono) for mono, c in p.terms.items()]
    assert all(c.denominator == 1 for c, _ in terms), "the scale misses a denominator"
    return [(int(c), mono) for c, mono in terms]


def _scaled_value(terms, state) -> int:
    """naive_value's term-by-term sum over integer (coefficient, monomial) pairs."""
    return sum(c * prod([state[v] ** e for v, e in mono]) for c, mono in terms)


def _pointwise_table(original, output, aux):
    """(scale, rows): per original assignment, the original value, the states
    over every auxiliary assignment and the output values there, each times
    `scale`, a common denominator of the original, the output and every
    +-1/2 mutant, so that the naive sums run in exact integers.  The values
    are computed once; each mutant re-evaluates only the terms where it
    differs from the output, once per assignment of their variables."""
    scale = lcm(2, *(c.denominator for q in (original, output) for c in q.terms.values()))
    original_terms, output_terms = _scaled_terms(original, scale), _scaled_terms(output, scale)
    aux = sorted(aux)
    domains = [output.registry.domain(a).values for a in aux]
    rows = []
    for x in all_assignments(original):
        states = [{**x, **dict(zip(aux, combo))} for combo in itertools.product(*domains)]
        rows.append((_scaled_value(original_terms, x), states,
                     [_scaled_value(output_terms, s) for s in states]))
    return scale, rows


def _pointwise_holds_by_table(table, output, mutant):
    scale, rows = table
    delta = dict(mutant.terms)
    for mono, coeff in output.terms.items():
        delta[mono] = delta.get(mono, 0) - coeff
    delta = Polynomial(output.registry, delta)
    terms, vars = _scaled_terms(delta, scale), delta.variables()
    shifts = {
        values: _scaled_value(terms, dict(zip(vars, values)))
        for values in itertools.product(*(delta.registry.domain(v).values for v in vars))
    }
    return all(
        min(value + shifts[tuple(map(state.__getitem__, vars))]
            for state, value in zip(states, values)) == want
        for want, states, values in rows
    )


@pytest.mark.parametrize("name,k", GADGET_CASES)
def test_gadget_mutants_get_the_naive_verdict(name, k):
    """Input coefficient -1 for a negative row, +1 for a positive one.  A
    pointwise output's values are tabulated once, as in the routed test."""
    descriptor = GADGETS[name]
    registry = VariableRegistry()
    mono = tuple((registry.add_variable(descriptor.domain), 1) for _ in range(k))
    coeff = Fraction(-1 if descriptor.sign == "negative" else 1)
    result = apply_gadget(name, coeff, mono, registry)
    original = Polynomial(registry, {mono: coeff})
    pointwise = result.guarantee == Guarantee.POINTWISE_MIN
    table = _pointwise_table(original, result.output, result.aux) if pointwise else None
    survivors = Counter()
    for operator, mutant in _mutants(result.output, result.aux, rename_originals=k <= 4):
        passed = check_claim(result.guarantee, original, mutant, result.aux).passed
        if pointwise:
            naive = _pointwise_holds_by_table(table, result.output, mutant)
        else:
            naive = _groundstate_holds(original, mutant, result.aux)
        assert passed == naive, (name, k, operator, mutant.terms)
        survivors[operator] += passed
    pinned = {op: n for (gadget, degree, op), n in GADGET_SURVIVORS.items()
              if (gadget, degree) == (name, k)}
    assert {op: n for op, n in survivors.items() if n} == pinned


def _proven_rewrites(kind: str):
    """(original, result) for every fact the finders prove on the worked
    deduction and ELC instances."""
    if kind == "deduc_reduc":
        p = parse_polynomial(DEDUC_INSTANCE)
        return [(p, apply_deduc_reduc(p, d)) for d in find_zero_deductions(p, 2)]
    p = parse_polynomial(CUBIC_OBJECTIVE)
    return [(p, apply_elc(p, config)) for config in find_elcs(p, [0, 1, 2])]


@pytest.mark.parametrize("kind", ["deduc_reduc", "elc"])
def test_rewrite_mutants_get_the_naive_verdict(kind):
    mutants, survivors = Counter(), Counter()
    for original, result in _proven_rewrites(kind):
        assert result.guarantee == Guarantee.CONDITIONAL_MIN and result.aux == ()
        for operator, mutant in _mutants(result.output):
            passed = check_conditional(original, mutant).passed
            assert passed == _conditional_holds(original, mutant), (kind, operator, mutant.terms)
            mutants[operator] += 1
            survivors[operator] += passed
    pinned = {op: pair for (rewrite, op), pair in REWRITE_SURVIVORS.items() if rewrite == kind}
    assert {op: (mutants[op], survivors[op]) for op in mutants} == pinned


def _routed_objective(seed, domain=Domain.BOOLEAN, most=5):
    """Up to `most` variables of `domain` and up to 4 terms of degree <= 4,
    coefficients in -3..3 without 0."""
    rng = random.Random(seed)
    registry = VariableRegistry()
    vars = [registry.add_variable(domain) for _ in range(rng.randint(1, most))]
    terms = [
        (tuple((v, 1) for v in rng.sample(vars, rng.randint(0, min(4, len(vars))))),
         rng.choice((-3, -2, -1, 1, 2, 3)))
        for _ in range(rng.randint(1, 4))
    ]
    return Polynomial(registry, terms)


def _check_routed_mutants(preset, p, image, pick=list):
    """Route p under the preset with verify_after (every preset's route is
    pointwise); the output and the coefficient, drop and rename mutants that
    `pick` keeps get the library's verdict against p and the naive verdict
    against `image`, the polynomial the output is over.  Renames move
    original variables too when p has at most 4 variables."""
    args = SimpleNamespace(strategy=preset, route=None, verify=True, max_states=DEFAULT_STATE_CAP)
    result = quadratize(p, _build_strategy(args))
    assert result.guarantee == Guarantee.POINTWISE_MIN and result.report.passed
    table = _pointwise_table(image, result.output, result.aux)
    assert _pointwise_holds_by_table(table, result.output, result.output)
    renames = len(p.variables()) <= 4
    for operator, mutant in pick(_mutants(result.output, result.aux, rename_originals=renames)):
        passed = check_claim(result.guarantee, p, mutant, result.aux).passed
        naive = _pointwise_holds_by_table(table, result.output, mutant)
        assert passed == naive, (preset, operator, p.terms, mutant.terms)


@pytest.mark.seed_loop
@pytest.mark.parametrize("preset", sorted(STRATEGY_PRESETS))
@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_routed_mutants_get_the_naive_verdict(preset, seed):
    """A random {0,1} objective of up to 5 variables under each CLI preset."""
    p = _routed_objective(seed)
    _check_routed_mutants(preset, p, p)


@pytest.mark.parametrize("preset", sorted(STRATEGY_PRESETS))
@given(st.integers(0, 2**32 - 1))
@settings(max_examples=SPIN_EXAMPLES, deadline=None)
def test_routed_spin_mutants_get_the_naive_verdict(preset, seed):
    """A random spin objective of up to 4 variables under each CLI preset.
    Past degree 2 it routes through its {0,1} twins, so the naive oracle
    judges the twin image while check_claim is given the spin original.  A
    draw checks at most SPIN_MUTANTS of its mutants, a sample seeded by the
    draw: a four-spin quartic under "counter" has 1164 over 13 variables."""
    p = _routed_objective(seed, Domain.SPIN, 4)

    def pick(mutants):
        mutants = list(mutants)
        return random.Random(seed).sample(mutants, min(len(mutants), SPIN_MUTANTS))

    _check_routed_mutants(preset, p, p.to_boolean() if p.degree() >= 3 else p, pick)
