"""The oracle itself, cross-checked against the tests' naive enumeration."""

import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import quadratizer
from quadratizer.errors import EnumerationCapExceeded, VariableMismatch
from quadratizer.gadgets import ntr_kzfd, ptr_ishikawa
from quadratizer.poly import Domain, Polynomial, VariableRegistry
from quadratizer.verify import (
    BLOCK_STATES,
    check_groundstate,
    check_pointwise,
    check_spectrum,
    cost_report,
    enumerate_min,
)

from conftest import (
    all_assignments,
    argmin_set,
    brute_force_min,
    naive_value,
    pointwise_holds,
)


def test_enumerate_min_worked_cubic(cubic_objective):
    minimum, minimizers = enumerate_min(cubic_objective)
    assert minimum == -2
    assert minimizers == [{0: 1, 1: 1, 2: 1, 3: 0}]


def test_enumerate_min_worked_quadratic(quadratic_objective):
    minimum, minimizers = enumerate_min(quadratic_objective)
    assert minimum == -2
    assert minimizers == [{0: 1, 1: 1, 2: 1, 3: 0}]


def test_enumerate_min_constant_lists_all_states():
    registry = VariableRegistry()
    ids = [registry.add_variable(Domain.BOOLEAN) for _ in range(2)]
    p = Polynomial.constant(registry, 5) + Polynomial.product(registry, ids, 0)
    minimum, minimizers = enumerate_min(p)
    assert minimum == 5
    assert minimizers == [{}]  # constant polynomial has no variables


def test_enumerate_min_reevaluates_to_reported_min(cubic_objective):
    minimum, minimizers = enumerate_min(cubic_objective)
    for m in minimizers:
        assert cubic_objective.evaluate(m) == minimum


@st.composite
def mixed_polys(draw):
    registry = VariableRegistry()
    tags = draw(st.lists(st.sampled_from("bbzt"), min_size=1, max_size=4))
    ids = [registry.add_variable(Domain.from_tag(tag)) for tag in tags]
    terms = []
    for _ in range(draw(st.integers(1, 5))):
        factors = []
        for var in ids:
            exp = draw(st.integers(0, 2))
            if exp:
                factors.append((var, exp))
        coeff = Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 2)))
        terms.append((tuple(factors), coeff))
    return Polynomial(registry, terms)


@given(mixed_polys())
@settings(max_examples=80, deadline=None)
def test_enumerate_min_matches_naive_oracle(p):
    want_min, want_argmins = brute_force_min(p)
    got_min, got_argmins = enumerate_min(p)
    assert got_min == want_min
    assert sorted(map(sorted, (a.items() for a in got_argmins))) == sorted(
        map(sorted, (a.items() for a in want_argmins))
    )


@st.composite
def pointwise_pairs(draw):
    registry = VariableRegistry()
    tags = draw(st.lists(st.sampled_from("bzt"), min_size=1, max_size=3))
    xs = [registry.add_variable(Domain.from_tag(tag)) for tag in tags]
    aux = [
        registry.add_variable(Domain.from_tag(draw(st.sampled_from("bzt"))))
        for _ in range(draw(st.integers(0, 2)))
    ]

    def poly(vars):
        terms = []
        for _ in range(draw(st.integers(1, 4))):
            subset = draw(st.sets(st.sampled_from(vars), max_size=len(vars))) if vars else set()
            mono = tuple((v, draw(st.integers(1, 2))) for v in sorted(subset))
            terms.append((mono, Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 2)))))
        return Polynomial(registry, terms)

    original = poly(xs)
    transformed = poly(original.variables() + aux)
    return original, transformed, aux


@given(pointwise_pairs())
@settings(max_examples=60, deadline=None)
def test_check_pointwise_agrees_with_naive_fold(pair):
    original, transformed, aux = pair
    assert check_pointwise(original, transformed, aux).passed == pointwise_holds(
        original, transformed, aux
    )


def test_check_pointwise_reflexive(cubic_objective):
    report = check_pointwise(cubic_objective, cubic_objective, [])
    assert report.passed
    assert report.counterexample is None


def test_check_pointwise_gadget_pair(cubic_objective):
    registry = cubic_objective.registry
    mono = ((0, 1), (1, 1), (2, 1))
    result = ntr_kzfd(Fraction(-4), mono, registry)
    original = Polynomial(registry, {mono: Fraction(-4)})
    report = check_pointwise(original, result.output, result.aux)
    assert report.passed
    assert pointwise_holds(original, result.output, result.aux)


def test_check_pointwise_detects_corruption():
    registry = VariableRegistry()
    ids = [registry.add_variable(Domain.BOOLEAN) for _ in range(3)]
    mono = tuple((v, 1) for v in ids)
    original = Polynomial(registry, {mono: Fraction(1)})
    result = ptr_ishikawa(Fraction(1), mono, registry)
    corrupted = result.output + Polynomial.product(registry, ids[:2], 1)
    report = check_pointwise(original, corrupted, result.aux)
    assert not report.passed
    x = report.counterexample
    # the counterexample is self-certifying: re-minimizing over the auxiliary
    # by hand reproduces the inequality
    aux = result.aux[0]
    best = min(
        naive_value(corrupted, {**x, aux: value}) for value in (0, 1)
    )
    assert best != naive_value(original, x)


def test_check_groundstate_passes_when_pointwise_does(cubic_objective):
    registry = cubic_objective.registry
    mono = ((0, 1), (1, 1), (2, 1))
    result = ntr_kzfd(Fraction(-4), mono, registry)
    original = Polynomial(registry, {mono: Fraction(-4)})
    assert check_pointwise(original, result.output, result.aux).passed
    assert check_groundstate(original, result.output, result.aux).passed


def test_check_groundstate_value_shift_allowed():
    registry = VariableRegistry()
    b = registry.add_variable(Domain.BOOLEAN)
    p = Polynomial.variable(registry, b)
    shifted = p.scale(3) + 10  # same argmin, different values
    report = check_groundstate(p, shifted, [])
    assert report.passed
    assert report.stats.min_original == 0
    assert report.stats.min_transformed == 10


def test_check_spectrum_distinguishes_shift():
    registry = VariableRegistry()
    b = registry.add_variable(Domain.BOOLEAN)
    p = Polynomial.variable(registry, b)
    assert check_spectrum(p, p, []).passed
    assert not check_spectrum(p, p + 1, []).passed


def test_variable_mismatch():
    registry = VariableRegistry()
    b1 = registry.add_variable(Domain.BOOLEAN)
    b2 = registry.add_variable(Domain.BOOLEAN)
    p = Polynomial.variable(registry, b1)
    q = Polynomial.variable(registry, b2)
    with pytest.raises(VariableMismatch):
        check_pointwise(p, q, [])
    with pytest.raises(VariableMismatch):
        check_pointwise(p, q, [b1])  # aux overlaps original


def test_enumeration_cap():
    registry = VariableRegistry()
    ids = [registry.add_variable(Domain.BOOLEAN) for _ in range(10)]
    p = Polynomial.product(registry, ids)
    with pytest.raises(EnumerationCapExceeded):
        enumerate_min(p, max_states=512)


def test_reports_are_deterministic(cubic_objective):
    registry = cubic_objective.registry
    mono = ((0, 1), (1, 1), (2, 1))
    result = ntr_kzfd(Fraction(-4), mono, registry)
    original = Polynomial(registry, {mono: Fraction(-4)})
    first = check_pointwise(original, result.output, result.aux)
    second = check_pointwise(original, result.output, result.aux)
    assert first == second


def test_cost_report_ishikawa_quartic():
    registry = VariableRegistry()
    ids = [registry.add_variable(Domain.BOOLEAN) for _ in range(4)]
    mono = tuple((v, 1) for v in ids)
    result = ptr_ishikawa(Fraction(1), mono, registry)
    report = cost_report(result.output, result.aux)
    assert report.aux_count == 1
    # the six original-pair quadratics carry +1; the auxiliary couplings are
    # all negative, so none of them count
    assert report.non_submodular == 6
    assert report.max_abs_coefficient == 3


def test_cost_report_kzfd_six_local():
    registry = VariableRegistry()
    ids = [registry.add_variable(Domain.BOOLEAN) for _ in range(6)]
    mono = tuple((v, 1) for v in ids)
    result = ntr_kzfd(Fraction(-2), mono, registry)
    report = cost_report(result.output, result.aux)
    assert report.aux_count == 1
    assert report.non_submodular == 0


def test_cost_report_empty():
    registry = VariableRegistry()
    report = cost_report(Polynomial.zero(registry), [])
    assert report == cost_report(Polynomial.zero(registry), [])
    assert (report.aux_count, report.non_submodular, report.term_count) == (0, 0, 0)
    assert report.max_abs_coefficient == 0


def test_pointwise_enumeration_order_has_aux_last(cubic_objective):
    # ntr_kzfd on -4 b1b2b3 plus the worked quadratic context: end-to-end the
    # folded min must reproduce the original everywhere.
    registry = cubic_objective.registry
    mono = ((0, 1), (1, 1), (2, 1))
    result = ntr_kzfd(Fraction(-4), mono, registry)
    transformed = cubic_objective - Polynomial(registry, {mono: Fraction(-4)}) + result.output
    report = check_pointwise(cubic_objective, transformed, result.aux)
    assert report.passed
    assert report.stats.min_original == -2
    assert report.stats.min_transformed == -2


# ---------------------------------------------------------------------------
# The block kernel against the naive oracle, past one block


def _state_index(registry, vars, assignment) -> int:
    """Mixed-radix index of an assignment, vars[0] fastest: the oracle's order."""
    index, stride = 0, 1
    for var in vars:
        values = registry.domain(var).values
        index += values.index(assignment[var]) * stride
        stride *= len(values)
    return index


def _state_space(registry, vars) -> int:
    return _state_index(registry, vars, {v: registry.domain(v).values[-1] for v in vars}) + 1


# Each example below costs the naive oracle thousands of states, so a failure
# is reported as drawn rather than shrunk for minutes.
NO_SHRINK = [Phase.explicit, Phase.reuse, Phase.generate]

# 1 or a rational whose numerator and denominator both have 30 digits
scales = st.one_of(
    st.just(Fraction(1)),
    st.builds(Fraction, st.integers(10**29, 10**30 - 1), st.integers(10**29, 10**30 - 1)),
)


@st.composite
def covering_polys(draw, registry, vars):
    """A polynomial that uses every variable in `vars`: one to three random
    terms of degree 1-3, then the variables still missing, three to a term.
    Few terms keep the naive oracle quick at 2^13 states."""

    def term(subset):
        mono = tuple(
            (v, draw(st.integers(1, 2)) if registry.domain(v) is Domain.TERNARY else 1)
            for v in sorted(subset)
        )
        return mono, Fraction(draw(st.integers(-4, 4).filter(bool)))

    # a dict, so that no two terms share a monomial and cancel
    terms = dict(
        term(draw(st.lists(st.sampled_from(vars), min_size=1, max_size=3, unique=True)))
        for _ in range(draw(st.integers(1, 3)))
    )
    used = {v for mono in terms for v, _ in mono}
    missing = [v for v in vars if v not in used]
    terms.update(term(missing[i : i + 3]) for i in range(0, len(missing), 3))
    return Polynomial(registry, terms)


@pytest.mark.parametrize("tag, n", [("b", 13), ("z", 13), ("t", 8)])
@given(data=st.data())
@settings(max_examples=2, deadline=None, phases=NO_SHRINK)
def test_enumerate_min_past_one_block_matches_naive_oracle(tag, n, data):
    registry = VariableRegistry()
    vars = [registry.add_variable(Domain.from_tag(tag)) for _ in range(n)]
    p = data.draw(covering_polys(registry, vars))
    scale = data.draw(scales)
    assert _state_space(registry, vars) > BLOCK_STATES
    want_min, want_argmins = brute_force_min(p)
    got_min, got_argmins = enumerate_min(p.scale(scale))
    assert got_min == want_min * scale
    # minimizers come in ascending state index, variable 0 fastest
    assert got_argmins == sorted(
        want_argmins, key=lambda a: _state_index(registry, vars, a)
    )


@pytest.mark.parametrize(
    "x_tags, aux_tags, x_past_block",
    [("bzbtb", "bbzbbbb", False), ("ttttttbt", "z", True)],
    ids=["x-space-inside-one-block", "x-space-over-several-blocks"],
)
@given(data=st.data())
@settings(max_examples=3, deadline=None, phases=NO_SHRINK)
def test_folded_checks_past_one_block_match_naive_oracle(x_tags, aux_tags, x_past_block, data):
    registry = VariableRegistry()
    xs = [registry.add_variable(Domain.from_tag(tag)) for tag in x_tags]
    aux = [registry.add_variable(Domain.from_tag(tag)) for tag in aux_tags]
    original = data.draw(covering_polys(registry, xs))
    penalty = data.draw(covering_polys(registry, aux))
    penalty_min = brute_force_min(penalty)[0]
    # original + (penalty - its minimum) is a pointwise quadratization of the
    # original; a drawn x-aux coupling may break it
    x_var, aux_var = data.draw(st.sampled_from(xs)), data.draw(st.sampled_from(aux))
    coupling = Fraction(data.draw(st.integers(-3, 3)))
    transformed = (
        original
        + penalty
        - penalty_min
        + Polynomial(registry, {((x_var, 1), (aux_var, 1)): coupling})
    )
    scale = data.draw(scales)
    assert _state_space(registry, xs + aux) > BLOCK_STATES
    assert (_state_space(registry, xs) > BLOCK_STATES) == x_past_block

    # the naive fold, from naive values of the three parts of `transformed`
    penalties = [(a, naive_value(penalty, a) - penalty_min) for a in all_assignments(penalty)]
    want, folded = {}, {}
    for x in all_assignments(original):
        key = tuple(sorted(x.items()))
        want[key] = naive_value(original, x)
        folded[key] = want[key] + min(
            value + coupling * x[x_var] * a[aux_var] for a, value in penalties
        )
    index = lambda a: _state_index(registry, xs, a)  # noqa: E731

    report = check_pointwise(original.scale(scale), transformed.scale(scale), aux)
    mismatches = [dict(k) for k in want if want[k] != folded[k]]
    assert report.passed == (not mismatches)
    if not x_past_block:
        assert report.passed == pointwise_holds(original, transformed, aux)
    assert report.counterexample == min(mismatches, key=index, default=None)
    assert report.stats.min_original == min(want.values()) * scale
    assert report.stats.min_transformed == min(folded.values()) * scale

    report = check_groundstate(original.scale(scale), transformed.scale(scale), aux)
    best = min(folded.values())
    difference = argmin_set(original) ^ {k for k, v in folded.items() if v == best}
    assert report.passed == (not difference)
    assert report.counterexample == min(map(dict, difference), key=index, default=None)


def test_enumerate_min_memory_stays_within_blocks():
    """An 18-variable {0,1} objective with 30-digit rational coefficients:
    the kernel holds blocks, not the 2^18-state value vector (about 20 MB)."""
    registry = VariableRegistry()
    ids = [registry.add_variable(Domain.BOOLEAN) for _ in range(18)]
    wide = Fraction(3 * 10**29 + 11, 7 * 10**29 + 13)
    terms = [(((v, 1),), wide * (v % 5 - 2)) for v in ids]
    terms += [
        (((ids[i], 1), (ids[(i * 7 + 3) % 18], 1)), wide * (i % 3 - 1))
        for i in range(18)
        if i != (i * 7 + 3) % 18
    ]
    p = Polynomial(registry, terms)
    tracemalloc.start()
    try:
        enumerate_min(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 1024 * 1024


def test_verified_quadratize_does_not_import_numpy():
    """The oracle is plain Python; checked in a fresh interpreter, since
    other tests may import numpy into this one."""
    code = (
        "import sys; from quadratizer import Strategy, quadratize;"
        "from quadratizer.textio import parse_polynomial;"
        "quadratize(parse_polynomial('b1 b2 b3 b4 - 2 b1 b2 b3'), Strategy(verify_after=True));"
        "print('numpy' in sys.modules)"
    )
    package_root = os.path.dirname(os.path.dirname(quadratizer.__file__))
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": package_root},
    )
    assert out.stdout.strip() == "False"
