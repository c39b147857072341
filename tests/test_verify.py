"""The oracle itself, cross-checked against the tests' naive enumeration."""

import inspect
import itertools
import os
import random
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from math import lcm, log10
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import quadratizer
from quadratizer import cli, verify
from quadratizer.errors import (
    EnumerationCapExceeded,
    QuadratizerError,
    UnknownVariable,
    VariableMismatch,
)
from quadratizer.gadgets import ntr_kzfd, ptr_ishikawa, ternary_to_binary
from quadratizer.pipeline import quadratize
from quadratizer.poly import Domain, Polynomial, VariableRegistry
from quadratizer.textio import format_polynomial, parse_polynomial
from quadratizer.verify import (
    BLOCK_STATES,
    DEFAULT_STATE_CAP,
    CheckMode,
    CheckStats,
    VerificationReport,
    _argmin,
    _blocks,
    _first_difference,
    _split_vars,
    _state_assignment,
    _state_count,
    check_conditional,
    check_groundstate,
    check_pointwise,
    check_spectrum,
    check_ternary_encoding,
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


_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _linear_sum(domain, n):
    registry = VariableRegistry()
    return Polynomial.from_products(registry, [((registry.add_variable(domain),), 1)
                                               for _ in range(n)])


@pytest.mark.skipif(not _LIMIT, reason="this interpreter writes integers of any length")
@pytest.mark.parametrize("domain, size", [(Domain.BOOLEAN, 2), (Domain.SPIN, 2),
                                          (Domain.TERNARY, 3)], ids=["b", "z", "t"])
def test_a_state_count_int_cannot_write_still_raises_the_cap_error(domain, size):
    """Past int()'s digit limit the count is written as a power of the domain
    size and the cap as a power of two it reaches; a few digits below the
    limit both stay plain numbers."""
    wide = int(_LIMIT / log10(size)) + 15  # a few digits past the limit
    p = _linear_sum(domain, wide)
    for call in (lambda: enumerate_min(p), lambda: check_pointwise(p, p, [])):
        with pytest.raises(EnumerationCapExceeded) as excinfo:
            call()
        assert str(excinfo.value) == f"{size}^{wide} states exceed the cap of {DEFAULT_STATE_CAP}"
    cap = 10**_LIMIT
    with pytest.raises(EnumerationCapExceeded) as excinfo:
        check_pointwise(p, p, [], cap)
    assert str(excinfo.value) == (f"{size}^{wide} states exceed the cap of "
                                  f"2^{cap.bit_length() - 1} or more")
    narrow = int((_LIMIT - 1) / log10(size)) - 5  # int() writes size**narrow
    p = _linear_sum(domain, narrow)
    with pytest.raises(EnumerationCapExceeded) as excinfo:
        check_pointwise(p, p, [])
    assert str(excinfo.value) == f"{size**narrow} states exceed the cap of {DEFAULT_STATE_CAP}"


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


@pytest.mark.parametrize("check", [check_pointwise, check_groundstate, check_spectrum])
def test_repeated_auxiliary_ids_add_no_axis(check):
    """An auxiliary id listed twice is one variable: 4 original and 2
    auxiliary {0,1} variables make 64 states, under a cap of 100 too."""
    p = parse_polynomial("b1 b2 b3 - 2 b1 b2 b3 b4")
    result = quadratize(p)
    assert len(result.aux) == 2
    once = check(p, result.output, result.aux)
    assert once.stats.states_enumerated == 64
    assert check(p, result.output, list(result.aux) * 2, max_states=100) == once


def test_check_pointwise_refuses_a_negative_auxiliary_id():
    """-1 is not an alias of the newest variable: b1 b2 b3 and its one
    auxiliary make 16 states, and -1 raises instead of adding an axis."""
    p = parse_polynomial("b1 b2 b3")
    result = quadratize(p)
    assert check_pointwise(p, result.output, result.aux).stats.states_enumerated == 16
    with pytest.raises(UnknownVariable, match="variable -1 not in registry"):
        check_pointwise(p, result.output, list(result.aux) + [-1])


def test_cost_report_counts_each_auxiliary_once():
    """cost_report counts distinct auxiliary ids, as the checks do."""
    result = quadratize(parse_polynomial("b1 b2 b3 - 2 b1 b2 b3 b4"))
    assert cost_report(result.output, list(result.aux) * 2) == result.cost
    assert result.cost.aux_count == 2


# ---------------------------------------------------------------------------
# The checks against the code they replaced
#
# The `_ref_*` functions are the checks as they were when each built its own
# CheckStats / VerificationReport, with the cap check and common scale
# written out in each, and check_ternary_encoding in gadgets.structured.  The
# value kernel (`_blocks`, `_argmin`, `_state_assignment`) did not change and
# is shared.  Auxiliary ids are drawn distinct: a repeated id was counted as
# another axis then and is one variable now.


def _ref_check_cap(n_states, max_states):
    if n_states > max_states:
        raise EnumerationCapExceeded(f"{n_states} states exceed the cap of {max_states}")


def _ref_common_scale(*polys):
    denominators = [c.denominator for p in polys for c in p.terms.values()]
    return lcm(*denominators) if denominators else 1


def _ref_folded_minima(original, transformed, aux, max_states):
    x_vars, aux = _split_vars(original, transformed, aux)
    registry = original.registry
    size = _state_count(registry, x_vars)
    n_states = size * _state_count(registry, aux)
    _ref_check_cap(n_states, max_states)
    scale = _ref_common_scale(original, transformed)
    folded = []
    for first, values in _blocks(transformed, x_vars + aux, scale):
        if len(values) > size:
            values = [min(values[j::size]) for j in range(size)]
        if first < size:
            folded += values
        else:
            offset = first % size
            end = offset + len(values)
            folded[offset:end] = map(min, folded[offset:end], values)
    return x_vars, n_states, scale, folded


def _ref_check_pointwise(original, transformed, aux, max_states=DEFAULT_STATE_CAP):
    x_vars, n_states, scale, folded = _ref_folded_minima(original, transformed, aux, max_states)
    counterexample, lows = None, []
    for first, want in _blocks(original, x_vars, scale):
        lows.append(min(want))
        if counterexample is None:
            index = _first_difference(want, folded[first : first + len(want)])
            if index is not None:
                counterexample = _state_assignment(original.registry, x_vars, first + index)
    stats = CheckStats(
        states_enumerated=n_states,
        min_original=Fraction(min(lows), scale),
        min_transformed=Fraction(min(folded), scale),
    )
    return VerificationReport(CheckMode.POINTWISE, counterexample is None, counterexample, stats)


def _ref_check_groundstate(original, transformed, aux, max_states=DEFAULT_STATE_CAP):
    x_vars, n_states, scale, folded = _ref_folded_minima(original, transformed, aux, max_states)
    best_original, argmin_original = _argmin(_blocks(original, x_vars, scale))
    best_transformed, argmin_transformed = _argmin([(0, folded)])
    counterexample = None
    difference = set(argmin_original) ^ set(argmin_transformed)
    if difference:
        counterexample = _state_assignment(original.registry, x_vars, min(difference))
    stats = CheckStats(
        states_enumerated=n_states,
        min_original=Fraction(best_original, scale),
        min_transformed=Fraction(best_transformed, scale),
    )
    return VerificationReport(CheckMode.GROUND_STATE, counterexample is None, counterexample, stats)


def _ref_check_spectrum(original, transformed, aux, max_states=DEFAULT_STATE_CAP):
    x_vars, n_states, scale, folded = _ref_folded_minima(original, transformed, aux, max_states)
    original_values = [v for _, values in _blocks(original, x_vars, scale) for v in values]
    counterexample = None
    if sorted(original_values) != sorted(folded):
        index = _first_difference(original_values, folded)
        counterexample = _state_assignment(original.registry, x_vars, index)
    stats = CheckStats(
        states_enumerated=n_states,
        min_original=Fraction(min(original_values), scale),
        min_transformed=Fraction(min(folded), scale),
    )
    return VerificationReport(CheckMode.SPECTRUM, counterexample is None, counterexample, stats)


def _ref_check_conditional(original, transformed, max_states=DEFAULT_STATE_CAP):
    vars = sorted(set(original.variables()) | set(transformed.variables()))
    registry = original.registry
    n_states = _state_count(registry, vars)
    _ref_check_cap(n_states, max_states)
    scale = _ref_common_scale(original, transformed)
    best_original, argmin_original = _argmin(_blocks(original, vars, scale))
    best_transformed, argmin_transformed = _argmin(_blocks(transformed, vars, scale))

    counterexample = None
    if best_original != best_transformed or argmin_original != argmin_transformed:
        difference = set(argmin_original) ^ set(argmin_transformed)
        index = min(difference) if difference else argmin_original[0]
        counterexample = _state_assignment(registry, vars, index)

    stats = CheckStats(
        states_enumerated=n_states,
        min_original=Fraction(best_original, scale),
        min_transformed=Fraction(best_transformed, scale),
    )
    return VerificationReport(CheckMode.CONDITIONAL, counterexample is None, counterexample, stats)


def _ref_check_ternary_encoding(
    original, transformed, t, z_pair, lam, max_states=DEFAULT_STATE_CAP
):
    z1, z2 = z_pair
    lam = Fraction(lam)
    min_original, argmin_original = enumerate_min(original, max_states)
    min_transformed, argmin_transformed = enumerate_min(transformed, max_states)
    states = sum(_state_count(p.registry, p.variables()) for p in (original, transformed))

    def project(assignment):
        image = {v: x for v, x in assignment.items() if v not in (z1, z2)}
        spins = ([assignment[z]] if z in assignment else Domain.SPIN.values for z in (z1, z2))
        for x1, x2 in itertools.product(*spins):
            yield tuple(sorted({**image, t: (x1 + x2) // 2}.items()))

    want = {tuple(sorted(a.items())) for a in argmin_original}
    got = {image for a in argmin_transformed for image in project(a)}
    counterexample = None
    if min_transformed != min_original - lam:
        counterexample = dict(min(want))
    elif want != got:
        counterexample = dict(min(want ^ got))
    stats = CheckStats(
        states_enumerated=states,
        min_original=min_original,
        min_transformed=min_transformed,
    )
    return VerificationReport(CheckMode.GROUND_STATE, counterexample is None, counterexample, stats)


def _random_poly(rng, registry, vars, terms=4):
    """Up to `terms` random terms over `vars` with exponents 1..2 and small
    rational coefficients."""
    return Polynomial(registry, [
        (
            tuple((v, rng.randint(1, 2)) for v in sorted(rng.sample(vars, rng.randint(0, len(vars))))),
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
        )
        for _ in range(rng.randint(1, terms))
    ])


def _outcome(check, *args):
    """A report with its printed form, or the error raised."""
    try:
        report = check(*args)
    except QuadratizerError as error:
        return type(error), str(error)
    return report, str(report)


FOLDED_CHECKS = [
    (check_pointwise, _ref_check_pointwise),
    (check_groundstate, _ref_check_groundstate),
    (check_spectrum, _ref_check_spectrum),
]


@pytest.mark.seed_loop
@given(st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_checks_match_their_references(seed):
    """Full reports (mode, verdict, counterexample, stats and printed form)
    or errors equal the references' on b, z, t and mixed polynomials:
    passing and failing transforms, shifted minima, real quadratizations,
    conditional checks over both polynomials' variables, and state caps
    small enough to trip."""
    rng = random.Random(seed)
    family = rng.choice(["b", "z", "t", "bzt"])
    registry = VariableRegistry()
    xs = [registry.add_variable(Domain.from_tag(rng.choice(family))) for _ in range(rng.randint(1, 3))]
    aux = [registry.add_variable(Domain.from_tag(rng.choice(family))) for _ in range(rng.randint(0, 2))]
    original = _random_poly(rng, registry, xs)
    kind = rng.choice(["random", "same", "shift", "padded", "quadratized"])
    if kind == "random":
        transformed = _random_poly(rng, registry, original.variables() + aux)
    elif kind == "same":
        transformed = original
    elif kind == "shift":
        transformed = original + Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    elif kind == "padded":
        # a penalty at least 0 whose minimum over the auxiliaries may be 0
        transformed = original + sum(
            (Polynomial.variable(registry, a) * Polynomial.variable(registry, a) for a in aux),
            Polynomial.constant(registry, rng.randint(0, 1)),
        )
    else:
        original = parse_polynomial("b1 b2 b3 - 2 b2 b3 b4 + 3 b1 b3 b4")
        registry, xs = original.registry, original.variables()
        result = quadratize(original)
        transformed, aux = result.output, list(result.aux)
        if rng.random() < 0.5:
            mono = rng.choice(sorted(transformed.terms))
            transformed = transformed + Polynomial(registry, {mono: 1})
    max_states = rng.choice([DEFAULT_STATE_CAP, rng.randint(1, 40)])
    for check, reference in FOLDED_CHECKS:
        args = (original, transformed, aux, max_states)
        assert _outcome(check, *args) == _outcome(reference, *args)
    args = (original, transformed, max_states)
    assert _outcome(check_conditional, *args) == _outcome(_ref_check_conditional, *args)


@pytest.mark.seed_loop
@given(st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_ternary_encoding_check_matches_its_reference(seed):
    """The encoding check against its reference at the lam used, at a wrong
    lam, and with an extra z1 z2 term that moves the argmin."""
    rng = random.Random(seed)
    registry = VariableRegistry()
    t = registry.add_variable(Domain.TERNARY)
    others = [registry.add_variable(Domain.from_tag(rng.choice("bzt"))) for _ in range(rng.randint(0, 2))]
    p = _random_poly(rng, registry, [t] + others)
    if t not in p.variables():
        p = p + Polynomial.variable(registry, t)
    lam = Fraction(rng.randint(1, 12), rng.randint(1, 2))
    z1 = len(registry)
    output = ternary_to_binary(p, t, lam, verify=False)
    moved = output + Polynomial.product(registry, [z1, z1 + 1], Fraction(rng.randint(-2, 2), 2))
    max_states = rng.choice([DEFAULT_STATE_CAP, rng.randint(1, 60)])
    for transformed, used in ((output, lam), (output, lam + rng.randint(1, 2)), (moved, lam)):
        args = (p, transformed, t, (z1, z1 + 1), used, max_states)
        got = _outcome(check_ternary_encoding, *args)
        assert got == _outcome(_ref_check_ternary_encoding, *args)
        report = got[0]
        if isinstance(report, VerificationReport) and not report.passed:
            assert set(report.counterexample) == set(p.variables())


def _naive_ternary_encoding_holds(original, transformed, t, z_pair, lam):
    """The encoding check by the brute force in conftest, with both spins
    enumerated whether or not they occur in the transformed polynomial."""
    min_original, _ = brute_force_min(original)
    z1, z2 = z_pair
    values = [
        (naive_value(transformed, a), a)
        for a in all_assignments(transformed, set(transformed.variables()) | {z1, z2})
    ]
    low = min(value for value, _ in values)
    got = set()
    for value, a in values:
        if value == low:
            image = {v: x for v, x in a.items() if v not in z_pair}
            image[t] = (a[z1] + a[z2]) // 2
            got.add(tuple(sorted(image.items())))
    return low == min_original - Fraction(lam) and got == argmin_set(original)


def test_ternary_encoding_check_projects_a_cancelled_spin_both_ways():
    """A spin that cancels out of the transformed polynomial is free: each of
    its values projects.  The instance is the one hypothesis seed 321 draws:
    `8/3 + t1` at lam 1/2, next to a spin in no polynomial, where the moved
    transform loses z3."""
    registry = VariableRegistry()
    t = registry.add_variable(Domain.TERNARY)
    registry.add_variable(Domain.SPIN)
    p, lam = parse_polynomial("8/3 + t1", registry), Fraction(1, 2)
    z1 = len(registry)
    output = ternary_to_binary(p, t, lam, verify=False)
    moved = output + Polynomial.product(registry, [z1, z1 + 1], Fraction(1, 2))
    assert format_polynomial(moved) == "8/3 + z4"
    for transformed in (output, moved):
        report = check_ternary_encoding(p, transformed, t, (z1, z1 + 1), lam)
        assert report.passed == _naive_ternary_encoding_holds(p, transformed, t, (z1, z1 + 1), lam)
    assert report == _ref_check_ternary_encoding(p, moved, t, (z1, z1 + 1), lam)
    assert not report.passed and report.counterexample == {t: -1}


def test_ternary_to_binary_returns_an_encoding_with_a_free_spin():
    """`t1 + t1^2` at lam 1/2 encodes as `1/2 + z3`: z2 cancels, and z3 = -1
    with z2 free projects to the original argmin {-1, 0}."""
    p, lam = parse_polynomial("t1 + t1^2"), Fraction(1, 2)
    output = ternary_to_binary(p, 0, lam)
    assert format_polynomial(output) == "1/2 + z3"
    assert _naive_ternary_encoding_holds(p, output, 0, (1, 2), lam)


def test_ternary_encoding_counterexample_assigns_every_original_variable():
    """Without its t2 terms, the encoding of `t1 + t2^2` leaves t2 free, so
    t2 = -1 projects from a ground state that the original does not have.
    The counterexample assigns t2 too, and the original evaluates at it."""
    p = parse_polynomial("t1 + t2^2")
    z1 = len(p.registry)
    output = ternary_to_binary(p, 0, 10, verify=False)
    bad = Polynomial(p.registry, {m: c for m, c in output.terms.items() if 1 not in dict(m)})
    report = check_ternary_encoding(p, bad, 0, (z1, z1 + 1), 10)
    assert not report.passed and report.counterexample == {0: -1, 1: -1}
    assert p.evaluate(report.counterexample) == 0
    assert not _naive_ternary_encoding_holds(p, bad, 0, (z1, z1 + 1), 10)


@pytest.mark.parametrize("pair, message", [
    ((0, 3), "auxiliary variables overlap the original variables"),
    ((2, 2), "transformed polynomial uses unexpected variables [3]"),
], ids=["original-as-spin", "repeated-spin"])
def test_ternary_encoding_check_refuses_a_pair_that_does_not_split_the_variables(pair, message):
    """An original variable passed as a spin, or one spin passed twice so
    that the other is left over, raises as in the other checks."""
    p = parse_polynomial("t1 b1 - 2 t1")  # b1 is 0, t1 is 1
    output = ternary_to_binary(p, 1, 2, verify=False)  # z1, z2 are 2, 3
    with pytest.raises(VariableMismatch, match=re.escape(message)):
        check_ternary_encoding(p, output, 1, pair, 2)


# ---------------------------------------------------------------------------
# The oracle in small blocks: every draw crosses many blocks, with many slow
# variables, which the default block size reaches only past 12 {0,1} variables

SMALL_BLOCKS = 8


@pytest.mark.seed_loop
@given(st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_checks_match_their_references_in_small_blocks(seed):
    with mock.patch.object(verify, "BLOCK_STATES", SMALL_BLOCKS):
        test_checks_match_their_references.hypothesis.inner_test(seed)


@pytest.mark.seed_loop
@given(st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_ternary_encoding_check_matches_its_reference_in_small_blocks(seed):
    with mock.patch.object(verify, "BLOCK_STATES", SMALL_BLOCKS):
        test_ternary_encoding_check_matches_its_reference.hypothesis.inner_test(seed)


# the case whose x-space fits in one block is left out: at this block size
# its precondition no longer holds
@pytest.mark.seed_loop
@pytest.mark.parametrize("x_tags, aux_tags", [("ttttttbt", "z")], ids=["x-space-over-several-blocks"])
@given(data=st.data())
@settings(max_examples=3, deadline=None, phases=NO_SHRINK)
def test_folded_checks_past_one_block_match_naive_oracle_in_small_blocks(x_tags, aux_tags, data):
    with mock.patch.object(verify, "BLOCK_STATES", SMALL_BLOCKS):
        test_folded_checks_past_one_block_match_naive_oracle.hypothesis.inner_test(
            x_tags, aux_tags, True, data
        )


@pytest.mark.seed_loop
@given(data=st.data())
@settings(max_examples=3, deadline=None, phases=NO_SHRINK)
def test_check_spectrum_holds_values_that_move_across_blocks(data):
    """Flipping the slow variable of 13 {0,1} variables swaps the two blocks
    of values: the multisets are equal over the whole space, not block by
    block.  A shifted term breaks the equality, as the reference says."""
    registry = VariableRegistry()
    vars = [registry.add_variable(Domain.BOOLEAN) for _ in range(13)]
    p = data.draw(covering_polys(registry, vars))
    assert _state_space(registry, vars[:-1]) == BLOCK_STATES
    flipped, _ = p.flip([vars[-1]])
    assert check_spectrum(p, flipped, []).passed
    mono = data.draw(st.sampled_from(sorted(flipped.terms)))
    shifted = flipped + Polynomial(registry, {mono: 1})
    assert _outcome(check_spectrum, p, shifted, []) == _outcome(_ref_check_spectrum, p, shifted, [])


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_value_range_over_many_blocks_matches_naive_oracle(seed):
    """The minimum and maximum over the lows and highs of many small
    blocks, on b, z, t and mixed polynomials, equal the naive oracle's."""
    rng = random.Random(seed)
    family = rng.choice(["b", "z", "t", "bzt"])
    registry = VariableRegistry()
    xs = [registry.add_variable(Domain.from_tag(rng.choice(family))) for _ in range(rng.randint(4, 6))]
    p = _random_poly(rng, registry, xs, terms=6) + Polynomial.from_products(
        registry, [((x,), rng.choice((-2, -1, 1, 2))) for x in xs]
    )
    values = [naive_value(p, a) for a in all_assignments(p)]
    with mock.patch.object(verify, "BLOCK_STATES", SMALL_BLOCKS):
        assert verify.value_range(p) == (min(values), max(values))


def _naively_fails(check, original, transformed, aux, x) -> bool:
    """Does the original assignment `x` fail `check` by the naive oracle:
    for check_pointwise, does min over `aux` of `transformed` at `x` differ
    from `original` at `x`; for check_groundstate, is `x` a minimizer on
    exactly one side?"""
    domains = [transformed.registry.domain(a).values for a in aux]
    folded = min(
        naive_value(transformed, {**x, **dict(zip(aux, values))})
        for values in itertools.product(*domains)
    )
    if check is check_pointwise:
        return folded != naive_value(original, x)
    on_original = naive_value(original, x) == brute_force_min(original)[0]
    return on_original != (folded == brute_force_min(transformed)[0])


@pytest.mark.seed_loop
@given(st.integers(0, 2**32 - 1))
@settings(max_examples=8, deadline=None)
def test_relabeled_checks_keep_their_verdicts(seed):
    """Metamorphic: a routed {0,1} objective and its output, and a +-1/2
    coefficient mutant of it, rebuilt in a fresh registry that adds the
    variables in a random order, get the same verdicts and minima from
    check_pointwise and check_groundstate, in small blocks.  Each
    counterexample, mapped back, fails by the naive oracle."""
    rng = random.Random(seed)
    registry = VariableRegistry()
    xs = [registry.add_variable(Domain.BOOLEAN) for _ in range(rng.randint(6, 9))]
    p = Polynomial.from_products(registry, [
        (rng.sample(xs, rng.randint(1, 4)), rng.choice((-3, -2, -1, 1, 2, 3)))
        for _ in range(rng.randint(3, 6))
    ])
    result = quadratize(p)
    mono = rng.choice(sorted(result.output.terms))
    mutant = result.output + Polynomial(registry, {mono: Fraction(rng.choice((-1, 1)), 2)})
    order = rng.sample(range(len(registry)), len(registry))  # new id k is old id order[k]
    relabeled = VariableRegistry()
    for _ in order:
        relabeled.add_variable(Domain.BOOLEAN)
    new = {old: k for k, old in enumerate(order)}

    def move(q):
        return Polynomial(relabeled, [
            (tuple((new[v], e) for v, e in mono), coeff) for mono, coeff in q.terms.items()
        ])

    aux = list(result.aux)
    with mock.patch.object(verify, "BLOCK_STATES", SMALL_BLOCKS):
        for transformed in (result.output, mutant):
            for check in (check_pointwise, check_groundstate):
                before = check(p, transformed, aux)
                after = check(move(p), move(transformed), [new[a] for a in aux])
                assert (after.mode, after.passed, after.stats) == (
                    before.mode, before.passed, before.stats
                )
                mapped = after.counterexample and {
                    order[v]: value for v, value in after.counterexample.items()
                }
                for x in (before.counterexample, mapped):
                    assert x is None or _naively_fails(check, p, transformed, aux, x)


def test_reports_are_built_only_in_verify():
    """The oracle's verdicts have one constructor: no module but verify
    builds a CheckStats or a VerificationReport."""
    package = Path(quadratizer.__file__).parent
    builders = {
        str(path.relative_to(package))
        for path in package.rglob("*.py")
        if re.search(r"\b(CheckStats|VerificationReport)\(", path.read_text(encoding="utf-8"))
    }
    assert builders == {"verify.py"}


def test_guarantees_are_checked_only_through_the_gate():
    """A guarantee label picks its check in one place, verify.check_claim:
    no module but verify calls check_pointwise, check_groundstate or
    check_conditional.  Proving a spin original through its {0,1} twins is
    the gate's too, so neither the single-term gadgets nor `verify` convert
    one (`convert --to boolean` is a conversion asked for, not a proof)."""
    package = Path(quadratizer.__file__).parent
    callers = {
        str(path.relative_to(package))
        for path in package.rglob("*.py")
        if re.search(r"\bcheck_(pointwise|groundstate|conditional)\(", path.read_text(encoding="utf-8"))
    }
    assert callers == {"verify.py"}
    assert ".to_boolean()" not in (package / "gadgets" / "single_term.py").read_text(encoding="utf-8")
    assert ".to_boolean()" not in inspect.getsource(cli._cmd_verify)
