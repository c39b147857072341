"""Exhaustive verification oracle.

Everything here is brute force by design: the point of the library is that
every gadget's claimed guarantee is *proved* at desk scale, not trusted.  The
assignment space is indexed in mixed radix over variable-id order (variable 0
fastest, digit d meaning the domain's d-th value), which makes results
deterministic.

One exact kernel, ``_value_blocks``, evaluates a polynomial in every domain
({0,1}, {-1,+1}, {-1,0,1}).  It streams the state space in blocks of at most
BLOCK_STATES states: for each assignment of the slow variables the
coefficients of the fast ones go on an exponent grid, and one small
transform per axis, ``out[v] = sum_e v**e * in[e]`` (a zeta transform for
{0,1}), turns the grid into values.  Every domain value is -1, 0 or 1, so each
transform is only additions and subtractions.  Coefficients are pre-scaled by
the common denominator, so the arithmetic runs on exact Python ints, and the
consumers below fold blocks as they arrive instead of holding the whole space.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from .errors import EnumerationCapExceeded, VariableMismatch
from .poly import Domain, Polynomial, monomial_degree

DEFAULT_STATE_CAP = 1 << 20
BLOCK_STATES = 4096


class CheckMode:
    POINTWISE = "pointwise"
    GROUND_STATE = "groundstate"
    SPECTRUM = "spectrum"
    CONDITIONAL = "conditional"


@dataclass(frozen=True)
class CheckStats:
    states_enumerated: int
    min_original: Optional[Fraction]
    min_transformed: Optional[Fraction]


@dataclass(frozen=True)
class VerificationReport:
    """Oracle verdict for one guarantee level.

    A failed report always carries a re-checkable counterexample assignment
    over the original variables; a passed report never does.
    """

    mode: str
    passed: bool
    counterexample: Optional[dict]
    stats: CheckStats

    def __str__(self):
        verdict = "passed" if self.passed else "FAILED"
        extra = "" if self.passed else f" counterexample={self.counterexample}"
        return f"[{self.mode}] {verdict} ({self.stats.states_enumerated} states){extra}"


@dataclass(frozen=True)
class CostReport:
    """The trade-off axes gadget catalogs argue about, as plain data."""

    aux_count: int
    non_submodular: int
    max_abs_coefficient: Fraction
    term_count: int


# ---------------------------------------------------------------------------
# Dense evaluation over full assignment spaces


def _state_count(registry, vars: Sequence[int]) -> int:
    count = 1
    for var in vars:
        count *= len(registry.domain(var).values)
    return count


def _check_cap(n_states: int, max_states: int):
    if n_states > max_states:
        raise EnumerationCapExceeded(
            f"{n_states} states exceed the cap of {max_states}"
        )


def _scaled_terms(p: Polynomial, scale: int):
    # scale is a multiple of every denominator, so this is c * scale exactly
    return [
        (c.numerator * (scale // c.denominator), mono)
        for mono, c in sorted(p.terms.items())
    ]


def _common_scale(*polys: Polynomial) -> int:
    denominators = [c.denominator for p in polys for c in p.terms.values()]
    return lcm(*denominators) if denominators else 1


def _value_blocks(terms, vars: Sequence[int], registry):
    """Yield (first state index, values) over the mixed-radix state space of
    `vars`, in state order, at most BLOCK_STATES states at a time.

    The fast variables are the longest prefix of `vars` whose space fits in
    one block; each block is one assignment of the remaining, slow ones.
    Terms are grouped by their slow factor, whose value is -1, 0 or 1 in
    every block, and each group adds its fast exponent grid with that sign.
    The grid is then transformed axis by axis: the slices grid[e::radix] hold
    exponent e of the fastest axis, and the transformed axis is appended as
    the slowest, so after the last axis the original order is back.
    """
    domains = [registry.domain(v).values for v in vars]
    fast, size = 0, 1
    while fast < len(vars) and size * len(domains[fast]) <= BLOCK_STATES:
        size *= len(domains[fast])
        fast += 1
    # exponent e of fast variable i sits at e * stride[i] on the grid, which
    # works because a domain of r values needs exponents 0..r-1 only
    stride = [1]
    for values in domains[: fast - 1]:
        stride.append(stride[-1] * len(values))
    position = {var: i for i, var in enumerate(vars)}
    groups: dict = {}
    for coeff, mono in terms:
        offset, slow = 0, []
        for var, exp in mono:
            i = position[var]
            if i < fast:
                offset += exp * stride[i]
            else:
                slow.append((i - fast, exp))
        cells = groups.setdefault(tuple(slow), {})
        cells[offset] = cells.get(offset, 0) + coeff
    # itertools.product varies its *last* factor fastest, so feed the slow
    # domains in reverse and read each digit from the end
    slow_domains = domains[fast:][::-1]
    for block, state in enumerate(itertools.product(*slow_domains)):
        grid = [0] * size
        for factors, cells in groups.items():
            sign = 1
            for j, exp in factors:
                sign *= state[-1 - j] ** exp
            if sign == 1:
                for offset, coeff in cells.items():
                    grid[offset] += coeff
            elif sign == -1:
                for offset, coeff in cells.items():
                    grid[offset] -= coeff
        for values in domains[:fast]:
            radix = len(values)
            slices = [grid[e::radix] for e in range(radix)]
            grid = []
            # out[v] = sum over e of v**e * slices[e], with v**e in {-1, 0, 1}
            for v in values:
                column = slices[0]
                for e in range(1, radix):
                    if v**e:
                        op = operator.add if v**e == 1 else operator.sub
                        column = list(map(op, column, slices[e]))
                grid += column
        yield block * size, grid


def _blocks(p: Polynomial, vars: Sequence[int], scale: int):
    return _value_blocks(_scaled_terms(p, scale), vars, p.registry)


def _argmin(blocks):
    """Minimum of a block stream and every state index attaining it, in
    ascending order."""
    best, indices = None, []
    for first, values in blocks:
        low = min(values)
        if best is None or low < best:
            best, indices = low, []
        if low == best:
            indices.extend(first + i for i, v in enumerate(values) if v == low)
    return best, indices


def _state_assignment(registry, vars: Sequence[int], index: int) -> dict:
    assignment = {}
    for var in vars:
        values = registry.domain(var).values
        index, digit = divmod(index, len(values))
        assignment[var] = values[digit]
    return assignment


# ---------------------------------------------------------------------------
# Public oracle operations


def enumerate_min(p: Polynomial, max_states: int = DEFAULT_STATE_CAP):
    """Exact global minimum of p and ALL minimizers, in deterministic order."""
    vars = p.variables()
    _check_cap(_state_count(p.registry, vars), max_states)
    scale = _common_scale(p)
    best, indices = _argmin(_blocks(p, vars, scale))
    minimizers = [_state_assignment(p.registry, vars, i) for i in indices]
    return Fraction(best, scale), minimizers


def value_range(p: Polynomial, max_states: int = DEFAULT_STATE_CAP):
    """Exact (minimum, maximum) of p over every assignment of its variables."""
    vars = p.variables()
    _check_cap(_state_count(p.registry, vars), max_states)
    scale = _common_scale(p)
    lows, highs = [], []
    for _, values in _blocks(p, vars, scale):
        lows.append(min(values))
        highs.append(max(values))
    return Fraction(min(lows), scale), Fraction(max(highs), scale)


def _split_vars(original: Polynomial, transformed: Polynomial, aux: Sequence[int]):
    x_vars = original.variables()
    aux = sorted(aux)
    if set(aux) & set(x_vars):
        raise VariableMismatch("auxiliary variables overlap the original variables")
    allowed = set(x_vars) | set(aux)
    extra = [v for v in transformed.variables() if v not in allowed]
    if extra:
        raise VariableMismatch(
            f"transformed polynomial uses unexpected variables {extra}"
        )
    return x_vars, aux


def _folded_minima(
    original: Polynomial, transformed: Polynomial, aux: Sequence[int], max_states: int
):
    """min over auxiliary assignments of transformed, per original state.

    Returns (original variables, states enumerated, scale, folded minima).
    The auxiliaries vary slowest, so state i of the full space belongs to
    original state i mod |x-space|.  A block holding several whole copies of
    the x-space is first folded within itself with strided slices; then each
    block is folded into one x-space-sized list with elementwise min.
    """
    x_vars, aux = _split_vars(original, transformed, aux)
    registry = original.registry
    size = _state_count(registry, x_vars)
    n_states = size * _state_count(registry, aux)
    _check_cap(n_states, max_states)
    scale = _common_scale(original, transformed)
    folded: list = []
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


def _first_difference(want: list, got: list) -> Optional[int]:
    return next((i for i, (w, g) in enumerate(zip(want, got)) if w != g), None)


def check_pointwise(
    original: Polynomial,
    transformed: Polynomial,
    aux: Sequence[int],
    max_states: int = DEFAULT_STATE_CAP,
) -> VerificationReport:
    """Does min over auxiliaries of `transformed` equal `original` everywhere?

    This is the strongest guarantee: the transformed function reproduces the
    full spectrum of the original over every original assignment.
    """
    x_vars, n_states, scale, folded = _folded_minima(
        original, transformed, aux, max_states
    )
    counterexample, lows = None, []
    for first, want in _blocks(original, x_vars, scale):
        lows.append(min(want))
        if counterexample is None:
            index = _first_difference(want, folded[first : first + len(want)])
            if index is not None:
                counterexample = _state_assignment(
                    original.registry, x_vars, first + index
                )
    stats = CheckStats(
        states_enumerated=n_states,
        min_original=Fraction(min(lows), scale),
        min_transformed=Fraction(min(folded), scale),
    )
    return VerificationReport(
        CheckMode.POINTWISE, counterexample is None, counterexample, stats
    )


def check_groundstate(
    original: Polynomial,
    transformed: Polynomial,
    aux: Sequence[int],
    max_states: int = DEFAULT_STATE_CAP,
) -> VerificationReport:
    """Does argmin(transformed), projected on the original variables, equal
    argmin(original) as a set?

    Minimum *values* are recorded in the stats but never compared: several
    gadgets shift or scale energies while preserving the ground manifold.
    """
    x_vars, n_states, scale, folded = _folded_minima(
        original, transformed, aux, max_states
    )
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
    return VerificationReport(
        CheckMode.GROUND_STATE, counterexample is None, counterexample, stats
    )


def check_spectrum(
    original: Polynomial,
    transformed: Polynomial,
    aux: Sequence[int],
    max_states: int = DEFAULT_STATE_CAP,
) -> VerificationReport:
    """Multiset of aux-minimized values vs the original's value multiset."""
    x_vars, n_states, scale, folded = _folded_minima(
        original, transformed, aux, max_states
    )
    original_values = [
        v for _, values in _blocks(original, x_vars, scale) for v in values
    ]
    counterexample = None
    if sorted(original_values) != sorted(folded):
        index = _first_difference(original_values, folded)
        counterexample = _state_assignment(original.registry, x_vars, index)
    stats = CheckStats(
        states_enumerated=n_states,
        min_original=Fraction(min(original_values), scale),
        min_transformed=Fraction(min(folded), scale),
    )
    return VerificationReport(
        CheckMode.SPECTRUM, counterexample is None, counterexample, stats
    )


def check_conditional(
    original: Polynomial,
    transformed: Polynomial,
    evidence=(),
    max_states: int = DEFAULT_STATE_CAP,
) -> VerificationReport:
    """Check a zero-auxiliary rewrite: equal minimum AND equal argmin set.

    `evidence` lists the Deduction / excludable-configuration facts the
    rewrite relied on; each is re-proved against the original's minimizers
    before the minima are compared, so a stale deduction surfaces as a failure
    with the violating minimizer as counterexample.
    """
    vars = sorted(set(original.variables()) | set(transformed.variables()))
    registry = original.registry
    n_states = _state_count(registry, vars)
    _check_cap(n_states, max_states)
    scale = _common_scale(original, transformed)
    best_original, argmin_original = _argmin(_blocks(original, vars, scale))
    best_transformed, argmin_transformed = _argmin(_blocks(transformed, vars, scale))

    counterexample = None
    for fact in evidence:
        for index in argmin_original:
            assignment = _state_assignment(registry, vars, index)
            if not _evidence_holds_at(fact, assignment):
                counterexample = assignment
                break
        if counterexample:
            break
    if counterexample is None and (
        best_original != best_transformed or argmin_original != argmin_transformed
    ):
        difference = set(argmin_original) ^ set(argmin_transformed)
        index = min(difference) if difference else argmin_original[0]
        counterexample = _state_assignment(registry, vars, index)

    stats = CheckStats(
        states_enumerated=n_states,
        min_original=Fraction(best_original, scale),
        min_transformed=Fraction(best_transformed, scale),
    )
    return VerificationReport(
        CheckMode.CONDITIONAL, counterexample is None, counterexample, stats
    )


def _evidence_holds_at(fact, assignment: dict) -> bool:
    """A Deduction must vanish at the minimizer; an ELC must not match it.

    Variables missing from the assignment are free, so a deduction cannot
    rely on them being 0 and an excludable configuration is extendable
    through them.
    """
    monomial = getattr(fact, "monomial", None)
    if monomial is not None:
        return any(assignment.get(v, 1) == 0 for v, _ in monomial)
    mapping = fact if isinstance(fact, dict) else fact.values
    return any(assignment.get(v, value) != value for v, value in mapping.items())


def cost_report(transformed: Polynomial, aux: Sequence[int]) -> CostReport:
    """Auxiliary count, non-submodular quadratic count ({0,1} parts only),
    largest absolute coefficient, and total stored terms."""
    non_submodular = 0
    for mono, coeff in transformed.terms.items():
        if monomial_degree(mono) != 2 or coeff <= 0:
            continue
        if all(
            transformed.registry.domain(v) is Domain.BOOLEAN for v, _ in mono
        ):
            non_submodular += 1
    return CostReport(
        aux_count=len(aux),
        non_submodular=non_submodular,
        max_abs_coefficient=max(
            (abs(c) for c in transformed.terms.values()), default=Fraction(0)
        ),
        term_count=len(transformed.terms),
    )
