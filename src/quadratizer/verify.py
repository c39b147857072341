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
the common denominator, so the arithmetic runs on exact Python ints.

Above the kernel sit one fold and one compare.  ``_fold`` takes the minimum
over the auxiliaries per original state, and ``_check`` compares it with the
original for the four global checks, consuming blocks as they arrive.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from .errors import EnumerationCapExceeded, InvalidParameter, QuadratizerError, VariableMismatch
from .errors import VerificationFailed
from .poly import Domain, Polynomial, _as_fraction, format_fraction

DEFAULT_STATE_CAP = 1 << 20
BLOCK_STATES = 4096


class Guarantee:
    """What a transformation claims to preserve, weakest first.

    CONDITIONAL_MIN: minimum and argmin set preserved, given a fact about
                     the global minima that `rewrites` proved before it
                     applied the rewrite (check_conditional proves no fact).
    GROUND_STATE:    minimum value/argmin set (projected) preserved.
    POINTWISE_MIN:   for every original assignment, minimizing over the
                     auxiliaries reproduces the original value exactly.

    Pointwise rewrites compose freely (auxiliary sets are disjoint, so the
    minima distribute over sums).  Ground-state rewrites do not: they reshape
    excited energies, so applying one to a term inside a larger objective is
    a claim that only a verification pass can confirm.
    """

    CONDITIONAL_MIN = "conditional-min"
    GROUND_STATE = "ground-state"
    POINTWISE_MIN = "pointwise-min"

    _ORDER = {CONDITIONAL_MIN: 0, GROUND_STATE: 1, POINTWISE_MIN: 2}

    @classmethod
    def weakest(cls, *levels: str) -> str:
        return min(levels, key=cls._ORDER.__getitem__)


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

    def require(self, message: str) -> "VerificationReport":
        """Return this report if it passed, else raise VerificationFailed(message, self)."""
        if not self.passed:
            raise VerificationFailed(message, self)
        return self


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


def _count_text(count: int, past_limit: str) -> str:
    """format_fraction(count), or `past_limit` when int() cannot write count."""
    try:
        return format_fraction(count)
    except QuadratizerError:
        return past_limit


def _space(registry, vars: Sequence[int], max_states: int, *polys: Polynomial):
    """(number of states over `vars`, common scale of the coefficients of
    `polys`); a space larger than the cap raises before anything is scaled.
    A count or cap that int() cannot write is written as powers instead."""
    if not isinstance(max_states, int):
        raise TypeError(f"the state cap must be an int, got {type(max_states).__name__}")
    n_states = _state_count(registry, vars)
    if n_states > max_states:
        sizes = Counter(len(registry.domain(var).values) for var in vars)
        powers = " * ".join(f"{size}^{k}" for size, k in sorted(sizes.items()))
        cap_bound = f"2^{max_states.bit_length() - 1} or more"
        raise EnumerationCapExceeded(f"{_count_text(n_states, powers)} states exceed the cap "
                                     f"of {_count_text(max_states, cap_bound)}")
    denominators = [c.denominator for p in polys for c in p.terms.values()]
    return n_states, lcm(*denominators) if denominators else 1


def _scaled_terms(p: Polynomial, scale: int):
    # scale is a multiple of every denominator, so this is c * scale exactly
    return [
        (c.numerator * (scale // c.denominator), mono)
        for mono, c in sorted(p.terms.items())
    ]


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
    _, scale = _space(p.registry, vars, max_states, p)
    best, indices = _argmin(_blocks(p, vars, scale))
    minimizers = [_state_assignment(p.registry, vars, i) for i in indices]
    return Fraction(best, scale), minimizers


def value_range(p: Polynomial):
    """Exact (minimum, maximum) of p over its assignments, at DEFAULT_STATE_CAP."""
    vars = p.variables()
    _, scale = _space(p.registry, vars, DEFAULT_STATE_CAP, p)
    lows, highs = [], []
    for _, values in _blocks(p, vars, scale):
        lows.append(min(values))
        highs.append(max(values))
    return Fraction(min(lows), scale), Fraction(max(highs), scale)


def _require_disjoint(x_vars: Sequence[int], aux: Sequence[int]):
    if set(aux) & set(x_vars):
        raise VariableMismatch("auxiliary variables overlap the original variables")


def _split_vars(original: Polynomial, transformed: Polynomial, aux: Sequence[int]):
    x_vars = original.variables()
    aux = sorted(set(aux))
    _require_disjoint(x_vars, aux)
    allowed = set(x_vars) | set(aux)
    extra = [v for v in transformed.variables() if v not in allowed]
    if extra:
        raise VariableMismatch(f"transformed polynomial uses unexpected variables {extra}")
    return x_vars, aux


def _fold(transformed: Polynomial, x_vars: Sequence[int], aux: Sequence[int], scale: int):
    """min over `aux` of `transformed` per state of `x_vars`, as (first
    state index, values) blocks in state order: the kernel's own stream when
    there are no auxiliaries, else one block.  The auxiliaries vary slowest,
    so state i of the full space belongs to state i mod |x-space|.  A block
    holding several whole copies of the x-space is first folded within
    itself with strided slices; then each block is folded into one
    x-space-sized list with elementwise min."""
    blocks = _blocks(transformed, [*x_vars, *aux], scale)
    if not aux:
        return blocks
    size = _state_count(transformed.registry, x_vars)
    folded: list = []
    for first, values in blocks:
        if len(values) > size:
            values = [min(values[j::size]) for j in range(size)]
        if first < size:
            folded += values
        else:
            offset = first % size
            end = offset + len(values)
            folded[offset:end] = map(min, folded[offset:end], values)
    return [(0, folded)]


def _first_difference(want: list, got: list) -> Optional[int]:
    return next((i for i, (w, g) in enumerate(zip(want, got)) if w != g), None)


def _report(mode, counterexample, n_states, low_original, low_transformed, scale=1):
    """The verdict: passed exactly when there is no counterexample.  The
    minima are exact values times `scale`."""
    stats = CheckStats(n_states, Fraction(low_original, scale), Fraction(low_transformed, scale))
    return VerificationReport(mode, counterexample is None, counterexample, stats)


def _check(mode: str, original: Polynomial, transformed: Polynomial, aux: Sequence[int],
           max_states: int) -> VerificationReport:
    """The fold and compare step of the four global checks.  CONDITIONAL
    compares over the union of both polynomials' variables, with no
    auxiliaries; the other modes split the variables first (a
    VariableMismatch comes before an EnumerationCapExceeded).  The original's
    values stream block by block; only SPECTRUM holds every value.

    The counterexample is the lowest failing state: for POINTWISE, and for
    SPECTRUM when the multisets differ, the first state whose values differ;
    for GROUND_STATE and CONDITIONAL the lowest state in exactly one argmin
    set, else, for CONDITIONAL when only the minima differ, the first
    original minimizer."""
    if mode == CheckMode.CONDITIONAL:
        x_vars, aux = sorted(set(original.variables()) | set(transformed.variables())), []
    else:
        x_vars, aux = _split_vars(original, transformed, aux)
    n_states, scale = _space(original.registry, x_vars + aux, max_states, original, transformed)
    want, got = _blocks(original, x_vars, scale), _fold(transformed, x_vars, aux, scale)
    if mode in (CheckMode.GROUND_STATE, CheckMode.CONDITIONAL):
        (low_want, argmin_want), (low_got, argmin_got) = _argmin(want), _argmin(got)
        index = min(set(argmin_want) ^ set(argmin_got), default=None)
        if index is None and mode == CheckMode.CONDITIONAL and low_want != low_got:
            index = argmin_want[0]
    else:
        if mode == CheckMode.SPECTRUM:  # one block: the multisets need every value
            want = [(0, [v for _, values in want for v in values])]
        got = itertools.chain.from_iterable(values for _, values in got)
        index, lows = None, []
        for first, values in want:
            others = list(itertools.islice(got, len(values)))
            lows.append((min(values), min(others)))
            if mode == CheckMode.SPECTRUM and sorted(values) == sorted(others):
                continue
            if index is None and (i := _first_difference(values, others)) is not None:
                index = first + i
        low_want, low_got = map(min, zip(*lows))
    counterexample = None if index is None else _state_assignment(original.registry, x_vars, index)
    return _report(mode, counterexample, n_states, low_want, low_got, scale)


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
    return _check(CheckMode.POINTWISE, original, transformed, aux, max_states)


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
    return _check(CheckMode.GROUND_STATE, original, transformed, aux, max_states)


def check_spectrum(
    original: Polynomial,
    transformed: Polynomial,
    aux: Sequence[int],
    max_states: int = DEFAULT_STATE_CAP,
) -> VerificationReport:
    """Multiset of aux-minimized values vs the original's value multiset."""
    return _check(CheckMode.SPECTRUM, original, transformed, aux, max_states)


def check_conditional(
    original: Polynomial,
    transformed: Polynomial,
    max_states: int = DEFAULT_STATE_CAP,
) -> VerificationReport:
    """Check a zero-auxiliary rewrite: equal minimum AND equal argmin set,
    over the union of both polynomials' variables.

    The fact the rewrite relied on is not re-proved here: `rewrites` proves
    it when it applies the rewrite.  The counterexample is the lowest state
    in exactly one argmin set, else the first original minimizer when only
    the minima differ.
    """
    return _check(CheckMode.CONDITIONAL, original, transformed, (), max_states)


def check_claim(
    guarantee: str, original: Polynomial, transformed: Polynomial, aux: Sequence[int],
    max_states: int = DEFAULT_STATE_CAP,
) -> VerificationReport:
    """The one place a guarantee label picks its check: pointwise-min runs
    check_pointwise, conditional-min check_conditional, ground-state
    check_groundstate, and any other label raises InvalidParameter.
    Conditional-min labels zero-auxiliary rewrites, so auxiliaries under it
    raise InvalidParameter too.  A spin original whose variables all have
    {0,1} twins is proved through its twin image (z = 2b - 1) when
    `transformed` uses a twin; an original variable passed as an auxiliary
    is rejected before that.  The report is returned, passed or failed;
    callers that must not go on after a failure call its `require`."""
    if guarantee not in Guarantee._ORDER:
        raise InvalidParameter(f"unknown guarantee {guarantee!r}; expected one of "
                               f"{', '.join(sorted(Guarantee._ORDER))}")
    if guarantee == Guarantee.CONDITIONAL_MIN and aux:
        raise InvalidParameter(f"{guarantee} takes no auxiliaries, got {len(set(aux))};"
                               " check pointwise-min or ground-state instead")
    _require_disjoint(original.variables(), aux)
    entries = [original.registry.entry(v) for v in original.variables()]
    partners = [e.partner if e.domain is Domain.SPIN else None for e in entries]
    if partners and None not in partners and set(partners) & set(transformed.variables()):
        original = original.to_boolean()
    if guarantee == Guarantee.POINTWISE_MIN:
        return check_pointwise(original, transformed, aux, max_states)
    if guarantee == Guarantee.CONDITIONAL_MIN:
        return check_conditional(original, transformed, max_states)
    return check_groundstate(original, transformed, aux, max_states)


def check_ternary_encoding(
    original: Polynomial,
    transformed: Polynomial,
    t: int,
    z_pair,
    lam,
    max_states: int = DEFAULT_STATE_CAP,
) -> VerificationReport:
    """Ground-space check for the two-spin encoding of one ternary variable.

    Each minimizer of the transformed polynomial is projected onto the
    original's variables, with t = (z1 + z2)/2; the projected argmin set must
    equal the original's and the minimum must sit exactly lam below (the
    valid manifold's penalty energy).  A spin or an original variable missing
    from the transformed polynomial is missing from its minimizers and free,
    so each of its values projects, and a counterexample assigns every
    original variable.  A pair holding an original variable, or a
    transformed polynomial with a variable outside the original's and the
    pair, raises VariableMismatch, as the other checks do.
    The projection is not a minimum over auxiliaries, so this is not a fold:
    both polynomials are minimized over their own spaces, and the states
    enumerated are the sum of the two.
    """
    z1, z2 = z_pair
    for var in (t, z1, z2):
        original.registry.entry(var)  # an id outside the registry is an error, not a free spin
    x_vars = [v for v in _split_vars(original, transformed, z_pair)[0] if v != t]
    lam = _as_fraction(lam)
    min_original, argmin_original = enumerate_min(original, max_states)
    min_transformed, argmin_transformed = enumerate_min(transformed, max_states)
    n_states = sum(_state_count(p.registry, p.variables()) for p in (original, transformed))

    def project(assignment):
        free = ([assignment[v]] if v in assignment else original.registry.domain(v).values
                for v in (*x_vars, z1, z2))
        for *image, x1, x2 in itertools.product(*free):
            yield tuple(sorted({**dict(zip(x_vars, image)), t: (x1 + x2) // 2}.items()))

    want = {tuple(sorted(a.items())) for a in argmin_original}
    got = {image for a in argmin_transformed for image in project(a)}
    counterexample = None
    if min_transformed != min_original - lam:
        counterexample = dict(min(want))
    elif want != got:
        counterexample = dict(min(want ^ got))
    return _report(
        CheckMode.GROUND_STATE, counterexample, n_states, min_original, min_transformed
    )


def cost_report(transformed: Polynomial, aux: Sequence[int]) -> CostReport:
    """Distinct auxiliary count, non-submodular quadratic count ({0,1} parts
    only), largest absolute coefficient, and total stored terms."""
    return CostReport(aux_count=len(set(aux)), non_submodular=transformed._non_submodular(),
                      max_abs_coefficient=transformed._max_abs_coefficient(),
                      term_count=len(transformed.terms))
