"""End-to-end quadratization: route every high-degree term through a gadget,
track costs and the weakest guarantee, and (optionally) prove the result
against the oracle.

Routing order: multi-term grouping first when enabled (grouping after
splitting would destroy shareable structure), then one deterministic pass of
per-term sign routing over the terms of degree >= 3, highest degree first,
folding each gadget's quadratic output into one accumulator.  An all-spin
objective whose routes name no spin gadget is routed through its {0,1} twin
(z = 2b - 1, a bijection), so output and verification are over the twins.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain
from typing import Optional

from .errors import InvalidParameter, NoApplicableGadget, QuadratizerError, UnknownGadget
from .gadgets.base import GADGETS, GadgetResult
from .gadgets.single_term import apply_gadget, ntr_kzfd_literals
from .poly import Domain, Polynomial, format_fraction, monomial_degree, monomial_vars
from .poly import _accumulate, _share_coefficients
from .verify import (
    DEFAULT_STATE_CAP,
    CostReport,
    Guarantee,
    VerificationReport,
    check_claim,
    cost_report,
)

@dataclass(frozen=True)
class Strategy:
    """How quadratize() picks its rewrites.

    Routes are ordered gadget-name lists tried left to right per term; an
    experimental row on a route is applied through apply_gadget's oracle gate.
    multi_term enables Rosenberg substitution or the cover reductions as a
    grouping pre-pass; odd_split peels odd positive monomials into an
    even-degree head and a negated-literal tail first.
    """

    negative_route: tuple = ("ntr_kzfd",)
    positive_route: tuple = ("ptr_ishikawa",)
    multi_term: Optional[str] = None  # None | "rosenberg" | "fgbz"
    odd_split: bool = False
    verify_after: bool = False
    max_states: int = DEFAULT_STATE_CAP


DEFAULT_STRATEGY = Strategy()


@dataclass
class QuadratizationResult:
    """A degree <= 2 polynomial plus the evidence trail that produced it."""

    output: Polynomial
    aux_map: dict  # aux var id -> trace of the gadget application that made it
    cost: CostReport
    report: Optional[VerificationReport]
    guarantee: str

    @property
    def aux(self) -> tuple:
        return tuple(sorted(self.aux_map))


def _validate_strategy(strategy: Strategy):
    if strategy.multi_term not in (None, "rosenberg", "fgbz"):
        raise InvalidParameter(
            f"multi_term must be None, 'rosenberg' or 'fgbz', got {strategy.multi_term!r}"
        )
    for name in tuple(strategy.negative_route) + tuple(strategy.positive_route):
        if name not in GADGETS:
            raise UnknownGadget(f"no gadget named {name!r}")


def _routes_through_twins(p: Polynomial, strategy: Strategy) -> bool:
    routes = tuple(strategy.negative_route) + tuple(strategy.positive_route)
    return (
        p.degree() >= 3
        and all(p.registry.domain(v) is Domain.SPIN for v in p.variables())
        and not any(GADGETS[name].domain is Domain.SPIN for name in routes)
    )


def _fold(terms: dict, aux_map: dict, guarantee: str, result: GadgetResult) -> str:
    """Add a gadget's output into the accumulator in place, exactly as
    `work + result.output` would, and return the weakened guarantee."""
    for aux in result.aux:
        aux_map[aux] = result.trace
    for mono, coeff in result.output.terms.items():
        _accumulate(terms, mono, coeff)
    return Guarantee.weakest(guarantee, result.guarantee)


def _apply_multi_term(work, aux_map, guarantee, strategy):
    # imported here, so a quadratize without a multi-term pass never loads them
    from .gadgets.multi_term import (
        choose_rosenberg_pair,
        discover_fgbz_groups,
        fgbz_negative,
        fgbz_positive,
        rosenberg_pair,
    )

    while True:
        if strategy.multi_term == "rosenberg":
            pair = choose_rosenberg_pair(work)
            if pair is None:
                break
            result = rosenberg_pair(work, *pair, penalty="auto")
            terms = {}  # the output is the whole rewritten polynomial
        else:
            # Cover reductions: negative groups first (they finish in one step),
            # then positive singleton-common groups, until no group of >= 2 terms.
            groups = discover_fgbz_groups(work, "negative") or discover_fgbz_groups(work, "positive")
            if not groups:
                break
            group = groups[0]
            apply = fgbz_negative if group.members[0][1] < 0 else fgbz_positive
            result = apply(group, work.registry)
            terms = dict(work.terms)
            for mono, _ in group.members:
                del terms[mono]
        guarantee = _fold(terms, aux_map, guarantee, result)
        work = Polynomial._wrap(work.registry, terms)
    return work, aux_map, guarantee


def _pick_gadget(registry, mono, coeff, strategy) -> str:
    """The first gadget on the term's route whose catalog row does not reject the term."""
    for name in strategy.positive_route if coeff > 0 else strategy.negative_route:
        if GADGETS[name].rejection(coeff, mono, registry) is None:
            return name
    domains = {registry.domain(v) for v in monomial_vars(mono)}
    if len(domains) != 1:
        raise NoApplicableGadget("no gadget accepts monomials mixing variable domains")
    raise NoApplicableGadget(
        f"no routed gadget accepts a degree-{monomial_degree(mono)} {domains.pop().tag!r} "
        f"term with coefficient {format_fraction(coeff)}"
    )


def _route_terms(registry, items, strategy, aux_map=None, guarantee=Guarantee.POINTWISE_MIN):
    """Fold (monomial, coefficient) pairs into one accumulator in the given
    order: terms of degree <= 2 as they are, every other term through its
    routed gadget.  odd_split folds b1..bk (odd k) as its head b1..b_{k-1},
    then the negated-literal tail -b1..b_{k-1}*(1-bk).  Returns the
    accumulated terms and the weakened guarantee; aux_map fills in place."""
    terms: dict = {}
    aux_map = {} if aux_map is None else aux_map
    for mono, coeff in items:
        last = None
        degree = monomial_degree(mono)
        if strategy.odd_split and coeff > 0 and degree > 2 and degree % 2 and all(
            registry.domain(v) is Domain.BOOLEAN for v in monomial_vars(mono)
        ):
            *head, last = sorted(monomial_vars(mono))
            mono, degree = tuple((v, 1) for v in head), degree - 1
        if degree <= 2:
            _accumulate(terms, mono, coeff)
        else:
            name = _pick_gadget(registry, mono, coeff, strategy)
            result = apply_gadget(name, coeff, mono, registry, strategy.max_states)
            if result.output.degree() > 2:
                raise RuntimeError(f"gadget output is not quadratic: {result.trace}")
            guarantee = _fold(terms, aux_map, guarantee, result)
        if last is not None:
            tail = ntr_kzfd_literals(-coeff, head, [last], registry)
            tail = replace(tail, trace=f"odd_split tail: {tail.trace}")
            guarantee = _fold(terms, aux_map, guarantee, tail)
    return terms, guarantee


def quadratize(p: Polynomial, strategy: Strategy = DEFAULT_STRATEGY) -> QuadratizationResult:
    """Reduce p to degree <= 2, returning the output polynomial, the
    per-auxiliary trace, a cost report, and (with verify_after) the oracle's
    report; verification failure raises instead of returning."""
    _validate_strategy(strategy)
    if _routes_through_twins(p, strategy):
        p = p.to_boolean()
    aux_map: dict[int, str] = {}
    guarantee = Guarantee.POINTWISE_MIN
    work = p
    if strategy.multi_term:
        work, aux_map, guarantee = _apply_multi_term(work, aux_map, guarantee, strategy)
    low = (item for item in work.terms.items() if monomial_degree(item[0]) <= 2)
    high = sorted(
        (item for item in work.terms.items() if monomial_degree(item[0]) >= 3),
        key=lambda item: (-monomial_degree(item[0]), item[0]),
    )
    terms, guarantee = _route_terms(work.registry, chain(low, high), strategy, aux_map, guarantee)
    work = Polynomial._wrap(work.registry, _share_coefficients(terms))  # as constructed ones do
    cost = cost_report(work, sorted(aux_map))
    report = None
    if strategy.verify_after:
        report = check_claim(guarantee, p, work, sorted(aux_map), strategy.max_states)
        report.require("quadratization failed verification")
    return QuadratizationResult(
        output=work, aux_map=aux_map, cost=cost, report=report, guarantee=guarantee
    )


@dataclass(frozen=True)
class StrategyOutcome:
    """One row of compare_strategies: failures recorded, never raised."""

    strategy: Strategy
    ok: bool
    cost: Optional[CostReport]
    guarantee: Optional[str]
    error: Optional[str]


def _outcome(p: Polynomial, strategy: Strategy) -> StrategyOutcome:
    """One run's row; its output is dropped on return, before the next run."""
    try:
        result = quadratize(p, strategy)
    except QuadratizerError as error:
        return StrategyOutcome(strategy, False, None, None, f"{type(error).__name__}: {error}")
    return StrategyOutcome(strategy, True, result.cost, result.guarantee, None)


def compare_strategies(p: Polynomial, strategies) -> list[StrategyOutcome]:
    """Run quadratize once per strategy and tabulate the cost trade-offs."""
    return [_outcome(p, strategy) for strategy in strategies]


def flip_to_submodular(p: Polynomial):
    """Greedy post-pass: repeatedly flip the single {0,1} variable whose
    negation most reduces the non-submodular quadratic count, ties to the
    lowest id.

    Returns (flipped polynomial, flip mask); apply the mask to assignments
    recovered from the flipped problem.  Quadratic {0,1} inputs only.

    The rounds read a sign table, not the polynomial: flipping v turns c*v*u
    into c*u - c*v*u, so it negates exactly the quadratic coefficients that
    hold v and never zeroes or merges one.  The polynomial is flipped once.
    """
    count = p.quadratic_profile().non_submodular  # raises NotQuadratic or DomainViolation
    positive = {m: c > 0 for m, c in p.terms.items() if monomial_degree(m) == 2}
    incident: dict = {var: [] for var in p.variables()}
    for mono in positive:
        for var, _ in mono:
            incident[var].append(mono)
    mask = frozenset()
    while True:
        best_var, best_count = None, count
        for var, monos in incident.items():
            flipped = count + sum(-1 if positive[m] else 1 for m in monos)
            if flipped < best_count:
                best_var, best_count = var, flipped
        if best_var is None:
            return p.flip(mask)
        for mono in incident[best_var]:
            positive[mono] = not positive[mono]
        count, mask = best_count, mask ^ {best_var}
