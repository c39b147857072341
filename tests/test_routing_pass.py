"""The single routing pass against the rescan loop it replaced.

`_reference_routing` is the earlier rewrite loop, kept as it was apart from
its iteration guard and shorter error messages: it rescans and re-sorts the
whole working polynomial and copies it for every high-degree term.  Both must give the same output terms in the same
dict order, the same auxiliary ids, traces and labels, and the same guarantee.
"""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from quadratizer import pipeline
from quadratizer.errors import NoApplicableGadget
from quadratizer.gadgets.base import GADGETS, GadgetResult, Guarantee
from quadratizer.gadgets.single_term import apply_gadget, ntr_kzfd_literals
from quadratizer.pipeline import Strategy, quadratize
from quadratizer.poly import Domain, Polynomial, VariableRegistry, monomial_degree, monomial_vars
from quadratizer.textio import parse_polynomial


def _ref_applies_to(row, coefficient_sign, degree, domain):
    """The earlier routing rule of a catalog row, kept as it was."""
    if row.sign == "negative" and coefficient_sign >= 0:
        return False
    if row.sign == "positive" and coefficient_sign <= 0:
        return False
    return domain is row.domain and row.degree_error(degree) is None


def _term_domain(p, mono):
    domains = {p.registry.domain(v) for v in monomial_vars(mono)}
    return domains.pop() if len(domains) == 1 else None


def _merge(state, result: GadgetResult):
    work, aux_map, guarantee = state
    for aux in result.aux:
        aux_map[aux] = result.trace
    return (
        work + result.output,
        aux_map,
        Guarantee.weakest(guarantee, result.guarantee),
    )


def _route_term(work, mono, coeff, strategy, aux_map, guarantee):
    registry = work.registry
    domain = _term_domain(work, mono)
    if domain is None:
        raise NoApplicableGadget("no gadget accepts monomials mixing variable domains")
    degree = monomial_degree(mono)
    sign = 1 if coeff > 0 else -1
    if strategy.odd_split and sign > 0 and degree % 2 == 1 and domain is Domain.BOOLEAN:
        return _route_odd_split(work, mono, coeff, strategy, aux_map, guarantee)
    route = strategy.positive_route if sign > 0 else strategy.negative_route
    for name in route:
        if _ref_applies_to(GADGETS[name], sign, degree, domain):
            result = apply_gadget(name, coeff, mono, registry, strategy.max_states)
            work = work - Polynomial(registry, {mono: coeff})
            return _merge((work, aux_map, guarantee), result)
    raise NoApplicableGadget(f"no routed gadget accepts a degree-{degree} term")


def _route_odd_split(work, mono, coeff, strategy, aux_map, guarantee):
    registry = work.registry
    vars = sorted(monomial_vars(mono))
    head_vars, last = vars[:-1], vars[-1]
    work = work - Polynomial(registry, {mono: coeff})
    head_mono = tuple((v, 1) for v in head_vars)
    if len(head_vars) >= 3:
        for name in strategy.positive_route:
            if _ref_applies_to(GADGETS[name], 1, len(head_vars), Domain.BOOLEAN):
                result = apply_gadget(name, coeff, head_mono, registry, strategy.max_states)
                break
        else:
            raise NoApplicableGadget("no routed gadget accepts the split head")
        work, aux_map, guarantee = _merge((work, aux_map, guarantee), result)
    else:
        work = work + Polynomial(registry, {head_mono: coeff})
    tail = ntr_kzfd_literals(-coeff, head_vars, [last], registry)
    tail = replace(tail, trace=f"odd_split tail: {tail.trace}")
    return _merge((work, aux_map, guarantee), tail)


def _reference_routing(p, strategy):
    aux_map = {}
    guarantee = Guarantee.POINTWISE_MIN
    work = p
    if strategy.multi_term:
        work, aux_map, guarantee = pipeline._apply_multi_term(work, aux_map, guarantee, strategy)
    while True:
        high = [(mono, coeff) for mono, coeff in work.terms.items() if monomial_degree(mono) >= 3]
        if not high:
            break
        high.sort(key=lambda mc: (-monomial_degree(mc[0]), mc[0]))
        mono, coeff = high[0]
        work, aux_map, guarantee = _route_term(work, mono, coeff, strategy, aux_map, guarantee)
    return work, aux_map, guarantee


def _random_boolean(seed, term_count):
    """A seeded {0,1} objective of degree <= 5 with `term_count` draws."""
    rng = random.Random(seed)
    registry = VariableRegistry()
    bs = [registry.add_variable(Domain.BOOLEAN, f"b{i + 1}") for i in range(rng.randint(8, 24))]
    terms = {}
    for _ in range(term_count):
        mono = tuple((v, 1) for v in sorted(rng.sample(bs, rng.randint(1, 5))))
        terms[mono] = terms.get(mono, 0) + Fraction(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)), rng.choice((1, 2)))
    return Polynomial(registry, terms)


def _labels(registry):
    return [(registry.label(v), registry.gadget_of(v)) for v in registry]


CASES = [(None, seed, size) for seed, size in ((1, 20), (2, 80), (3, 300))] + [
    ("rosenberg", 4, 15), ("rosenberg", 5, 120), ("fgbz", 6, 40), ("fgbz", 7, 300),
]


@pytest.mark.parametrize("odd_split", [False, True])
@pytest.mark.parametrize("multi_term,seed,size", CASES)
def test_single_pass_matches_rescan_loop(multi_term, seed, size, odd_split):
    strategy = Strategy(multi_term=multi_term, odd_split=odd_split)
    expected = _random_boolean(seed, size)
    output, aux_map, guarantee = _reference_routing(expected, strategy)
    actual = _random_boolean(seed, size)
    result = quadratize(actual, strategy)
    assert list(result.output.terms.items()) == list(output.terms.items())
    assert list(result.aux_map.items()) == list(aux_map.items())
    assert result.guarantee == guarantee
    assert _labels(actual.registry) == _labels(expected.registry)


@pytest.mark.parametrize(
    "text,strategy,message",
    [
        ("b1 b2 z1", Strategy(odd_split=True),
         "no gadget accepts monomials mixing variable domains"),
        ("b1 b2 b3 b4 b5", Strategy(odd_split=True, positive_route=("ptr_kz",)),
         "no routed gadget accepts a degree-4 'b' term with coefficient 1"),
    ],
    ids=["mixed-domains", "unroutable-head"],
)
def test_odd_split_keeps_routing_errors(text, strategy, message):
    """A mixed-domain odd positive cubic is not split, and a split head no
    routed gadget accepts is refused with the head's degree."""
    with pytest.raises(NoApplicableGadget) as caught:
        quadratize(parse_polynomial(text), strategy)
    assert str(caught.value) == message
