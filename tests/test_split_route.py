"""Split reduction's in-place branch quadratization against the loop it replaced.

`_reference_branch` is the earlier one-shot branch quadratizer, kept as it
was: it adds each term of a branch, in sorted order, to a running polynomial,
sending terms of degree >= 3 to ntr_kzfd (negative) or ptr_ishikawa
(positive).  `_reference_solve` is the earlier `solve_by_splitting` recursion
around it.  Both must give the same minimum and argmin, the same quadratic
subproblems with the same terms in the same dict order, and the same
auxiliary labels in the registry.
"""

import gc
import random
from fractions import Fraction

from quadratizer.gadgets.single_term import ntr_kzfd, ptr_ishikawa
from quadratizer.pipeline import DEFAULT_STRATEGY, _route_terms
from quadratizer.poly import Domain, Polynomial, VariableRegistry, monomial_degree
from quadratizer.rewrites import (
    _aux_budget,
    _default_quad_solver,
    most_connected_variable,
    solve_by_splitting,
    split,
)
from quadratizer.textio import parse_polynomial


def _reference_aux_budget(p):
    needed = 0
    for mono, coeff in p.terms.items():
        k = monomial_degree(mono)
        if k < 3:
            continue
        needed += 1 if coeff < 0 else (k - 1) // 2
    return needed


def _reference_branch(p):
    out = Polynomial.zero(p.registry)
    for mono, coeff in sorted(p.terms.items()):
        if monomial_degree(mono) < 3:
            out = out + Polynomial(p.registry, {mono: coeff})
        elif coeff < 0:
            out = out + ntr_kzfd(coeff, mono, p.registry).output
        else:
            out = out + ptr_ishikawa(coeff, mono, p.registry).output
    return out


def _reference_solve(p):
    original_vars = set(p.variables())
    subproblems = []
    best = [None, None]

    def dispatch(q, fixed):
        subproblems.append(q)
        minimum, argmin = _default_quad_solver(q)
        assignment = dict(fixed)
        for var, value in argmin.items():
            if var in original_vars:
                assignment[var] = value
        if best[0] is None or minimum < best[0]:
            best[0], best[1] = minimum, assignment

    def recurse(q, fixed):
        if q.degree() <= 2:
            dispatch(q, fixed)
            return
        if _reference_aux_budget(q) <= len(fixed):
            dispatch(_reference_branch(q), fixed)
            return
        var = most_connected_variable(q)
        low, high = split(q, var)
        recurse(low, {**fixed, var: 0})
        recurse(high, {**fixed, var: 1})

    recurse(p, {})
    argmin = {var: best[1].get(var, 0) for var in sorted(original_vars)}
    return best[0], argmin, subproblems


COEFFICIENTS = (-5, -3, -2, -1, 1, 2, 3, 5)


def _random_instance(seed):
    """A seeded {0,1} objective: 4-10 variables, degree <= 6, rational
    coefficients, with repeated monomials that merge and some that cancel to
    zero."""
    rng = random.Random(seed)
    registry = VariableRegistry()
    bs = [registry.add_variable(Domain.BOOLEAN, f"b{i + 1}") for i in range(rng.randint(4, 10))]
    terms = []
    totals = {}
    for _ in range(rng.randint(3, 12)):
        if totals and rng.random() < 0.25:
            mono = rng.choice(sorted(totals))
            # cancel the monomial exactly, or merge another coefficient into it
            coeff = -totals[mono] if rng.random() < 0.5 else Fraction(rng.choice(COEFFICIENTS), 3)
        else:
            degree = rng.randint(0, min(6, len(bs)))
            mono = tuple((v, 1) for v in sorted(rng.sample(bs, degree)))
            coeff = Fraction(rng.choice(COEFFICIENTS), rng.choice((1, 2, 3)))
        terms.append((mono, coeff))
        totals[mono] = totals.get(mono, 0) + coeff
    return Polynomial(registry, terms)


def _labels(registry):
    return [(registry.label(v), registry.gadget_of(v)) for v in registry]


def test_split_route_matches_reference_branch():
    in_place = 0
    for seed in range(2000):
        expected = _random_instance(seed)
        minimum, argmin, subproblems = _reference_solve(expected)
        actual = _random_instance(seed)
        result = solve_by_splitting(actual)
        assert result.minimum == minimum, seed
        assert result.argmin == argmin, seed
        assert [list(q.terms.items()) for q in result.subproblems] == [
            list(q.terms.items()) for q in subproblems
        ], seed
        assert _labels(actual.registry) == _labels(expected.registry), seed
        in_place += bool(actual.registry.auxiliaries())
    # the generator must reach the in-place branch often enough to matter
    assert in_place >= 1000


def test_aux_budget_counts_the_auxiliaries_routing_allocates():
    """The budget that decides in-place quadratization picks each term's
    gadget as the routing loop does, so it predicts the loop's auxiliaries."""
    for seed in range(300):
        p = _random_instance(seed)
        before = len(p.registry)
        aux_map = {}
        _route_terms(p.registry, sorted(p.terms.items()), DEFAULT_STRATEGY, aux_map)
        assert _aux_budget(p) == len(aux_map) == len(p.registry) - before, seed


def test_split_reduction_leaves_no_cyclic_garbage():
    # a function that calls itself forms a cycle with its own closure cell,
    # which would keep every branch alive until the collector runs
    p = parse_polynomial("b1 b2 b3 b4 - 2 b1 b2 b3 + 3 b2 b3 b4 b5 - b1 b4 b5 + b2 b5")
    gc.collect()
    gc.disable()
    try:
        result = solve_by_splitting(p)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert len(result.subproblems) > 1  # the call split, so branches were held
