"""Shared fixtures and the test-local brute-force oracle.

The helpers here recompute values straight from the term dictionaries with
Fraction arithmetic and itertools enumeration, independently of the library's
optimized verifier, so the two can check each other.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

from quadratizer.poly import Domain, Polynomial, VariableRegistry
from quadratizer.textio import parse_polynomial


def naive_value(p: Polynomial, assignment: dict) -> Fraction:
    """Term-by-term evaluation written independently of Polynomial.evaluate."""
    total = Fraction(0)
    for mono, coeff in p.terms.items():
        product = 1
        for var, exp in mono:
            product *= assignment[var] ** exp
        total += Fraction(coeff) * product
    return total


def all_assignments(p: Polynomial, vars=None):
    vars = sorted(vars if vars is not None else p.variables())
    domains = [p.registry.domain(v).values for v in vars]
    for combo in itertools.product(*domains):
        yield dict(zip(vars, combo))


def brute_force_min(p: Polynomial):
    best = None
    minimizers = []
    for assignment in all_assignments(p):
        value = naive_value(p, assignment)
        if best is None or value < best:
            best, minimizers = value, [assignment]
        elif value == best:
            minimizers.append(assignment)
    if best is None:
        best, minimizers = naive_value(p, {}), [{}]
    return best, minimizers


def pointwise_holds(original: Polynomial, transformed: Polynomial, aux) -> bool:
    """Naive nested-loop pointwise check (the tests' independent oracle)."""
    aux = sorted(aux)
    aux_domains = [transformed.registry.domain(a).values for a in aux]
    for x in all_assignments(original):
        best = None
        for combo in itertools.product(*aux_domains):
            full = dict(x)
            full.update(zip(aux, combo))
            value = naive_value(transformed, full)
            if best is None or value < best:
                best = value
        if best != naive_value(original, x):
            return False
    return True


def argmin_set(p: Polynomial, vars=None):
    _, minimizers = brute_force_min(p)
    return {tuple(sorted(m.items())) for m in minimizers}


@pytest.fixture
def registry4():
    registry = VariableRegistry()
    vars = [registry.add_variable(Domain.BOOLEAN, f"b{i + 1}") for i in range(4)]
    return registry, vars


# Worked instances reused across the suite (grammar text).
CUBIC_OBJECTIVE = "b1 b2 + b2 b3 + b3 b4 - 4 b1 b2 b3"
QUADRATIC_OBJECTIVE = "b1 b2 + b2 b3 + b3 b4 + 4 b1 - 4 b1 b2 - 4 b1 b3"
DEDUC_INSTANCE = "4 b1 b2 + b1 b2 b3 + b1 b2 b3 b4 + b1 b3 - 3 b1 + b2 - 2 b2 b3 - b2 b4"
DEDUC_REDUCED = "6 b1 b2 + b1 b3 - 3 b1 + b2 - 2 b2 b3 - b2 b4"
SPLIT_INSTANCE = "1 + b1 b2 b5 + b1 b6 b7 b8 + b3 b4 b8 - b1 b3 b4"
SPIN_INSTANCE = "- z1 z2 z3 + 1 z1 z4 - 1 z2 z3 + 3 z2 z4 + 2 z1 + 1 z3"


@pytest.fixture
def cubic_objective():
    return parse_polynomial(CUBIC_OBJECTIVE)


@pytest.fixture
def quadratic_objective():
    return parse_polynomial(QUADRATIC_OBJECTIVE)
