"""The benchmark's own brute-force evaluator, written independently of
``quadratizer.verify``.

It walks assignments with itertools.product and evaluates every term of the
polynomial at every state.  Coefficients are put over one common denominator
first so the inner loop multiplies integers; every result is turned back
into an exact Fraction.  Nothing here shares code with the library's zeta
transform or its mixed-radix enumeration, so the two check each other.

Only spaces of at most MAX_STATES assignments are checked this way.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm, prod

MAX_STATES = 1 << 12


def space(p, vars) -> int:
    return prod(len(p.registry.domain(v).values) for v in vars)


def _scale(*polys) -> int:
    return lcm(1, *(c.denominator for p in polys for c in p.terms.values()))


def _values(p, vars, scale: int) -> list:
    """Scaled integer values of p at every assignment of ``vars``, in
    itertools.product order (the last variable varies fastest)."""
    position = {v: i for i, v in enumerate(vars)}
    terms = [
        (int(c * scale), [(position[v], e) for v, e in mono]) for mono, c in p.terms.items()
    ]
    values = []
    for state in itertools.product(*(p.registry.domain(v).values for v in vars)):
        total = 0
        for coeff, factors in terms:
            for i, e in factors:
                coeff *= state[i] ** e
            total += coeff
        values.append(total)
    return values


def minimum(p):
    """(exact minimum, set of minimizers as sorted (var, value) tuples)."""
    vars = p.variables()
    scale = _scale(p)
    values = _values(p, vars, scale)
    best = min(values)
    states = itertools.product(*(p.registry.domain(v).values for v in vars))
    minimizers = {tuple(zip(vars, s)) for s, v in zip(states, values) if v == best}
    return Fraction(best, scale), minimizers


def folded(original, transformed, aux):
    """(original values, aux-minimised transformed values), both Fractions,
    indexed alike by the assignments of the original's variables."""
    xs = original.variables()
    aux = sorted(aux)
    scale = _scale(original, transformed)
    want = _values(original, xs, scale)
    # auxiliaries first, so each original state's block is strided by |x space|
    got_all = _values(transformed, aux + xs, scale)
    block = len(want)
    got = [min(got_all[i::block]) for i in range(block)]
    return [Fraction(v, scale) for v in want], [Fraction(v, scale) for v in got]


def verdict(mode: str, original, transformed, aux) -> tuple:
    """(passed, minimum of original, minimum of aux-minimised transformed)
    for the pointwise or ground-state guarantee."""
    want, got = folded(original, transformed, aux)
    if mode == "pointwise":
        passed = want == got
    else:
        low_want, low_got = min(want), min(got)
        passed = {i for i, v in enumerate(want) if v == low_want} == {
            i for i, v in enumerate(got) if v == low_got
        }
    return passed, min(want), min(got)
