"""Zero-auxiliary rewrites: deduction reduction, excludable local
configurations, and split reduction.

All three trade enumeration work for auxiliary variables.  A deduction
m = 0 and an excludable configuration are facts about the global minima of a
reference polynomial, proved one way (`_excludable`): no global minimizer
extends the configuration, for a deduction the one setting m's variables to
1.  A rewrite always proves its fact before it applies it, enumerating at
verify.DEFAULT_STATE_CAP.  Split reduction has no routing of its own: a branch
it quadratizes in place goes through the pipeline's routing loop with the
default routes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from .errors import DeductionUnproven, DomainViolation, ElcUnproven, InvalidParameter
from .gadgets.base import GADGETS, GadgetResult, Guarantee
from .gadgets.multi_term import _shared_subsets
from .pipeline import DEFAULT_STRATEGY, _pick_gadget, _route_terms
from .poly import Monomial, Polynomial, _require_boolean, format_fraction, monomial_degree
from .poly import _as_fraction, monomial_vars
from .verify import enumerate_min, value_range


@dataclass(frozen=True)
class Deduction:
    """A monomial over {0,1} variables that equals zero (some variable of it
    is 0) at every global minimum of a reference polynomial."""

    monomial: Monomial


# A partial assignment is a plain {var: value} dict over a variable subset.
PartialAssignment = dict


def _extends(assignment: dict, config: dict) -> bool:
    """Does `assignment` match every value of `config`?  A variable missing
    from the assignment is free, so it matches any value."""
    return all(assignment.get(v, x) == x for v, x in config.items())


def _excludable(p: Polynomial, configs) -> list:
    """The configurations, in the order given, that no global minimizer of p
    extends.  A variable outside p's support is free, so a minimizer always
    extends to match it."""
    _, minimizers = enumerate_min(p)
    return [c for c in configs if not any(_extends(m, c) for m in minimizers)]


def find_zero_deductions(p: Polynomial, max_arity: int) -> list[Deduction]:
    """Every monomial of arity <= max_arity over p's {0,1} variables that
    vanishes at all global minima of p, in deterministic order."""
    support = p.variables()
    _require_boolean(p.registry, support, "deductions are defined over {0,1} variables")
    ones = (
        dict.fromkeys(subset, 1)
        for arity in range(1, max_arity + 1)
        for subset in itertools.combinations(support, arity)
    )
    return [Deduction(tuple(config.items())) for config in _excludable(p, ones)]


def _cofactor(p: Polynomial, mono: Monomial):
    """Write p = mono * cofactor + rest (multilinear split)."""
    vars = set(monomial_vars(mono))
    cofactor = []
    rest = {}
    for term, coeff in p.terms.items():
        if vars <= set(monomial_vars(term)):
            cofactor.append((tuple((v, e) for v, e in term if v not in vars), coeff))
        else:
            rest[term] = coeff
    return Polynomial(p.registry, cofactor), Polynomial(p.registry, rest)


def apply_deduc_reduc(p: Polynomial, deduction: Deduction) -> GadgetResult:
    """Rewrite p = m*C + R as R + lam*m for a deduction m = 0 over {0,1}
    variables, once it is proved here.

    lam is the exact maximum of the cofactor C over its own support (0 when
    C is empty), so states violating the deduction are pushed at or above
    their original value while all states honoring it keep their value: the
    global minima are preserved exactly (the rest of the spectrum is not).
    """
    mono = deduction.monomial
    vars = monomial_vars(mono)
    _require_boolean(p.registry, vars, "deductions are defined over {0,1} variables")
    mono_text = "".join(p.registry.display_name(v) for v in vars)
    if not _excludable(p, [dict.fromkeys(vars, 1)]):
        raise DeductionUnproven(f"{mono_text}=0 fails at a global minimizer")
    cofactor, rest = _cofactor(p, mono)
    lam = value_range(cofactor)[1] if cofactor else Fraction(0)
    output = rest + Polynomial(p.registry, {mono: lam})
    trace = f"deduc_reduc({mono_text}=0, lam={format_fraction(lam)})"
    return GadgetResult(output, (), Guarantee.CONDITIONAL_MIN, trace)


def find_elcs(p: Polynomial, vars) -> list[PartialAssignment]:
    """All partial assignments over nonempty subsets of `vars` that no global
    minimizer of p extends (excludable local configurations)."""
    vars = sorted(vars)
    _require_boolean(p.registry, vars, "excludable configurations use {0,1} variables")
    configs = (
        dict(zip(subset, values))
        for arity in range(1, len(vars) + 1)
        for subset in itertools.combinations(vars, arity)
        for values in itertools.product((0, 1), repeat=arity)
    )
    return _excludable(p, configs)


def _elc_penalty(registry, config: PartialAssignment) -> Polynomial:
    """prod(b if set to 1 else 1 - b) over the configuration, expanded in one pass."""
    literals = ([((v,), 1)] if config[v] == 1 else [((v,), -1), ((), 1)] for v in sorted(config))
    return Polynomial.from_products(registry, (
        (sum((vars for vars, _ in choice), ()), math.prod(c for _, c in choice))
        for choice in itertools.product(*literals)
    ))


def apply_elc(p: Polynomial, elc: PartialAssignment, alpha="auto") -> GadgetResult:
    """Add alpha * [configuration matched] to p, once the configuration is
    proved here.

    The indicator is the product of b or (1-b) literals for the excluded
    configuration; since no global minimizer matches it, any alpha >= 0
    preserves the minima, and a negative alpha raises InvalidParameter.  The
    automatic alpha is (max - min of p) + 1, which also dominates any term
    the penalty is meant to cancel.
    """
    registry = p.registry
    _require_boolean(registry, elc, "excludable configurations use {0,1} variables")
    for value in elc.values():
        if value not in (0, 1):
            raise DomainViolation(f"value {value} is not in {{0,1}}")
    if alpha != "auto":  # refused before the proof, which may enumerate up to the cap
        alpha = _as_fraction(alpha)
        if alpha < 0:
            raise InvalidParameter(f"alpha must be >= 0, got {format_fraction(alpha)}")
    if not _excludable(p, [elc]):
        raise ElcUnproven(f"a global minimizer extends the configuration {elc}")
    if alpha == "auto":
        low, high = value_range(p)
        alpha = high - low + 1
    output = p + _elc_penalty(registry, elc).scale(alpha)
    config_text = ",".join(
        f"{registry.display_name(v)}={elc[v]}" for v in sorted(elc)
    )
    trace = f"elc({config_text}, alpha={format_fraction(alpha)})"
    return GadgetResult(output, (), Guarantee.CONDITIONAL_MIN, trace)


def elc_cancel(p: Polynomial, mono: Monomial) -> Optional[tuple]:
    """Pick an (elc, alpha) whose penalty cancels the named monomial's
    coefficient, when some proven configuration allows it.

    The penalty over exactly the monomial's variables contributes
    alpha * (-1)^z to the monomial, z being the number of zeros in the
    configuration, so cancellation needs sign(-1)^z = -sign(coefficient) and
    alpha = |coefficient|.  Among eligible configurations the
    lexicographically largest bit vector is chosen (deterministic, and it
    reproduces the usual single-positive-literal penalty).
    """
    vars = sorted(monomial_vars(mono))
    _require_boolean(p.registry, vars, "excludable configurations use {0,1} variables")
    coeff = p.terms.get(mono)
    if not coeff:
        return None
    eligible = (
        dict(zip(vars, values))
        for values in sorted(itertools.product((0, 1), repeat=len(vars)), reverse=True)
        if (-1) ** values.count(0) * coeff < 0
    )
    found = _excludable(p, eligible)
    return (found[0], abs(coeff)) if found else None


# ---------------------------------------------------------------------------
# Split reduction


def split(p: Polynomial, var: int):
    """Condition on one {0,1} variable: (p at var=0, p at var=1)."""
    _require_boolean(p.registry, [var])
    return p.substitute(var, 0), p.substitute(var, 1)


def most_connected_variable(p: Polynomial) -> Optional[int]:
    """The variable occurring in the most terms of degree >= 3, ties broken
    by the lowest id."""
    ranked = _shared_subsets(p, 1)
    return ranked[0][0][0] if ranked else None


@dataclass
class SplitSolveResult:
    """Outcome of solve_by_splitting."""

    minimum: Fraction
    argmin: dict
    subproblems: list = field(default_factory=list)  # quadratic polynomials solved


def _default_quad_solver(q: Polynomial):
    minimum, minimizers = enumerate_min(q)
    return minimum, minimizers[0]


def _aux_budget(p: Polynomial) -> int:
    """Auxiliaries the default routes would need to quadratize p."""
    needed = 0
    for mono, coeff in p.terms.items():
        k = monomial_degree(mono)
        if k >= 3:
            needed += GADGETS[_pick_gadget(p.registry, mono, coeff, DEFAULT_STRATEGY)].aux_count(k)
    return needed


def solve_by_splitting(
    p: Polynomial,
    quad_solver: Callable = None,
) -> SplitSolveResult:
    """Minimize p by conditioning on the most connected variables.

    Each split fixes the variable that `most_connected_variable` names and
    recurses on both restrictions until a branch is quadratic.  A branch
    whose remaining high-degree terms can be quadratized with no more
    auxiliaries than the branch has already fixed (and therefore freed) is
    quadratized in place instead of split further, by the pipeline's default
    routes over its terms in sorted order, so the variable count never grows
    past the original problem's.

    Every quadratic subproblem goes to `quad_solver` (default: the exhaustive
    oracle), which must return (minimum, one argmin).  The first strict
    minimum wins, a split's low branch first; variables eliminated along the
    way rejoin the argmin with their branch values, and variables absent
    everywhere default to 0.  The branches wait on a stack, the low one on
    top, so a call leaves no reference cycle behind.
    """
    quad_solver = quad_solver or _default_quad_solver
    _require_boolean(p.registry, p.variables(), "split reduction is defined over {0,1} variables")
    original_vars = set(p.variables())
    subproblems: list[Polynomial] = []
    best = None  # (minimum, assignment) of the first strict minimum so far
    branches = [(p, {})]  # (polynomial, the values fixed on its way down)
    while branches:
        q, fixed = branches.pop()
        if q.degree() > 2:
            if _aux_budget(q) > len(fixed):
                var = most_connected_variable(q)
                low, high = split(q, var)
                branches += [(high, {**fixed, var: 1}), (low, {**fixed, var: 0})]
                continue
            terms, _ = _route_terms(q.registry, sorted(q.terms.items()), DEFAULT_STRATEGY)
            q = Polynomial._wrap(q.registry, terms)
        subproblems.append(q)
        minimum, argmin = quad_solver(q)
        if best is None or minimum < best[0]:
            best = minimum, {**fixed, **{v: x for v, x in argmin.items() if v in original_vars}}

    minimum, best = best
    argmin = {var: best.get(var, 0) for var in sorted(original_vars)}
    return SplitSolveResult(minimum=minimum, argmin=argmin, subproblems=subproblems)
