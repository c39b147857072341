"""Zero-auxiliary rewrites: deduction reduction, excludable local
configurations, and split reduction.

All three trade enumeration work for auxiliary variables.  Deductions and
excludable configurations are facts about the global minima of a reference
polynomial; by default they must be proved here by exhaustive search
(OracleProven) before they may justify a rewrite, because soundness otherwise
rests entirely on the caller's prior knowledge of the problem.  Split
reduction has no routing of its own: a branch it quadratizes in place goes
through the pipeline's routing loop with the default routes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from .errors import DeductionUnproven, DomainViolation, ElcUnproven
from .gadgets.base import GADGETS, GadgetResult, Guarantee
from .pipeline import DEFAULT_STRATEGY, _route_terms
from .poly import (
    Domain,
    Monomial,
    Polynomial,
    _require_boolean,
    monomial_degree,
    monomial_vars,
)
from .verify import DEFAULT_STATE_CAP, enumerate_min, value_range

ORACLE_PROVEN = "oracle-proven"
ASSERTED = "asserted"


@dataclass(frozen=True)
class Deduction:
    """A monomial that equals zero at every global minimum of a reference
    polynomial.  evidence records whether enumeration proved it."""

    monomial: Monomial
    evidence: str = ASSERTED

    @property
    def proven(self) -> bool:
        return self.evidence == ORACLE_PROVEN


# A partial assignment is a plain {var: value} dict over a variable subset.
PartialAssignment = dict


def find_zero_deductions(
    p: Polynomial, max_arity: int, max_states: int = DEFAULT_STATE_CAP
) -> list[Deduction]:
    """Every monomial of arity <= max_arity over p's {0,1} variables that
    vanishes at all global minima of p, in deterministic order."""
    support = p.variables()
    for var in support:
        if p.registry.domain(var) is not Domain.BOOLEAN:
            raise DomainViolation("deductions are defined over {0,1} variables")
    _, minimizers = enumerate_min(p, max_states)
    found = []
    for arity in range(1, max_arity + 1):
        for subset in itertools.combinations(support, arity):
            if all(any(m[v] == 0 for v in subset) for m in minimizers):
                mono = tuple((v, 1) for v in subset)
                found.append(Deduction(mono, ORACLE_PROVEN))
    return found


def _cofactor(p: Polynomial, mono: Monomial):
    """Write p = mono * cofactor + rest (multilinear split)."""
    vars = set(monomial_vars(mono))
    cofactor = {}
    rest = {}
    for term, coeff in p.terms.items():
        term_vars = set(monomial_vars(term))
        if vars <= term_vars:
            reduced = tuple((v, e) for v, e in term if v not in vars)
            cofactor[reduced] = cofactor.get(reduced, Fraction(0)) + coeff
        else:
            rest[term] = coeff
    return Polynomial(p.registry, cofactor), Polynomial(p.registry, rest)


def apply_deduc_reduc(
    p: Polynomial,
    deduction: Deduction,
    lam="auto",
    allow_asserted: bool = False,
    max_states: int = DEFAULT_STATE_CAP,
) -> GadgetResult:
    """Rewrite p = m*C + R as R + lam*m for a proven deduction m = 0.

    With lam at least the maximum of the cofactor C, states violating the
    deduction are pushed at or above their original value while all states
    honoring it keep their value, so the global minima are preserved exactly
    (the rest of the spectrum is not).  The automatic lam enumerates C over
    its own support and uses the exact maximum.
    """
    if not deduction.proven and not allow_asserted:
        raise DeductionUnproven(
            "asserted deduction used without allow_asserted=True"
        )
    cofactor, rest = _cofactor(p, deduction.monomial)
    if lam == "auto":
        lam = value_range(cofactor, max_states)[1] if cofactor else Fraction(0)
    lam = Fraction(lam)
    output = rest + Polynomial(p.registry, {deduction.monomial: lam})
    mono_text = "".join(p.registry.display_name(v) for v in monomial_vars(deduction.monomial))
    trace = f"deduc_reduc({mono_text}=0, lam={lam})"
    return GadgetResult(output, (), Guarantee.CONDITIONAL_MIN, trace)


def find_elcs(
    p: Polynomial, vars, max_states: int = DEFAULT_STATE_CAP
) -> list[PartialAssignment]:
    """All partial assignments over nonempty subsets of `vars` that no global
    minimizer of p extends (excludable local configurations)."""
    vars = sorted(vars)
    for var in vars:
        if p.registry.domain(var) is not Domain.BOOLEAN:
            raise DomainViolation("excludable configurations use {0,1} variables")
    _, minimizers = enumerate_min(p, max_states)
    found = []
    for arity in range(1, len(vars) + 1):
        for subset in itertools.combinations(vars, arity):
            for values in itertools.product((0, 1), repeat=arity):
                config = dict(zip(subset, values))
                # a variable outside p's support is free, so a minimizer
                # always extends to match it
                if not any(
                    all(m.get(v, x) == x for v, x in config.items())
                    for m in minimizers
                ):
                    found.append(config)
    return found


def _elc_penalty(registry, config: PartialAssignment) -> Polynomial:
    penalty = Polynomial.constant(registry, 1)
    for var in sorted(config):
        b = Polynomial.variable(registry, var)
        penalty = penalty * (b if config[var] == 1 else (1 - b))
    return penalty


def apply_elc(
    p: Polynomial,
    elc: PartialAssignment,
    alpha="auto",
    allow_unproven: bool = False,
    max_states: int = DEFAULT_STATE_CAP,
) -> GadgetResult:
    """Add alpha * [configuration matched] to p.

    The indicator is the product of b or (1-b) literals for the excluded
    configuration; since no global minimizer matches it, any positive alpha
    preserves the minima.  The automatic alpha is (max - min of p) + 1, which
    also dominates any term the penalty is meant to cancel.
    """
    registry = p.registry
    for var, value in elc.items():
        if registry.domain(var) is not Domain.BOOLEAN:
            raise DomainViolation("excludable configurations use {0,1} variables")
        if value not in (0, 1):
            raise DomainViolation(f"value {value} is not in {{0,1}}")
    if not allow_unproven:
        _, minimizers = enumerate_min(p, max_states)
        for minimizer in minimizers:
            if all(minimizer.get(v, x) == x for v, x in elc.items()):
                raise ElcUnproven(
                    f"a global minimizer extends the configuration {elc}"
                )
    if alpha == "auto":
        low, high = value_range(p, max_states)
        alpha = high - low + 1
    alpha = Fraction(alpha)
    output = p + _elc_penalty(registry, elc).scale(alpha)
    config_text = ",".join(
        f"{registry.display_name(v)}={elc[v]}" for v in sorted(elc)
    )
    trace = f"elc({config_text}, alpha={alpha})"
    return GadgetResult(output, (), Guarantee.CONDITIONAL_MIN, trace)


def elc_cancel(
    p: Polynomial, mono: Monomial, max_states: int = DEFAULT_STATE_CAP
) -> Optional[tuple]:
    """Pick an (elc, alpha) whose penalty cancels the named monomial's
    coefficient, when some proven configuration allows it.

    The penalty over exactly the monomial's variables contributes
    alpha * (-1)^z to the monomial, z being the number of zeros in the
    configuration, so cancellation needs sign(-1)^z = -sign(coefficient) and
    alpha = |coefficient|.  Among eligible configurations the
    lexicographically largest bit vector is chosen (deterministic, and it
    reproduces the usual single-positive-literal penalty).
    """
    coeff = p.terms.get(mono)
    if not coeff:
        return None
    vars = sorted(monomial_vars(mono))
    _, minimizers = enumerate_min(p, max_states)
    want_parity = 1 if coeff < 0 else -1
    for values in sorted(itertools.product((0, 1), repeat=len(vars)), reverse=True):
        if (-1) ** values.count(0) != want_parity:
            continue
        config = dict(zip(vars, values))
        if any(
            all(m.get(v) == x for v, x in config.items()) for m in minimizers
        ):
            continue
        return config, abs(coeff)
    return None


# ---------------------------------------------------------------------------
# Split reduction


def split(p: Polynomial, var: int):
    """Condition on one {0,1} variable: (p at var=0, p at var=1)."""
    _require_boolean(p.registry, [var])
    return p.substitute(var, 0), p.substitute(var, 1)


def most_connected_variable(p: Polynomial) -> Optional[int]:
    """The variable occurring in the most terms of degree >= 3, ties broken
    by the lowest id."""
    counts: dict[int, int] = {}
    for mono in p.terms:
        if monomial_degree(mono) < 3:
            continue
        for var, _ in mono:
            counts[var] = counts.get(var, 0) + 1
    if not counts:
        return None
    return min(counts, key=lambda v: (-counts[v], v))


@dataclass
class SplitSolveResult:
    """Outcome of solve_by_splitting."""

    minimum: Fraction
    argmin: dict
    subproblems: list = field(default_factory=list)  # quadratic polynomials solved

    def __iter__(self):  # unpack like (min, argmin)
        return iter((self.minimum, self.argmin))


def _default_quad_solver(q: Polynomial):
    minimum, minimizers = enumerate_min(q)
    return minimum, minimizers[0]


def _aux_budget(p: Polynomial) -> int:
    """Auxiliaries the default single-term routes would need to quadratize p."""
    negative, positive = DEFAULT_STRATEGY.negative_route[0], DEFAULT_STRATEGY.positive_route[0]
    needed = 0
    for mono, coeff in p.terms.items():
        k = monomial_degree(mono)
        if k >= 3:
            needed += GADGETS[negative if coeff < 0 else positive].aux_count(k)
    return needed


def solve_by_splitting(
    p: Polynomial,
    quad_solver: Callable = None,
    pick: Callable = None,
) -> SplitSolveResult:
    """Minimize p by conditioning on the most connected variables.

    Each split fixes one variable and recurses on both restrictions until a
    branch is quadratic.  A branch whose remaining high-degree terms can be
    quadratized with no more auxiliaries than the branch has already fixed
    (and therefore freed) is quadratized in place instead of split further,
    by the pipeline's default routes over its terms in sorted order, so the
    variable count never grows past the original problem's.

    Every quadratic subproblem goes to `quad_solver` (default: the exhaustive
    oracle), which must return (minimum, one argmin).  The best branch wins;
    variables eliminated along the way rejoin the argmin with their branch
    values, and variables absent everywhere default to 0.
    """
    quad_solver = quad_solver or _default_quad_solver
    pick = pick or most_connected_variable
    for var in p.variables():
        if p.registry.domain(var) is not Domain.BOOLEAN:
            raise DomainViolation("split reduction is defined over {0,1} variables")
    original_vars = set(p.variables())
    subproblems: list[Polynomial] = []
    best: list = [None, None]  # (minimum, argmin)

    def dispatch(q: Polynomial, fixed: dict):
        subproblems.append(q)
        minimum, argmin = quad_solver(q)
        assignment = dict(fixed)
        for var, value in argmin.items():
            if var in original_vars:
                assignment[var] = value
        if best[0] is None or minimum < best[0]:
            best[0], best[1] = minimum, assignment

    def recurse(q: Polynomial, fixed: dict):
        if q.degree() <= 2:
            dispatch(q, fixed)
            return
        if _aux_budget(q) <= len(fixed):
            terms, _ = _route_terms(
                q.registry, sorted(q.terms.items()), DEFAULT_STRATEGY, {}, Guarantee.POINTWISE_MIN
            )
            dispatch(Polynomial._wrap(q.registry, terms), fixed)
            return
        var = pick(q)
        low, high = split(q, var)
        recurse(low, {**fixed, var: 0})
        recurse(high, {**fixed, var: 1})

    recurse(p, {})
    argmin = {var: best[1].get(var, 0) for var in sorted(original_vars)}
    return SplitSolveResult(minimum=best[0], argmin=argmin, subproblems=subproblems)
