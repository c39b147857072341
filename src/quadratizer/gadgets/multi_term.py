"""Reductions that share auxiliaries across multiple terms.

Rosenberg's substitution replaces one variable pair everywhere at once and
enforces consistency with a penalty; the FGBZ / pairwise-cover reductions rip
a common sub-monomial out of a same-sign term group with one auxiliary.  The
two splitting helpers (odd-degree monomial split, symmetric/anti-symmetric
decomposition) introduce no auxiliaries at all and exist so other methods can
be combined.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from ..errors import (
    CommonTooSmall,
    InvalidParameter,
    InvalidSplit,
    MixedSigns,
    NonPositivePenalty,
    PairAbsent,
)
from ..poly import (
    Domain,
    Monomial,
    Polynomial,
    VariableRegistry,
    _require_boolean,
    monomial_degree,
    monomial_divides,
    monomial_vars,
)
from .base import GadgetResult, Guarantee


@dataclass(frozen=True)
class TermGroup:
    """Same-sign terms sharing the sub-monomial `common`."""

    members: tuple  # ((Monomial, Fraction), ...)
    common: Monomial

    def __post_init__(self):
        if not self.members:
            raise InvalidParameter("a term group needs at least one member")
        for mono, _ in self.members:
            if not monomial_divides(self.common, mono):
                raise InvalidParameter(
                    "the common monomial must divide every group member"
                )


# ---------------------------------------------------------------------------
# Rosenberg substitution


def rosenberg_auto_penalty(p: Polynomial, i: int, j: int) -> Fraction:
    """Safe penalty weight: 1 + sum of |coefficient| over terms containing the
    pair.  Each cofactor ranges inside [-1, 1] on {0,1} inputs, so this
    over-approximates any value swing the substitution can cause."""
    total = Fraction(1)
    for mono, coeff in p.terms.items():
        vars = monomial_vars(mono)
        if i in vars and j in vars:
            total += abs(coeff)
    return total


def rosenberg_pair(
    p: Polynomial, i: int, j: int, penalty="auto"
) -> GadgetResult:
    """Substitute a fresh ba for the product bi*bj everywhere it occurs and
    add penalty * (bi*bj - 2*bi*ba - 2*bj*ba + 3*ba).

    The penalty polynomial is 0 exactly when ba = bi*bj and >= 1 otherwise,
    so any weight at least the automatic one preserves the full spectrum; the
    degree of every rewritten term drops by one.
    """
    registry = p.registry
    _require_boolean(registry, (i, j))
    if i == j:
        raise InvalidParameter("the pair must consist of two distinct variables")
    if not any(
        monomial_degree(m) >= 3 and i in monomial_vars(m) and j in monomial_vars(m)
        for m in p.terms
    ):
        raise PairAbsent(f"no term of degree >= 3 contains both {i} and {j}")
    if penalty == "auto":
        penalty = rosenberg_auto_penalty(p, i, j)
    penalty = Fraction(penalty)
    if penalty <= 0:
        raise NonPositivePenalty(f"penalty must be positive, got {penalty}")

    ba = registry.add_auxiliary(Domain.BOOLEAN, "rosenberg")
    terms = []
    for mono, coeff in p.terms.items():
        vars = monomial_vars(mono)
        if i in vars and j in vars:
            mono = tuple((v, e) for v, e in mono if v not in (i, j)) + ((ba, 1),)
        terms.append((mono, coeff))
    output = Polynomial(registry, terms + [
        (((i, 1), (j, 1)), penalty), (((i, 1), (ba, 1)), -2 * penalty),
        (((j, 1), (ba, 1)), -2 * penalty), (((ba, 1),), 3 * penalty),
    ])
    trace = (
        f"rosenberg({registry.display_name(i)},{registry.display_name(j)} -> "
        f"{registry.display_name(ba)}, penalty={penalty})"
    )
    return GadgetResult(output, (ba,), Guarantee.POINTWISE_MIN, trace)


def choose_rosenberg_pair(p: Polynomial) -> Optional[tuple]:
    """The pair occurring in the most distinct terms of degree >= 3, ties
    broken by the lowest (i, j).  None when the polynomial is quadratic."""
    counts: dict[tuple, int] = {}
    for mono in p.terms:
        if monomial_degree(mono) < 3:
            continue
        vars = monomial_vars(mono)
        for a in range(len(vars)):
            for b in range(a + 1, len(vars)):
                pair = (vars[a], vars[b])
                counts[pair] = counts.get(pair, 0) + 1
    if not counts:
        return None
    return min(counts, key=lambda pair: (-counts[pair], pair))


# ---------------------------------------------------------------------------
# FGBZ and pairwise covers


def fgbz_negative(group: TermGroup, registry: VariableRegistry) -> GadgetResult:
    """Rip the common component C out of negative terms with one auxiliary:

        sum_H a_H * prod(H)  ->  ba * sum_H a_H * (sum_C bi - |C| + prod(H\\C))

    The bracket reduces to prod(H\\C) when all of C is 1 and is never negative
    when some of C is 0, so minimizing over ba recovers every value exactly.
    (With singleton tails this is the shared-auxiliary form of the standard
    negative-monomial rewrite.)
    """
    common_vars = monomial_vars(group.common)
    if len(common_vars) < 2:
        raise CommonTooSmall("the common component must have at least 2 variables")
    _require_boolean(registry, common_vars)
    for _, coeff in group.members:
        if coeff >= 0:
            raise MixedSigns("fgbz_negative needs all-negative coefficients")

    ba = registry.add_auxiliary(Domain.BOOLEAN, "fgbz_negative")
    products = []
    for mono, coeff in group.members:
        tail = tuple(v for v in monomial_vars(mono) if v not in common_vars)
        _require_boolean(registry, tail)
        products += [((v, ba), coeff) for v in common_vars]
        products += [((ba,), -len(common_vars) * coeff), ((*tail, ba), coeff)]
    output = Polynomial.from_products(registry, products)
    names = "".join(registry.display_name(v) for v in common_vars)
    trace = f"fgbz_negative(C={names}, {len(group.members)} terms)"
    return GadgetResult(output, (ba,), Guarantee.POINTWISE_MIN, trace)


def fgbz_positive(group: TermGroup, registry: VariableRegistry) -> GadgetResult:
    """Rip the common component C out of positive terms with one auxiliary:

        sum_H a_H * prod(H)
            -> (sum_H a_H) * ba * prod(C) + sum_H a_H * (1 - ba) * prod(H\\C)

    A perfect transformation: minimizing over ba recovers the original group.
    The (1 - ba) * prod(H\\C) parts contain negative higher-degree pieces that
    the negative-term reductions can then consume.
    """
    common_vars = monomial_vars(group.common)
    _require_boolean(registry, common_vars)
    for _, coeff in group.members:
        if coeff <= 0:
            raise MixedSigns("fgbz_positive needs all-positive coefficients")

    ba = registry.add_auxiliary(Domain.BOOLEAN, "fgbz_positive")
    total_weight = sum((coeff for _, coeff in group.members), Fraction(0))
    products = [((*common_vars, ba), total_weight)]
    for mono, coeff in group.members:
        tail = tuple(v for v in monomial_vars(mono) if v not in common_vars)
        _require_boolean(registry, tail)
        products += [((*tail, ba), -coeff), (tail, coeff)]
    output = Polynomial.from_products(registry, products)
    names = "".join(registry.display_name(v) for v in common_vars)
    trace = f"fgbz_positive(C={names}, {len(group.members)} terms)"
    return GadgetResult(output, (ba,), Guarantee.POINTWISE_MIN, trace)


def discover_fgbz_groups(p: Polynomial, sign: str) -> list[TermGroup]:
    """Greedy group discovery: for each candidate common set, collect the
    same-sign terms of degree >= 3 it divides; largest groups first.

    Negative groups use |C| = 2 (required for degree reduction); positive
    groups use |C| = 1, whose first cover sum is already quadratic.
    """
    wanted_negative = sign == "negative"
    candidates: dict[Monomial, list] = {}
    for mono, coeff in p.terms.items():
        if monomial_degree(mono) < 3:
            continue
        if (coeff < 0) != wanted_negative:
            continue
        vars = monomial_vars(mono)
        if wanted_negative:
            subsets = [
                (vars[a], vars[b])
                for a in range(len(vars))
                for b in range(a + 1, len(vars))
            ]
            keys = [((u, 1), (w, 1)) for u, w in subsets]
        else:
            keys = [((v, 1),) for v in vars]
        for key in keys:
            candidates.setdefault(key, []).append((mono, coeff))
    groups = [
        TermGroup(tuple(sorted(members)), common)
        for common, members in candidates.items()
        if len(members) >= 2
    ]
    groups.sort(key=lambda g: (-len(g.members), g.common))
    return groups


# ---------------------------------------------------------------------------
# Structural splits (no auxiliaries)


def scm_split(
    coeff, mono: Monomial, registry: VariableRegistry, split_at: Optional[int] = None
):
    """Split one monomial into an even-degree head and a negative remainder:

        b1..bk = b1..bs - b1..bs * (1 - b_{s+1}..b_k),   s = split_at

    With the default s = k-1 and odd k this leaves an even-degree positive
    head for the even-k positive reductions and a single negated-literal tail
    for the negative reductions.  Both parts are returned expanded and re-sum
    to the input exactly.
    """
    vars = sorted(monomial_vars(mono))
    if any(e != 1 for _, e in mono):
        raise InvalidParameter("scm_split expects a multilinear monomial")
    _require_boolean(registry, vars)
    coeff = Fraction(coeff)
    k = len(vars)
    if k <= 1:
        return (
            Polynomial(registry, {mono: coeff}),
            Polynomial.zero(registry),
        )
    if split_at is None:
        split_at = k - 1
    if not 1 <= split_at < k:
        raise InvalidSplit(f"split_at must satisfy 1 <= split_at < {k}")
    head_vars, tail_vars = vars[:split_at], vars[split_at:]
    head = Polynomial.product(registry, head_vars, coeff)
    # -coeff * prod(head) * (1 - prod(tail)), expanded
    negative = Polynomial.product(registry, vars, coeff) - head
    return head, negative


def sym_antisym_split(p: Polynomial):
    """Decompose f into f_sym + f_anti with f_sym(b) = f_sym(1-b) and
    f_anti(b) = -f_anti(1-b):

        f_sym  = (f(b) + f(1-b)) / 2
        f_anti = (f(b) - f(1-b)) / 2
    """
    support = p.variables()
    _require_boolean(p.registry, support)
    flipped, _ = p.flip(support)
    half = Fraction(1, 2)
    return (p + flipped).scale(half), (p - flipped).scale(half)
