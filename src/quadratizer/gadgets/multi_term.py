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
from itertools import combinations
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
    _accumulate,
    _as_fraction,
    _factor,
    _require_boolean,
    _share_coefficients,
    format_fraction,
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


def _pair_terms(p: Polynomial, i: int, j: int) -> list:
    """The (monomial, coefficient) terms of p that hold both i and j, in term order."""
    return [(mono, coeff) for mono, coeff in p.terms.items()
            if i in (vars := monomial_vars(mono)) and j in vars]


def rosenberg_auto_penalty(p: Polynomial, i: int, j: int) -> Fraction:
    """Safe penalty weight: 1 + sum of |coefficient| over terms containing the
    pair.  Each cofactor ranges inside [-1, 1] on {0,1} inputs, so this
    over-approximates any value swing the substitution can cause."""
    return sum((abs(coeff) for _, coeff in _pair_terms(p, i, j)), Fraction(1))


def rosenberg_pair(
    p: Polynomial, i: int, j: int, penalty="auto"
) -> GadgetResult:
    """Substitute a fresh ba for the product bi*bj everywhere it occurs and
    add penalty * (bi*bj - 2*bi*ba - 2*bj*ba + 3*ba).

    The penalty polynomial is 0 exactly when ba = bi*bj and >= 1 otherwise,
    and each rewritten cofactor lies in [-1, 1], so a weight of at least the
    sum of |coefficient| over the rewritten terms preserves the full
    spectrum and a smaller one is refused.  Each rewritten term loses one degree.
    """
    registry = p.registry
    _require_boolean(registry, (i, j))
    if i == j:
        raise InvalidParameter("the pair must consist of two distinct variables")
    held = _pair_terms(p, i, j)
    if not any(monomial_degree(mono) >= 3 for mono, _ in held):
        raise PairAbsent(f"no term of degree >= 3 contains both {i} and {j}")
    auto = rosenberg_auto_penalty(Polynomial._wrap(registry, dict(held)), i, j)  # reads held only
    penalty = _as_fraction(auto if penalty == "auto" else penalty)
    if penalty <= 0:
        raise NonPositivePenalty(f"penalty must be positive, got {format_fraction(penalty)}")
    if penalty < auto - 1:
        raise InvalidParameter(f"penalty {format_fraction(penalty)} is below "
                               f"{format_fraction(auto - 1)}, the sum of |coefficient| over "
                               "the terms holding the pair")

    ba = registry.add_auxiliary(Domain.BOOLEAN, "rosenberg")
    # p's monomials are canonical, and so is each rewritten one, since ba is
    # the newest id and sorts last; the rewrite is one-to-one and only its
    # monomials hold ba, so none of them merge
    ba_factor = _factor(ba, 1)
    rewrite = {mono: tuple(f for f in mono if f[0] not in (i, j)) + (ba_factor,)
               for mono, _ in held}
    terms = {rewrite.get(mono, mono): coeff for mono, coeff in p.terms.items()}
    for mono, coeff in Polynomial.from_products(registry, [
        ((i, j), penalty), ((i, ba), -2 * penalty), ((j, ba), -2 * penalty), ((ba,), 3 * penalty),
    ]).terms.items():
        _accumulate(terms, mono, coeff)
    output = Polynomial._wrap(registry, _share_coefficients(terms))
    trace = (
        f"rosenberg({registry.display_name(i)},{registry.display_name(j)} -> "
        f"{registry.display_name(ba)}, penalty={format_fraction(penalty)})"
    )
    return GadgetResult(output, (ba,), Guarantee.POINTWISE_MIN, trace)


def _shared_subsets(p: Polynomial, size: int, sign: int = 0) -> list:
    """(key, monomials) for each `size`-variable subset `key` of the terms of
    degree >= 3, with the monomials of the terms holding it in term order;
    most monomials first, ties broken by the lowest key.  A nonzero `sign`
    keeps only the terms of that sign."""
    index: dict[tuple, list] = {}
    for mono, coeff in p.terms.items():
        if monomial_degree(mono) < 3 or (sign < 0 and coeff > 0) or (sign > 0 and coeff < 0):
            continue
        for key in combinations(monomial_vars(mono), size):
            index.setdefault(key, []).append(mono)
    return sorted(index.items(), key=lambda item: (-len(item[1]), item[0]))


def choose_rosenberg_pair(p: Polynomial) -> Optional[tuple]:
    """The pair occurring in the most distinct terms of degree >= 3, ties
    broken by the lowest (i, j).  None when the polynomial is quadratic."""
    ranked = _shared_subsets(p, 2)
    return ranked[0][0] if ranked else None


# ---------------------------------------------------------------------------
# FGBZ and pairwise covers


def _fgbz_step(group: TermGroup, registry: VariableRegistry, name: str, sign: int):
    """(C's variables, each member's tail outside C in member order, the
    auxiliary ba) for the FGBZ reduction `name`, whose members all have the
    sign of `sign`.  C, the signs and every tail are checked before ba is
    allocated, so a refused group leaves the registry unchanged."""
    common_vars = monomial_vars(group.common)
    _require_boolean(registry, common_vars)
    if any(_as_fraction(coeff) * sign <= 0 for _, coeff in group.members):
        raise MixedSigns(f"{name} needs all-{'negative' if sign < 0 else 'positive'} coefficients")
    tails = [tuple(v for v in monomial_vars(m) if v not in common_vars) for m, _ in group.members]
    _require_boolean(registry, [v for tail in tails for v in tail])
    return common_vars, tails, registry.add_auxiliary(Domain.BOOLEAN, name)


def _fgbz_result(name: str, group: TermGroup, common_vars, ba: int, products,
                 registry: VariableRegistry) -> GadgetResult:
    output = Polynomial.from_products(registry, products)
    names = "".join(registry.display_name(v) for v in common_vars)
    trace = f"{name}(C={names}, {len(group.members)} terms)"
    return GadgetResult(output, (ba,), Guarantee.POINTWISE_MIN, trace)


def fgbz_negative(group: TermGroup, registry: VariableRegistry) -> GadgetResult:
    """Rip the common component C out of negative terms with one auxiliary:

        sum_H a_H * prod(H)  ->  ba * sum_H a_H * (sum_C bi - |C| + prod(H\\C))

    The bracket reduces to prod(H\\C) when all of C is 1 and is never negative
    when some of C is 0, so minimizing over ba recovers every value exactly.
    (With singleton tails this is the shared-auxiliary form of the standard
    negative-monomial rewrite.)  |C| >= 2 is checked first; then, as in every
    FGBZ step, a refused group leaves the registry unchanged.
    """
    if len(monomial_vars(group.common)) < 2:
        raise CommonTooSmall("the common component must have at least 2 variables")
    common_vars, tails, ba = _fgbz_step(group, registry, "fgbz_negative", -1)
    products = []
    for (_, coeff), tail in zip(group.members, tails):
        products += [((v, ba), coeff) for v in common_vars]
        products += [((ba,), -len(common_vars) * coeff), ((*tail, ba), coeff)]
    return _fgbz_result("fgbz_negative", group, common_vars, ba, products, registry)


def fgbz_positive(group: TermGroup, registry: VariableRegistry) -> GadgetResult:
    """Rip the common component C out of positive terms with one auxiliary:

        sum_H a_H * prod(H)
            -> (sum_H a_H) * ba * prod(C) + sum_H a_H * (1 - ba) * prod(H\\C)

    A perfect transformation: minimizing over ba recovers the original group.
    The (1 - ba) * prod(H\\C) parts contain negative higher-degree pieces that
    the negative-term reductions can then consume.  As in fgbz_negative, a
    refused group allocates nothing.
    """
    common_vars, tails, ba = _fgbz_step(group, registry, "fgbz_positive", 1)
    total_weight = sum((coeff for _, coeff in group.members), Fraction(0))
    products = [((*common_vars, ba), total_weight)]
    for (_, coeff), tail in zip(group.members, tails):
        products += [((*tail, ba), -coeff), (tail, coeff)]
    return _fgbz_result("fgbz_positive", group, common_vars, ba, products, registry)


def discover_fgbz_groups(p: Polynomial, sign: str) -> list[TermGroup]:
    """Greedy group discovery: for each candidate common set, collect the
    same-sign terms of degree >= 3 it divides; largest groups first.

    Negative groups use |C| = 2 (required for degree reduction); positive
    groups use |C| = 1, whose first cover sum is already quadratic.  Any
    other `sign` raises InvalidParameter.
    """
    if sign not in ("negative", "positive"):
        raise InvalidParameter(f"sign must be 'negative' or 'positive', got {sign!r}")
    size, wanted = (2, -1) if sign == "negative" else (1, 1)
    return [
        TermGroup(tuple((m, p.terms[m]) for m in sorted(monos)), tuple((v, 1) for v in key))
        for key, monos in _shared_subsets(p, size, wanted)
        if len(monos) >= 2
    ]


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
    coeff = _as_fraction(coeff)
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
