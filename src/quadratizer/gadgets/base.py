"""Shared gadget types: guarantees, results, descriptors, and the catalog."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..poly import Domain, Polynomial


class Guarantee:
    """What a transformation claims to preserve, weakest first.

    CONDITIONAL_MIN: minima preserved only under stated side conditions.
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


@dataclass(frozen=True)
class GadgetResult:
    """Output of one gadget application."""

    output: Polynomial
    aux: tuple
    guarantee: str
    trace: str


MUST_PASS = "must-pass"
EXPERIMENTAL = "experimental"


@dataclass(frozen=True)
class GadgetDescriptor:
    """Catalog entry: when a gadget applies, what it is said to cost, and its applier."""

    name: str
    sign: str  # "negative" | "positive" | "any"
    domain: Domain
    min_degree: int
    max_degree: Optional[int]  # None = unbounded
    aux_count: Callable[[int], int]
    guarantee: str
    status: str
    summary: str
    apply: Callable = field(compare=False, repr=False)

    def applies_to(self, coefficient_sign: int, degree: int, domain: Domain) -> bool:
        if self.sign == "negative" and coefficient_sign >= 0:
            return False
        if self.sign == "positive" and coefficient_sign <= 0:
            return False
        if domain is not self.domain:
            return False
        if degree < self.min_degree:
            return False
        if self.max_degree is not None and degree > self.max_degree:
            return False
        return True

    def degrees_up_to(self, cap: int) -> list[int]:
        top = cap if self.max_degree is None else min(cap, self.max_degree)
        return list(range(self.min_degree, top + 1))


GADGETS: dict[str, GadgetDescriptor] = {}
