"""Shared gadget types: results, descriptors, and the catalog.  Guarantee
lives in verify, next to the gate that proves each label."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..poly import Domain, Polynomial
from ..verify import Guarantee  # re-exported: the gadget modules import it from here


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
