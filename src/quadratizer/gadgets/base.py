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
    """Catalog entry: when a gadget applies, what it is said to cost, and its applier.

    It takes degrees min_degree..max_degree (None: unbounded), only odd ones if
    odd_only.  Routing (applies_to), degrees_up_to and a direct call
    (single_term._inputs) all read that rule from degree_error."""

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
    odd_only: bool = False

    def degree_error(self, degree: int) -> Optional[str]:
        """Why the row rejects a term of this degree, or None if it accepts it."""
        low, high = self.min_degree, self.max_degree
        if degree < low or (high is not None and degree > high):
            bound = f">= {low}" if high is None else f"in [{low}, {high}]"
            return f"gadget needs degree {bound}, got {degree}"
        if self.odd_only and degree % 2 == 0:
            return f"{self.name} is stated for odd k only"
        return None

    def applies_to(self, coefficient_sign: int, degree: int, domain: Domain) -> bool:
        if self.sign == "negative" and coefficient_sign >= 0:
            return False
        if self.sign == "positive" and coefficient_sign <= 0:
            return False
        return domain is self.domain and self.degree_error(degree) is None

    def degrees_up_to(self, cap: int) -> list[int]:
        return [k for k in range(self.min_degree, cap + 1) if self.degree_error(k) is None]


GADGETS: dict[str, GadgetDescriptor] = {}
