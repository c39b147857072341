"""Shared gadget types: results, descriptors, and the catalog.  Guarantee
lives in verify, next to the gate that proves each label."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..errors import DomainViolation, QuadratizerError, WrongDegree, WrongSign
from ..poly import Domain, Monomial, Polynomial, _as_fraction, format_fraction
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

    rejection is the one statement of which terms the row takes: routing
    (pipeline._pick_gadget) takes the first route row that does not reject a
    term, and a direct call (single_term._inputs) raises the rejection."""

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

    def sign_error(self, coeff) -> Optional[str]:
        """Why the row rejects a term with this coefficient, or None if it accepts it."""
        coeff = _as_fraction(coeff)
        if self.sign == "negative" and coeff >= 0:
            return f"expected a negative coefficient, got {format_fraction(coeff)}"
        if self.sign == "positive" and coeff <= 0:
            return f"expected a positive coefficient, got {format_fraction(coeff)}"
        return None if coeff else "coefficient must be nonzero"

    def rejection(self, coeff, mono: Monomial, registry) -> Optional[QuadratizerError]:
        """The error a direct call raises for the term coeff*mono, or None if
        the row accepts it.  Checked in order: each variable's exponent, then
        its domain; a repeated variable (a power too); the sign; the degree."""
        for var, exp in mono:
            if exp != 1:
                return DomainViolation("gadget monomials use each variable once")
            if registry.domain(var) is not self.domain:
                return DomainViolation(f"variable {var} is not in the {self.domain.tag!r} domain")
        if len({var for var, _ in mono}) != len(mono):
            return DomainViolation("gadget monomials use each variable once")
        error = self.sign_error(coeff)
        if error:
            return WrongSign(error)
        error = self.degree_error(len(mono))
        return WrongDegree(error) if error else None

    def degrees_up_to(self, cap: int) -> list[int]:
        return [k for k in range(self.min_degree, cap + 1) if self.degree_error(k) is None]


GADGETS: dict[str, GadgetDescriptor] = {}
