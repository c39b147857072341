"""Exception hierarchy for the quadratizer library.

Every error raised deliberately by the library derives from QuadratizerError,
so callers (and the CLI) can distinguish library failures from bugs.
"""

from __future__ import annotations


class QuadratizerError(Exception):
    """Base class for all library errors."""


# ---------------------------------------------------------------------------
# Polynomial / registry errors


class RegistryMismatch(QuadratizerError):
    """Two polynomials built over different registries were combined."""


class UnknownVariable(QuadratizerError):
    """A variable id does not resolve in the registry."""


class MissingVariable(QuadratizerError):
    """An assignment lacks a value for a variable the polynomial uses."""


class DomainViolation(QuadratizerError):
    """A value or variable lies outside the required domain."""


class NotQuadratic(QuadratizerError):
    """An operation requiring degree <= 2 received a higher-degree polynomial."""


# ---------------------------------------------------------------------------
# Gadget applicability errors


class GadgetError(QuadratizerError):
    """Base class for gadget application failures."""


class WrongSign(GadgetError):
    """Coefficient sign not admissible for this gadget."""


class WrongDegree(GadgetError):
    """Monomial degree outside the gadget's range."""


class InvalidParameter(GadgetError):
    """A gadget parameter is out of its allowed range."""


class UnknownGadget(GadgetError):
    """No gadget registered under the requested name."""


class PairAbsent(GadgetError):
    """The requested variable pair occurs in no term of degree >= 3."""


class NonPositivePenalty(GadgetError):
    """A penalty weight must be strictly positive."""


class CommonTooSmall(GadgetError):
    """The shared component C must contain at least two variables."""


class MixedSigns(GadgetError):
    """A term group mixes positive and negative coefficients."""


class InvalidSplit(GadgetError):
    """split_at outside 1 <= split_at < degree."""


class VariantRangeViolation(GadgetError):
    """The exact-c spec violates the chosen variant's range for c."""


# ---------------------------------------------------------------------------
# Rewrite (zero-auxiliary) errors


class DeductionUnproven(QuadratizerError):
    """A deduction fails at a global minimizer, so it cannot be applied."""


class ElcUnproven(QuadratizerError):
    """A global minimizer extends the configuration, so it cannot be excluded."""


# ---------------------------------------------------------------------------
# Verification / pipeline errors


class EnumerationCapExceeded(QuadratizerError):
    """The assignment space is larger than the configured state cap."""


class VariableMismatch(QuadratizerError):
    """Transformed polynomial uses variables outside original + auxiliaries."""


class VerificationFailed(QuadratizerError):
    """An oracle check failed; carries the failing report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class NoApplicableGadget(QuadratizerError):
    """No routed gadget accepts a term (sign/degree/domain)."""


# ---------------------------------------------------------------------------
# Parsing / serialization errors


class ParseError(QuadratizerError):
    """Text input violates the polynomial grammar."""

    def __init__(self, message, line=1, column=1):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class SchemaError(QuadratizerError):
    """JSON input violates the polynomial/QUBO schema."""
