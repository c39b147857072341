"""Exact sparse polynomials over typed binary/spin/ternary variables.

A polynomial is a dictionary mapping monomials to rational coefficients
(Fraction).  A monomial is a sorted tuple of (variable id, exponent) pairs;
the empty tuple is the constant monomial.  Variables carry their domain in a
shared VariableRegistry, and monomials are kept in a canonical form that makes
equal functions structurally equal within a domain:

  * {0,1} variables:    b^e = b            (exponent always 1)
  * {-1,+1} variables:  z^2 = 1            (exponent reduced mod 2)
  * {-1,0,1} variables: t^3 = t            (exponent reduced to 1 or 2)

Coefficients are exact rationals, never floats, so identity tests and the
enumeration oracles are bit-exact.  Polynomials are immutable after
construction; all operations return new values.  The registry is the single
mutable object, and it only ever grows (auxiliary allocation).

Because nothing is ever mutated in place, equal pieces are stored once:
every canonical monomial takes its (variable id, exponent) factors from one
module-wide table, so all polynomials share one tuple per factor, and a
constructed polynomial holds one Fraction object per distinct coefficient
value.  Sharing is invisible to `terms`, `items()` and `==`.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import comb, prod
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from .errors import (
    DomainViolation,
    InvalidParameter,
    MissingVariable,
    NotQuadratic,
    QuadratizerError,
    RegistryMismatch,
    UnknownVariable,
)

# A monomial: sorted ((var_id, exponent), ...).  () is the constant monomial.
Monomial = tuple  # tuple[tuple[int, int], ...]

ONE: Monomial = ()

# The one shared tuple for each (var_id, exponent) factor.  Variable ids are
# dense per registry and canonical exponents are 1 or 2, so this holds at most
# twice as many entries as the largest registry has variables.
_FACTORS: dict[tuple, tuple] = {}

Rational = Union[int, Fraction]

# An assignment maps variable ids to small integer values.
Assignment = Mapping[int, int]


class Domain:
    """Variable domain: the admissible values of a variable."""

    BOOLEAN: "Domain"
    SPIN: "Domain"
    TERNARY: "Domain"

    __slots__ = ("tag", "values")

    def __init__(self, tag: str, values: tuple):
        self.tag = tag
        self.values = values

    def __repr__(self):
        return f"Domain({self.tag})"

    def contains(self, value: int) -> bool:
        """Whether `value` is an int in the domain: 1.0 equals 1 but is no int."""
        return isinstance(value, int) and value in self.values

    def canonical_exponent(self, exponent: int) -> int:
        """Reduce an exponent using the domain's multiplicative identity.

        Returns 0 when the power collapses to the constant 1 (even spin
        powers); the variable is then dropped from the monomial.
        """
        if exponent < 0:
            raise ValueError("negative exponents are not representable")
        if exponent == 0:
            return 0
        if self is Domain.BOOLEAN:
            return 1
        if self is Domain.SPIN:
            return exponent % 2
        # Ternary: t^odd = t, t^even = t^2 for exponent >= 1.
        return 1 if exponent % 2 == 1 else 2

    @staticmethod
    def from_tag(tag: str) -> "Domain":
        try:
            return _DOMAINS[tag]
        except (KeyError, TypeError):
            raise DomainViolation(f"unknown domain tag {tag!r}") from None


Domain.BOOLEAN = Domain("b", (0, 1))
Domain.SPIN = Domain("z", (-1, 1))
Domain.TERNARY = Domain("t", (-1, 0, 1))

_DOMAINS = {"b": Domain.BOOLEAN, "z": Domain.SPIN, "t": Domain.TERNARY}


@dataclass(slots=True)
class VarEntry:
    """Registry record for one variable."""

    domain: Domain
    label: Optional[str] = None
    gadget: Optional[str] = None  # auxiliary iff not None
    partner: Optional[int] = None  # boolean/spin twin used by domain conversion

    @property
    def kind(self) -> str:
        return "orig" if self.gadget is None else "aux"


class VariableRegistry:
    """Identity, domain and origin of every variable.

    Variable ids are dense indices 0..N-1 in allocation order.  Auxiliaries
    are tagged with the name of the gadget that created them and are never
    reused.  Labels, when present, are unique.
    """

    def __init__(self):
        self._entries: list[VarEntry] = []
        self._labels: dict[str, int] = {}
        self._aux_serial = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[int]:
        return iter(range(len(self._entries)))

    def _add(self, entry: VarEntry) -> int:
        if entry.label is not None:
            if entry.label in self._labels:
                raise ValueError(f"duplicate variable label {entry.label!r}")
            self._labels[entry.label] = len(self._entries)
        self._entries.append(entry)
        return len(self._entries) - 1

    def add_variable(self, domain: Domain, label: Optional[str] = None) -> int:
        return self._add(VarEntry(domain, label))

    def add_auxiliary(
        self, domain: Domain, gadget: str, label: Optional[str] = None
    ) -> int:
        if label is None:
            self._aux_serial += 1
            label = f"a{self._aux_serial}"
            while label in self._labels:
                self._aux_serial += 1
                label = f"a{self._aux_serial}"
        return self._add(VarEntry(domain, label, gadget=gadget))

    def entry(self, var: int) -> VarEntry:
        try:
            if var >= 0:  # a negative index would alias an entry from the end
                return self._entries[var]
        except IndexError:
            pass
        raise UnknownVariable(f"variable {var} not in registry")

    def domain(self, var: int) -> Domain:
        return self.entry(var).domain

    def label(self, var: int) -> Optional[str]:
        return self.entry(var).label

    def is_auxiliary(self, var: int) -> bool:
        return self.entry(var).gadget is not None

    def gadget_of(self, var: int) -> Optional[str]:
        return self.entry(var).gadget

    def by_label(self, label: str) -> Optional[int]:
        return self._labels.get(label)

    def auxiliaries(self) -> list[int]:
        return [v for v in self if self.is_auxiliary(v)]

    def display_name(self, var: int) -> str:
        """Grammar-conformant token for a variable (used by the text format)."""
        entry = self.entry(var)
        label = entry.label
        if label and len(label) > 1 and label[0] == entry.domain.tag and label[1:].isdecimal():
            return label
        return f"{entry.domain.tag}{var + 1}"

    def twin(self, var: int, domain: Domain) -> int:
        """Return (allocating if needed) the b/z partner of `var`."""
        entry = self.entry(var)
        if entry.partner is not None and self.domain(entry.partner) is domain:
            return entry.partner
        label = None
        old = entry.label
        if old and len(old) > 1 and old[1:].isdecimal():
            candidate = domain.tag + old[1:]
            if candidate not in self._labels:
                label = candidate
        if entry.gadget is not None:
            twin = self.add_auxiliary(domain, entry.gadget, label)
        else:
            twin = self._add(VarEntry(domain, label))
        self._entries[var].partner = twin
        self._entries[twin].partner = var
        return twin


def _as_fraction(value: Rational) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"coefficients must be exact rationals, got {type(value).__name__}")


# The most digits int() reads or writes (sys.get_int_max_str_digits); 0 means no limit.
_int_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


def format_fraction(value: Rational) -> str:
    """str(Fraction(value)), or a QuadratizerError when its numerator or
    denominator has more digits than int() writes.  Every output, trace and
    message that prints a number goes through here."""
    if not isinstance(value, Fraction):
        value = Fraction(value)
    limit = _int_max_str_digits()
    # a number below 2**(3 * limit) has at most limit digits: skip the power
    largest = max(abs(value.numerator), value.denominator)
    if limit and largest.bit_length() > 3 * limit and largest >= 10**limit:
        raise QuadratizerError(f"a number has more than {limit} digits, the most int() writes")
    return str(value)


def _accumulate(terms: dict, mono: Monomial, coeff: Fraction) -> None:
    """Add `coeff` to `terms[mono]` in place; a monomial whose sum is zero
    drops out.  The constructor, `+`, `*` and `substitute` sum through here."""
    acc = terms.get(mono)
    acc = coeff if acc is None else acc + coeff
    if acc:
        terms[mono] = acc
    else:
        terms.pop(mono, None)


def _share_coefficients(terms: dict) -> dict:
    """Make equal coefficients one Fraction object, in place; returns `terms`."""
    shared: dict[tuple, Fraction] = {}
    for mono, coeff in terms.items():
        terms[mono] = shared.setdefault((coeff.numerator, coeff.denominator), coeff)
    return terms


def _require_boolean(registry: VariableRegistry, vars, message=None):
    for var in vars:
        if registry.domain(var) is not Domain.BOOLEAN:
            raise DomainViolation(message or f"variable {var} is not a {{0,1}} variable")


def _distinct(vars) -> list:
    """`vars` sorted, with a repeated variable rejected."""
    vars = sorted(vars)
    if len(set(vars)) != len(vars):
        raise ValueError("product() expects distinct variables")
    return vars


def _factor(var: int, exp: int) -> tuple:
    """The one shared tuple for the factor (var, exp)."""
    factor = (var, exp)
    return _FACTORS.setdefault(factor, factor)


def monomial_degree(mono: Monomial) -> int:
    return sum(e for _, e in mono)


def monomial_vars(mono: Monomial) -> tuple:
    return tuple(v for v, _ in mono)


def monomial_divides(small: Monomial, big: Monomial) -> bool:
    """True when every factor of `small` occurs (with >= exponent) in `big`."""
    big_map = dict(big)
    return all(big_map.get(v, 0) >= e for v, e in small)


class Polynomial:
    """Immutable sparse polynomial over a shared VariableRegistry."""

    __slots__ = ("registry", "terms")

    def __init__(self, registry: VariableRegistry, terms=None):
        self.registry = registry
        canonical: dict[Monomial, Fraction] = {}
        for mono, coeff in (terms.items() if isinstance(terms, dict) else terms or ()):
            coeff = _as_fraction(coeff)
            _accumulate(canonical, self._canonical_monomial(mono), coeff)
        self.terms = _share_coefficients(canonical)

    # -- construction -------------------------------------------------------

    @classmethod
    def zero(cls, registry: VariableRegistry) -> "Polynomial":
        return cls(registry)

    @classmethod
    def constant(cls, registry: VariableRegistry, value: Rational) -> "Polynomial":
        return cls.from_products(registry, [((), value)])

    @classmethod
    def variable(cls, registry: VariableRegistry, var: int) -> "Polynomial":
        return cls.from_products(registry, [((var,), 1)])

    @classmethod
    def product(
        cls, registry: VariableRegistry, vars: Sequence[int], coeff: Rational = 1
    ) -> "Polynomial":
        """coeff * product of distinct variables (each to the first power)."""
        return cls.from_products(registry, [(_distinct(vars), coeff)])

    @classmethod
    def from_products(cls, registry: VariableRegistry, products) -> "Polynomial":
        """Sum of coeff * v1*v2*... over (variables, coeff) pairs.

        The pairs are added in the order given, exactly as the constructor adds
        terms: a repeated variable is a power, equal monomials merge in place,
        and a monomial whose sum is zero drops out.  Every constant, variable,
        product and affine image (`flip`, domain conversion) is built here.
        """
        return cls(registry, ((tuple((v, 1) for v in vars), c) for vars, c in products))

    @classmethod
    def symmetric(cls, registry: VariableRegistry, vars: Sequence[int], values) -> "Polynomial":
        """The multilinear polynomial over the distinct `vars` that is values[w] where w of
        them are 1 (binomial inversion): sum_d alpha_d * e_d(vars), alpha_d = sum_j (-1)^(d-j)
        * C(d, j) * values[j], d going up, in combinations order, any alpha_d of 0 left out."""
        vars = _distinct(vars)
        if len(values) != len(vars) + 1:  # one value per weight 0..n
            raise InvalidParameter(f"{len(vars)} variables take {len(vars) + 1} values, "
                                   f"got {len(values)}")
        values = [_as_fraction(v) for v in values]
        alphas = [sum(values[j] * (-1) ** (d - j) * comb(d, j) for j in range(d + 1))
                  for d in range(len(vars) + 1)]
        return cls.from_products(registry, (
            (subset, alpha) for d, alpha in enumerate(alphas) if alpha
            for subset in itertools.combinations(vars, d)
        ))

    @classmethod
    def _wrap(cls, registry: VariableRegistry, terms: dict) -> "Polynomial":
        """A polynomial that takes ownership of `terms` as they are: canonical
        monomials mapped to nonzero coefficients."""
        result = Polynomial.__new__(cls)
        result.registry = registry
        result.terms = terms
        return result

    def _canonical_monomial(self, mono) -> Monomial:
        merged: dict[int, int] = {}
        for var, exp in mono:
            merged[var] = merged.get(var, 0) + exp
        factors = []
        for var in sorted(merged):
            exp = self.registry.domain(var).canonical_exponent(merged[var])
            if exp:
                factors.append(_factor(var, exp))
        return tuple(factors)

    # -- inspection ----------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def items(self) -> list:
        """Terms in the canonical deterministic order (by degree, then vars)."""
        return sorted(self.terms.items(), key=lambda kv: (monomial_degree(kv[0]), kv[0]))

    def coefficient(self, mono) -> Fraction:
        return self.terms.get(self._canonical_monomial(mono), Fraction(0))

    def constant_term(self) -> Fraction:
        return self.terms.get(ONE, Fraction(0))

    def variables(self) -> list[int]:
        """Sorted ids of the variables that actually appear."""
        seen = set()
        for mono in self.terms:
            for var, _ in mono:
                seen.add(var)
        return sorted(seen)

    def degree(self) -> int:
        if not self.terms:
            return 0
        return max(monomial_degree(m) for m in self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.terms != other.terms:
            return False
        if self.registry is other.registry:
            return True
        return all(
            self.registry.domain(v) is other.registry.domain(v) for v in self.variables()
        )

    __hash__ = None  # mutable-dict-backed; identity hashing would mislead

    def __repr__(self):
        from .textio import format_polynomial

        return f"Polynomial({format_polynomial(self)!r})"

    def __str__(self):
        from .textio import format_polynomial

        return format_polynomial(self)

    # -- ring operations ------------------------------------------------------

    def _check_registry(self, other: "Polynomial"):
        if self.registry is not other.registry:
            raise RegistryMismatch("polynomials belong to different registries")

    def __add__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.registry, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_registry(other)
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            _accumulate(terms, mono, coeff)
        return Polynomial._wrap(self.registry, terms)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._wrap(self.registry, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        if not isinstance(other, (int, Fraction, Polynomial)):
            return NotImplemented
        return self + (-other)  # `+` makes a number a constant

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def scale(self, factor: Rational) -> "Polynomial":
        factor = _as_fraction(factor)
        if not factor:
            return Polynomial.zero(self.registry)
        return Polynomial._wrap(self.registry, {m: c * factor for m, c in self.terms.items()})

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_registry(other)
        out: dict[Monomial, Fraction] = {}
        for mono_a, coeff_a in self.terms.items():
            for mono_b, coeff_b in other.terms.items():
                _accumulate(out, self._canonical_monomial(mono_a + mono_b), coeff_a * coeff_b)
        return Polynomial._wrap(self.registry, out)

    def __rmul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    # -- evaluation -----------------------------------------------------------

    def evaluate(self, assignment: Assignment) -> Fraction:
        """Exact value at a (total) assignment.

        Each used variable is checked once, in id order, before the sum; the
        first faulty one raises MissingVariable if the assignment lacks it
        and DomainViolation if its value lies outside its domain.  Extra
        assignments are ignored.
        """
        for var in self.variables():
            if var not in assignment:
                raise MissingVariable(f"assignment lacks variable {var}")
            if not self.registry.domain(var).contains(value := assignment[var]):
                raise DomainViolation(f"value {value} outside domain of variable {var}")
        return sum((coeff * prod(assignment[var] ** exp for var, exp in mono)
                    for mono, coeff in self.terms.items()), Fraction(0))

    # -- substitution and flips ------------------------------------------------

    def substitute(self, var: int, replacement) -> "Polynomial":
        """Replace every occurrence of `var` (any power) by `replacement`.

        The replacement may be a Polynomial over the same registry or an exact
        rational constant.  The substitution is formal: the replacement's
        range is not required to lie inside the variable's domain.  Each term
        holding `var` is expanded once against the cached power of the
        replacement into one dict; the other terms are then added as they are.
        """
        self.registry.entry(var)
        if not isinstance(replacement, Polynomial):
            replacement = Polynomial.constant(self.registry, replacement)
        self._check_registry(replacement)
        terms: dict[Monomial, Fraction] = {}
        untouched = []
        powers = {1: replacement}
        for mono, coeff in self.terms.items():
            exp = dict(mono).get(var, 0)
            if not exp:
                untouched.append((mono, coeff))
                continue
            if exp not in powers:
                powers[exp] = replacement * replacement
            rest = [(v, e) for v, e in mono if v != var]
            product: dict[Monomial, Fraction] = {}  # summed alone, as `+` would
            for mono_r, coeff_r in powers[exp].terms.items():
                mono_r = self._canonical_monomial(rest + list(mono_r))
                _accumulate(product, mono_r, coeff * coeff_r)
            for mono_p, coeff_p in product.items():
                _accumulate(terms, mono_p, coeff_p)
        for mono, coeff in untouched:
            _accumulate(terms, mono, coeff)
        return Polynomial._wrap(self.registry, terms)

    def flip(self, vars: Iterable[int]):
        """Exchange b for its negation 1-b on each listed variable.

        Returns (flipped polynomial, flip mask).  The mask lets callers invert
        argmin assignments later; flipping twice restores the original.
        """
        mask = frozenset(vars)
        _require_boolean(self.registry, mask)
        flipped = self
        for var in sorted(mask):
            flipped = flipped.substitute(
                var, Polynomial.from_products(self.registry, [((), 1), ((var,), -1)])
            )
        return flipped, mask

    # -- domain conversion -------------------------------------------------------

    def to_spin(self) -> "Polynomial":
        """Rewrite a {0,1} polynomial over spin twins via b = (1 + z) / 2."""
        return self._convert(Domain.BOOLEAN, Domain.SPIN)

    def to_boolean(self) -> "Polynomial":
        """Rewrite a spin polynomial over {0,1} twins via z = 2b - 1."""
        return self._convert(Domain.SPIN, Domain.BOOLEAN)

    def _convert(self, source: Domain, target: Domain) -> "Polynomial":
        support = self.variables()
        for var in support:
            if self.registry.domain(var) is not source:
                raise DomainViolation(
                    f"variable {var} is not a {source.tag!r} variable"
                )
        # b = (1+z)/2 or z = 2b-1, as (twin coefficient, constant)
        slope, shift = (Fraction(1, 2), Fraction(1, 2)) if target is Domain.SPIN else (2, -1)
        result = self
        for var in support:
            twin = self.registry.twin(var, target)
            image = Polynomial.from_products(self.registry, [((twin,), slope), ((), shift)])
            result = result.substitute(var, image)
        return result

    # -- analysis ------------------------------------------------------------------

    def quadratic_profile(self) -> "QuadraticProfile":
        """Submodularity report for a quadratic {0,1} polynomial, counted as
        `verify.cost_report` counts an output."""
        if self.degree() > 2:
            raise NotQuadratic("submodularity is defined for degree <= 2")
        _require_boolean(self.registry, self.variables(), "submodularity requires {0,1} variables")
        return QuadraticProfile(
            non_submodular=self._non_submodular(),
            quadratic_terms=sum(1 for m in self.terms if monomial_degree(m) == 2),
            max_abs_coefficient=self._max_abs_coefficient(),
        )

    def _non_submodular(self) -> int:
        """Positive terms on two {0,1} variables (so degree 2), the terms that make
        minimization hard; spin and ternary pairs do not count."""
        domain = self.registry.domain
        return sum(1 for mono, coeff in self.terms.items() if len(mono) == 2 and coeff > 0
                   and domain(mono[0][0]) is domain(mono[1][0]) is Domain.BOOLEAN)

    def _max_abs_coefficient(self) -> Fraction:
        """The largest |coefficient|, 0 for the zero polynomial."""
        return max(map(abs, self.terms.values()), default=Fraction(0))


@dataclass(frozen=True)
class QuadraticProfile:
    """Counts used in trade-off reporting for quadratic {0,1} polynomials."""

    non_submodular: int
    quadratic_terms: int
    max_abs_coefficient: Fraction
