"""Polynomial text/JSON serialization and QUBO export.

Text grammar (whitespace optional between tokens):

    poly     := [sign] term (sign term)*
    sign     := "+" | "-" | "MINUS SIGN"
    term     := rational factor* | factor+
    factor   := var ["^" int]        (one exponent per variable: b1^2^3 is an error)
    var      := ("b" | "z" | "t") positive-int
    rational := int | int "/" int

Variable letters carry the domain (b: {0,1}, z: {-1,+1}, t: {-1,0,1}).
Decimal coefficients are rejected, never approximated.  Fresh parses assign
dense ids in sorted name order, so parse -> print -> parse reproduces an
identical canonical polynomial; all JSON forms carry exact "p/q" coefficient
strings and deterministic key order.  The CLI reads `--in -` (stdin) as
strict UTF-8, as it reads a file.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .errors import DomainViolation, NotQuadratic, ParseError, SchemaError
from .poly import Domain, Polynomial, VariableRegistry, _require_boolean

_TOKEN = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<var>[bzt]\d+)"
    r"|(?P<num>\d+(?:/\d+)?)"
    r"|(?P<pow>\^\d+)"
    r"|(?P<sign>[-+−])"
    r"|(?P<bad>.)",
    re.DOTALL,
)


def _parse_error(message: str, text: str, offset: int) -> ParseError:
    """A ParseError at `offset`, placed by 1-based line and column."""
    line = text.count("\n", 0, offset) + 1
    return ParseError(message, line, offset - text.rfind("\n", 0, offset))


def _tokenize(text: str):
    """The names of `text`'s variables, and a generator of its non-space tokens
    as (kind, value, offset).  Two scans, no token list: the first collects the
    names and raises at the first bad character, before any grammar error.  An
    integer with more digits than int() reads (sys.get_int_max_str_digits())
    raises before both."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    digits = limit and re.search(r"\d{%d}" % (limit + 1), text)
    if digits:
        raise _parse_error(f"integer longer than {limit} digits", text, digits.start())
    names = set()
    for m in _TOKEN.finditer(text):
        if m.lastgroup == "var":
            names.add(m.group())
        elif m.lastgroup == "bad":
            message = (
                "decimal coefficients are not supported; use p/q rationals"
                if m.group() == "."
                else f"unexpected character {m.group()!r}"
            )
            raise _parse_error(message, text, m.start())
    matches = _TOKEN.finditer(text)
    return names, ((m.lastgroup, m.group(), m.start()) for m in matches if m.lastgroup != "ws")


def parse_polynomial(text: str, registry: VariableRegistry = None) -> Polynomial:
    """Parse grammar text into a canonical polynomial.

    Without a registry a fresh one is created with ids assigned in sorted
    name order (b-vars, then z, then t, by index); with one, names resolve
    through labels and unknown names are appended, also in sorted order.
    """
    names, tokens = _tokenize(text)
    if registry is None:
        registry = VariableRegistry()
    ids = {}
    for name in sorted(names, key=lambda name: ("bzt".index(name[0]), int(name[1:]))):
        existing = registry.by_label(name)
        if existing is None:
            # synthesized display tokens (for variables whose label does not
            # fit the grammar, e.g. gadget auxiliaries) resolve positionally
            candidate = int(name[1:]) - 1
            if 0 <= candidate < len(registry) and registry.display_name(candidate) == name:
                existing = candidate
            else:
                existing = registry.add_variable(Domain.from_tag(name[0]), name)
        elif registry.domain(existing) is not Domain.from_tag(name[0]):
            raise DomainViolation(
                f"label {name!r} already bound to a different domain"
            )
        ids[name] = existing

    # a term opens on a number or a variable and closes at the next sign;
    # the sign before it starts its coefficient
    terms = []
    coeff, factors, previous = Fraction(1), None, None
    for kind, value, offset in tokens:
        if kind == "sign":
            if previous == "sign":
                raise _parse_error("dangling sign", text, offset)
            if factors is not None:
                terms.append((factors, coeff))
            coeff, factors = Fraction(1 if value == "+" else -1), None
        elif kind == "num":
            if factors is not None:
                raise _parse_error("coefficient must precede its factors", text, offset)
            numerator, _, denominator = value.partition("/")
            if denominator and int(denominator) == 0:
                raise _parse_error("zero denominator", text, offset)
            coeff *= Fraction(int(numerator), int(denominator or 1))
            factors = []
        elif kind == "var":
            if factors is None:
                factors = []
            factors.append((ids[value], 1))
        elif previous == "var":
            factors[-1] = (factors[-1][0], int(value[1:]))
        else:
            raise _parse_error("exponent without a variable", text, offset)
        previous = kind
    if previous == "sign":
        raise _parse_error("dangling sign", text, offset)
    if factors is not None:
        terms.append((factors, coeff))
    return Polynomial(registry, terms)


def format_fraction(value: Fraction) -> str:
    if not isinstance(value, Fraction):
        value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def format_polynomial(p: Polynomial) -> str:
    """Canonical text: terms by (degree, variables), ' + '/' - ' separators."""
    if not p.terms:
        return "0"
    pieces = []
    for index, (mono, coeff) in enumerate(p.items()):
        magnitude = abs(coeff)
        factors = " ".join(
            p.registry.display_name(v) + (f"^{e}" if e != 1 else "")
            for v, e in mono
        )
        if not factors:
            body = format_fraction(magnitude)
        elif magnitude == 1:
            body = factors
        else:
            body = f"{format_fraction(magnitude)} {factors}"
        if index == 0:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(pieces)


# ---------------------------------------------------------------------------
# Polynomial JSON


def polynomial_to_json(p: Polynomial) -> str:
    """Export every registry entry and term; an entry names its twin as
    `partner` when it has one, as in QUBO JSON."""
    vars_section = []
    for var in p.registry:
        entry = p.registry.entry(var)
        record = {"id": var, "domain": entry.domain.tag, "kind": entry.kind}
        if entry.label is not None:
            record["label"] = entry.label
        if entry.gadget is not None:
            record["gadget"] = entry.gadget
        if entry.partner is not None:
            record["partner"] = entry.partner
        vars_section.append(record)
    terms_section = [
        {"m": {str(v): e for v, e in mono}, "c": format_fraction(coeff)}
        for mono, coeff in p.items()
    ]
    return json.dumps(
        {"vars": vars_section, "terms": terms_section}, sort_keys=True, indent=2
    )


def _parse_fraction(text) -> Fraction:
    if not isinstance(text, str):
        raise SchemaError(f"coefficients must be strings, got {type(text).__name__}")
    try:
        if "/" in text:
            numerator, denominator = text.split("/")
            return Fraction(int(numerator), int(denominator))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as error:
        raise SchemaError(f"bad rational {text!r}: {error}") from None


def _parse_int(text, what: str) -> int:
    try:
        return int(text)
    except (TypeError, ValueError):
        raise SchemaError(f"bad {what} {text!r}") from None


def _term_var(registry: VariableRegistry, var: int) -> int:
    if not 0 <= var < len(registry):
        raise SchemaError(f"term references unknown variable {var}")
    return var


def _require(payload: dict, key: str, kind: type, what: str):
    value = payload[key]
    if not isinstance(value, kind):
        raise SchemaError(f"{key!r} must be {what}, got {type(value).__name__}")
    return value


def _registry(pairs, default_domain: str) -> VariableRegistry:
    """Rebuild a registry from (id, record) pairs, taken in id order.

    Ids must be dense, each record an object, labels unique strings.  A
    record without `domain` takes `default_domain`; `kind: aux` makes an
    auxiliary of its `gadget` ("imported" when absent or null).  A `partner`
    link must be an int, mutual, and join a {0,1} variable to a spin one.
    """
    registry = VariableRegistry()
    partners = {}
    for expected, (var, record) in enumerate(sorted(pairs, key=lambda pair: pair[0])):
        if var != expected:
            raise SchemaError("variable ids must be dense 0..N-1")
        if not isinstance(record, dict):
            raise SchemaError(f"var_map entry {var} must be an object")
        domain = Domain.from_tag(record.get("domain", default_domain))
        label = record.get("label")
        if not (label is None or isinstance(label, str) and registry.by_label(label) is None):
            raise SchemaError(f"variable labels must be unique strings, got {label!r}")
        if record.get("kind") == "aux":
            registry.add_auxiliary(domain, record.get("gadget") or "imported", label)
        else:
            registry.add_variable(domain, label)
        if "partner" in record:
            partners[var] = record["partner"]
    twins = {Domain.BOOLEAN, Domain.SPIN}
    for var, partner in partners.items():
        if (
            type(partner) is not int
            or partners.get(partner) != var
            or {registry.domain(var), registry.domain(partner)} != twins
        ):
            raise SchemaError(f"variable {var} has a bad partner {partner!r}")
        registry.entry(var).partner = partner
    return registry


def _load_json(text: str):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as error:  # a decode error, an int too long, too deep
        raise SchemaError(f"invalid JSON: {error}") from None


def polynomial_from_json(text: str) -> Polynomial:
    return _polynomial_from_payload(_load_json(text))


def _polynomial_from_payload(payload) -> Polynomial:
    if not isinstance(payload, dict) or "vars" not in payload or "terms" not in payload:
        raise SchemaError("polynomial JSON needs 'vars' and 'terms'")
    records = _require(payload, "vars", list, "a list")
    if not all(isinstance(r, dict) and isinstance(r.get("id"), int) for r in records):
        raise SchemaError("each variable needs an integer 'id'")
    registry = _registry(((r["id"], r) for r in records), "")
    terms = []
    for record in _require(payload, "terms", list, "a list"):
        if not isinstance(record, dict) or "m" not in record or "c" not in record:
            raise SchemaError("each term needs 'm' and 'c'")
        try:
            mono = tuple(sorted((int(v), e) for v, e in record["m"].items()))
        except (ValueError, TypeError, AttributeError):
            raise SchemaError(f"bad monomial {record['m']!r}") from None
        for var, exponent in mono:
            _term_var(registry, var)
            if type(exponent) is not int or exponent < 1:  # not bool, float or str
                raise SchemaError(f"exponents must be positive integers, got {exponent!r}")
        terms.append((mono, _parse_fraction(record["c"])))
    return Polynomial(registry, terms)


# ---------------------------------------------------------------------------
# QUBO JSON


def _json_string(value) -> str:
    return "null" if value is None else encode_basestring_ascii(value)


def _json_map(lines: list) -> str:
    """An indented JSON object from its entry lines, in `sort_keys` order.

    Each line starts with its quoted key.  The keys written here are digits
    and commas, which sort after the closing quote, so sorting the lines as
    strings sorts the entries by key.
    """
    if not lines:
        return "{}"
    lines.sort()
    lines[0] = "{\n" + lines[0]
    lines[-1] += "\n  }"
    return ",\n".join(lines)


def qubo_to_json(
    p: Polynomial, aux_map=None, guarantee: str = None
) -> str:
    """Export a quadratic {0,1} polynomial as offset/linear/quadratic maps.

    Non-boolean variables are refused: convert (or eliminate ternary
    variables) first, so guarantee downgrades stay visible.  A `var_map`
    entry names its twin as `partner` when the variable has one, so the
    {0,1} image of a spin objective can be checked against the original.

    The text is the same as `json.dumps(payload, sort_keys=True, indent=2)`,
    but written one entry line at a time.
    """
    if p.degree() > 2:
        raise NotQuadratic("QUBO export needs degree <= 2")
    registry = p.registry
    _require_boolean(
        registry, p.variables(), "QUBO export accepts only {0,1} variables; convert first"
    )
    offset = "0"
    linear = []
    quadratic = []
    for mono, coeff in p.terms.items():
        # {0,1} canonical form: every exponent is 1, so the length is the degree
        if not mono:
            offset = format_fraction(coeff)
        elif len(mono) == 1:
            linear.append(f'    "{mono[0][0]}": "{format_fraction(coeff)}"')
        else:
            (i, _), (j, _) = mono
            quadratic.append(f'    "{i},{j}": "{format_fraction(coeff)}"')
    # Rebinding each name to its member's text frees that member's lines, so
    # the var_map and trace lines are built only after the term lines are gone.
    linear = _json_map(linear)
    quadratic = _json_map(quadratic)
    var_map = []
    for var in registry:
        entry = registry.entry(var)
        partner = "" if entry.partner is None else f',\n      "partner": {entry.partner}'
        var_map.append(
            f'    "{var}": {{\n      "domain": "{entry.domain.tag}",\n'
            f'      "kind": "{entry.kind}",\n      "label": {_json_string(entry.label)}'
            f"{partner}\n    }}"
        )
    var_map = _json_map(var_map)
    trace = _json_map([f'    "{k}": {_json_string(v)}' for k, v in (aux_map or {}).items()])
    return (
        f'{{\n  "guarantee": {_json_string(guarantee or "")},\n  "linear": {linear},\n'
        f'  "offset": "{offset}",\n  "quadratic": {quadratic},\n  "trace": {trace},\n'
        f'  "var_map": {var_map}\n}}'
    )


def qubo_from_json(text: str):
    """Rebuild (polynomial, auxiliary ids, guarantee) from QUBO JSON.

    Every term must be over {0,1} variables of `var_map`.  Entries of other
    domains that no term uses (the original spin variables of a spin
    objective) are kept, with the `partner` links to their {0,1} twins.
    """
    return _qubo_from_payload(_load_json(text))


def _qubo_from_payload(payload):
    required = {"offset", "linear", "quadratic", "var_map"}
    if not isinstance(payload, dict) or not required <= set(payload):
        raise SchemaError(f"QUBO JSON needs keys {sorted(required)}")
    linear = _require(payload, "linear", dict, "an object")
    quadratic = _require(payload, "quadratic", dict, "an object")
    var_map = _require(payload, "var_map", dict, "an object")
    registry = _registry(((_parse_int(k, "variable id"), v) for k, v in var_map.items()), "b")
    terms = [((), _parse_fraction(payload["offset"]))]
    for key, value in linear.items():
        terms.append(((_term_var(registry, _parse_int(key, "linear key")),), _parse_fraction(value)))
    for key, value in quadratic.items():
        try:
            i, j = (int(part) for part in key.split(","))
        except ValueError:
            raise SchemaError(f"bad quadratic key {key!r}") from None
        if i >= j:
            raise SchemaError(f"quadratic keys need i < j, got {key!r}")
        terms.append(((_term_var(registry, i), _term_var(registry, j)), _parse_fraction(value)))
    polynomial = Polynomial.from_products(registry, terms)
    if any(registry.domain(var) is not Domain.BOOLEAN for var in polynomial.variables()):
        raise SchemaError("QUBO variables must be {0,1}")
    return polynomial, registry.auxiliaries(), payload.get("guarantee", "")


def load_polynomial(text: str) -> Polynomial:
    """Read grammar text, polynomial JSON or QUBO JSON; a JSON object with a
    `var_map` key is QUBO JSON."""
    if not text.lstrip().startswith("{"):
        return parse_polynomial(text)
    payload = _load_json(text)
    if isinstance(payload, dict) and "var_map" in payload:
        return _qubo_from_payload(payload)[0]
    return _polynomial_from_payload(payload)
