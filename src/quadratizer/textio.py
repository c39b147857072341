"""Polynomial text/JSON serialization and QUBO export.

Text grammar (whitespace optional between tokens):

    poly     := [sign] term (sign term)*
    sign     := "+" | "-" | "MINUS SIGN"
    term     := rational factor* | factor+
    factor   := var ["^" int]
    var      := ("b" | "z" | "t") positive-int
    rational := int | int "/" int

Variable letters carry the domain (b: {0,1}, z: {-1,+1}, t: {-1,0,1}).
Decimal coefficients are rejected, never approximated.  Fresh parses assign
dense ids in sorted name order, so parse -> print -> parse reproduces an
identical canonical polynomial; all JSON forms carry exact "p/q" coefficient
strings and deterministic key order.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .errors import DomainViolation, NotQuadratic, ParseError, SchemaError
from .poly import Domain, Polynomial, VariableRegistry, monomial_degree

_TOKEN = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<var>[bzt]\d+)"
    r"|(?P<num>\d+(?:/\d+)?)"
    r"|(?P<pow>\^\d+)"
    r"|(?P<sign>[-+−])"
)

_LETTER_ORDER = {"b": 0, "z": 1, "t": 2}


def _tokenize(text: str):
    tokens = []
    line, column = 1, 1
    index = 0
    while index < len(text):
        match = _TOKEN.match(text, index)
        if not match:
            offender = text[index]
            message = (
                "decimal coefficients are not supported; use p/q rationals"
                if offender == "."
                else f"unexpected character {offender!r}"
            )
            raise ParseError(message, line, column)
        kind = match.lastgroup
        value = match.group()
        if kind != "ws":
            tokens.append((kind, value, line, column))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            column = len(value) - value.rfind("\n")
        else:
            column += len(value)
        index = match.end()
    return tokens


def _sort_key(name: str):
    return (_LETTER_ORDER[name[0]], int(name[1:]))


def parse_polynomial(text: str, registry: VariableRegistry = None) -> Polynomial:
    """Parse grammar text into a canonical polynomial.

    Without a registry a fresh one is created with ids assigned in sorted
    name order (b-vars, then z, then t, by index); with one, names resolve
    through labels and unknown names are appended, also in sorted order.
    """
    tokens = _tokenize(text)
    names = sorted({value for kind, value, _, _ in tokens if kind == "var"}, key=_sort_key)
    if registry is None:
        registry = VariableRegistry()
    ids = {}
    for name in names:
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

    terms = []
    sign = 1
    coeff = None
    factors = None  # None = not inside a term yet

    def close_term(line, column):
        nonlocal sign, coeff, factors
        if factors is None:
            return
        if coeff is None and not factors:
            raise ParseError("empty term", line, column)
        value = Fraction(sign) * (coeff if coeff is not None else Fraction(1))
        terms.append((tuple(sorted(factors)), value))
        sign, coeff, factors = 1, None, None

    previous_was_sign = False
    for kind, value, line, column in tokens:
        if kind == "sign":
            if factors is None and previous_was_sign:
                raise ParseError("dangling sign", line, column)
            close_term(line, column)
            sign = -1 if value in "-−" else 1
            previous_was_sign = True
            continue
        previous_was_sign = False
        if kind == "num":
            if factors is not None:
                raise ParseError("coefficient must precede its factors", line, column)
            if "/" in value:
                numerator, denominator = value.split("/")
                if int(denominator) == 0:
                    raise ParseError("zero denominator", line, column)
                coeff = Fraction(int(numerator), int(denominator))
            else:
                coeff = Fraction(int(value))
            factors = []
        elif kind == "var":
            if factors is None:
                factors = []
            factors.append([ids[value], 1])
        elif kind == "pow":
            if factors is None or not factors or not isinstance(factors[-1], list):
                raise ParseError("exponent without a variable", line, column)
            factors[-1][1] = int(value[1:])
    if previous_was_sign:
        last = tokens[-1]
        raise ParseError("dangling sign", last[2], last[3])
    close_term(1, 1)

    polynomial = Polynomial(
        registry,
        [(tuple((v, e) for v, e in mono), c) for mono, c in terms],
    )
    return polynomial


def format_fraction(value: Fraction) -> str:
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
    vars_section = []
    for var in p.registry:
        entry = p.registry.entry(var)
        record = {"id": var, "domain": entry.domain.tag, "kind": entry.kind}
        if entry.label is not None:
            record["label"] = entry.label
        if entry.gadget is not None:
            record["gadget"] = entry.gadget
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


def _require(payload: dict, key: str, kind: type, what: str):
    value = payload[key]
    if not isinstance(value, kind):
        raise SchemaError(f"{key!r} must be {what}, got {type(value).__name__}")
    return value


def polynomial_from_json(text: str) -> Polynomial:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as error:
        raise SchemaError(f"invalid JSON: {error}") from None
    if not isinstance(payload, dict) or "vars" not in payload or "terms" not in payload:
        raise SchemaError("polynomial JSON needs 'vars' and 'terms'")
    records = _require(payload, "vars", list, "a list")
    if not all(isinstance(r, dict) and isinstance(r.get("id"), int) for r in records):
        raise SchemaError("each variable needs an integer 'id'")
    records = sorted(records, key=lambda r: r["id"])
    registry = VariableRegistry()
    for expected, record in enumerate(records):
        if record.get("id") != expected:
            raise SchemaError("variable ids must be dense 0..N-1")
        domain = Domain.from_tag(record.get("domain", ""))
        label = record.get("label")
        if record.get("kind") == "aux":
            registry.add_auxiliary(domain, record.get("gadget", "imported"), label)
        else:
            registry.add_variable(domain, label)
    terms = []
    for record in _require(payload, "terms", list, "a list"):
        if not isinstance(record, dict) or "m" not in record or "c" not in record:
            raise SchemaError("each term needs 'm' and 'c'")
        try:
            mono = tuple(sorted((int(v), int(e)) for v, e in record["m"].items()))
        except (ValueError, TypeError, AttributeError):
            raise SchemaError(f"bad monomial {record['m']!r}") from None
        for var, exponent in mono:
            if not 0 <= var < len(registry):
                raise SchemaError(f"term references unknown variable {var}")
            if exponent < 1:
                raise SchemaError("exponents must be positive")
        terms.append((mono, _parse_fraction(record["c"])))
    return Polynomial(registry, terms)


# ---------------------------------------------------------------------------
# QUBO JSON


def qubo_to_json(
    p: Polynomial, aux_map=None, guarantee: str = None
) -> str:
    """Export a quadratic {0,1} polynomial as offset/linear/quadratic maps.

    Non-boolean variables are refused: convert (or eliminate ternary
    variables) first, so guarantee downgrades stay visible.
    """
    if p.degree() > 2:
        raise NotQuadratic("QUBO export needs degree <= 2")
    for var in p.variables():
        if p.registry.domain(var) is not Domain.BOOLEAN:
            raise DomainViolation(
                "QUBO export accepts only {0,1} variables; convert first"
            )
    offset = Fraction(0)
    linear = {}
    quadratic = {}
    for mono, coeff in p.items():
        degree = monomial_degree(mono)
        if degree == 0:
            offset = coeff
        elif degree == 1:
            linear[str(mono[0][0])] = format_fraction(coeff)
        else:
            (i, _), (j, _) = mono  # {0,1} canonical form: two distinct vars
            quadratic[f"{i},{j}"] = format_fraction(coeff)
    var_map = {}
    for var in p.registry:
        entry = p.registry.entry(var)
        var_map[str(var)] = {
            "label": entry.label,
            "kind": entry.kind,
            "domain": entry.domain.tag,
        }
    payload = {
        "offset": format_fraction(offset),
        "linear": linear,
        "quadratic": quadratic,
        "var_map": var_map,
        "guarantee": guarantee or "",
        "trace": {str(k): v for k, v in (aux_map or {}).items()},
    }
    return json.dumps(payload, sort_keys=True, indent=2)


def qubo_from_json(text: str):
    """Rebuild (polynomial, auxiliary ids, guarantee) from QUBO JSON."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as error:
        raise SchemaError(f"invalid JSON: {error}") from None
    required = {"offset", "linear", "quadratic", "var_map"}
    if not isinstance(payload, dict) or not required <= set(payload):
        raise SchemaError(f"QUBO JSON needs keys {sorted(required)}")
    linear = _require(payload, "linear", dict, "an object")
    quadratic = _require(payload, "quadratic", dict, "an object")
    records = sorted(
        (
            (_parse_int(k, "variable id"), v)
            for k, v in _require(payload, "var_map", dict, "an object").items()
        ),
        key=lambda kv: kv[0],
    )
    registry = VariableRegistry()
    aux = []
    for expected, (var, record) in enumerate(records):
        if var != expected:
            raise SchemaError("variable ids must be dense 0..N-1")
        if not isinstance(record, dict):
            raise SchemaError(f"var_map entry {var} must be an object")
        if record.get("domain", "b") != "b":
            raise SchemaError("QUBO variables must be {0,1}")
        if record.get("kind") == "aux":
            registry.add_auxiliary(Domain.BOOLEAN, "imported", record.get("label"))
            aux.append(var)
        else:
            registry.add_variable(Domain.BOOLEAN, record.get("label"))
    terms = [((), _parse_fraction(payload["offset"]))]
    for key, value in linear.items():
        terms.append((((_parse_int(key, "linear key"), 1),), _parse_fraction(value)))
    for key, value in quadratic.items():
        try:
            i, j = (int(part) for part in key.split(","))
        except ValueError:
            raise SchemaError(f"bad quadratic key {key!r}") from None
        if i >= j:
            raise SchemaError(f"quadratic keys need i < j, got {key!r}")
        terms.append((((i, 1), (j, 1)), _parse_fraction(value)))
    return Polynomial(registry, terms), aux, payload.get("guarantee", "")


def load_polynomial(text: str) -> Polynomial:
    """Sniff text vs JSON input."""
    if text.lstrip().startswith("{"):
        return polynomial_from_json(text)
    return parse_polynomial(text)
