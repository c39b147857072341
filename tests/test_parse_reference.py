"""The text parser against the two-pass parser it replaced.

`_ref_tokenize` and `_ref_parse_polynomial` below are the earlier parser,
kept as it was: it tracked a line and column for every token and closed each
term through a closure.  `parse_polynomial` must give the same terms in the
same insertion order and leave the registry with the same labels and
domains, or raise the same exception with the same message, line and column.

The one intended difference: the earlier parser let a second `^int` after a
variable overwrite the first (`t1^2^3` read as `t1`).  The grammar allows
one exponent per variable, so that second `^` is now an "exponent without a
variable" error at its own position.
"""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadratizer.errors import DomainViolation, ParseError
from quadratizer.poly import Domain, Polynomial, VariableRegistry
from quadratizer.textio import parse_polynomial

# ---------------------------------------------------------------------------
# Reference parser

_REF_TOKEN = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<var>[bzt]\d+)"
    r"|(?P<num>\d+(?:/\d+)?)"
    r"|(?P<pow>\^\d+)"
    r"|(?P<sign>[-+−])"
)

_REF_LETTER_ORDER = {"b": 0, "z": 1, "t": 2}


def _ref_tokenize(text: str):
    tokens = []
    line, column = 1, 1
    index = 0
    while index < len(text):
        match = _REF_TOKEN.match(text, index)
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


def _ref_sort_key(name: str):
    return (_REF_LETTER_ORDER[name[0]], int(name[1:]))


def _ref_parse_polynomial(text: str, registry: VariableRegistry = None) -> Polynomial:
    tokens = _ref_tokenize(text)
    names = sorted({value for kind, value, _, _ in tokens if kind == "var"}, key=_ref_sort_key)
    if registry is None:
        registry = VariableRegistry()
    ids = {}
    for name in names:
        existing = registry.by_label(name)
        if existing is None:
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


# ---------------------------------------------------------------------------
# Comparison


def _prefilled():
    """Labels of every domain, an auxiliary whose display token is `b3`, the
    label `t1` bound to a {0,1} variable, and an unlabelled ternary `t5`."""
    registry = VariableRegistry()
    registry.add_variable(Domain.BOOLEAN, "b2")
    registry.add_variable(Domain.SPIN, "z1")
    registry.add_auxiliary(Domain.BOOLEAN, "fixture")
    registry.add_variable(Domain.BOOLEAN, "t1")
    registry.add_variable(Domain.TERNARY)
    return registry


def _outcome(parse, text, registry):
    """Terms in insertion order, or the error; and the registry afterwards."""
    try:
        polynomial = parse(text, registry)
    except (ParseError, DomainViolation) as error:
        position = getattr(error, "line", None), getattr(error, "column", None)
        result = (type(error), str(error), *position)
    else:
        result, registry = list(polynomial.terms.items()), polynomial.registry
    return result, [
        (registry.label(v), registry.domain(v), registry.is_auxiliary(v)) for v in registry or ()
    ]


def _second_exponent(text):
    """(line, column) of the first `^int` that follows another, or None."""
    try:
        tokens = _ref_tokenize(text)
    except ParseError:
        return None
    for previous, token in zip(tokens, tokens[1:]):
        if previous[0] == token[0] == "pow":
            return token[2], token[3]
    return None


def _expected(text, registry):
    result, entries = _outcome(_ref_parse_polynomial, text, registry)
    position = _second_exponent(text)
    failed = isinstance(result, tuple)
    if position is None or failed and (result[0] is DomainViolation or result[2:] < position):
        return result, entries  # no second exponent, or an error the parser meets first
    message = f"exponent without a variable (line {position[0]}, column {position[1]})"
    return (ParseError, message, *position), [] if registry is None else entries


# single characters, and whole tokens so that more texts reach the grammar
CHARACTERS = [*"bzt0123456789/^+-−", " ", "\n", ".", "!", "0/0"]
TOKENS = ["b1", "z2", "t3", "b12", "^2", "^3", "2", "1/3", " + ", " - "]
PIECES = st.one_of(st.sampled_from(CHARACTERS), st.sampled_from(TOKENS))
TEXTS = st.lists(PIECES, max_size=24).map("".join)


@settings(max_examples=400, deadline=None)
@given(TEXTS)
def test_parser_matches_reference(text):
    assert _outcome(parse_polynomial, text, None) == _expected(text, None)
    assert _outcome(parse_polynomial, text, _prefilled()) == _expected(text, _prefilled())


@pytest.mark.parametrize("text, registry", [
    ("", None),
    ("b1 b2 + b2 b3 + b3 b4 - 4 b1 b2 b3", None),
    ("7/2b1b2-1/2 − 3 z1^2 t2^3 + t2^2 b1 b1", None),
    ("- b3 + 1/3\n  + z2 b1^4 -0 b2", None),
    ("b2 z1 b3 t5^2 + 2 b9", "prefilled"),  # labels, the aux's display token, t5
    ("b1 + t1", "prefilled"),  # t1 is bound to a {0,1} variable
    ("b1 +\n b2 !", None),
    ("b1 4", None),
    ("b1 + + b2", None),
    ("b1 - ", None),
    ("2^3 b1", None),
    ("^2 b1", None),
    ("3/0 b1", None),
    ("0.5 b1", None),
    ("b1 +\n\n  q2", None),
    ("b1 -\n 2\n", None),
    # a grammar error before a bad character: the bad character is still the error
    ("b1 + + b2 !", None),
    ("2^3 b1 .", None),
    ("b1 -   ", None),  # a dangling sign is placed at the sign, not at the spaces after it
])
def test_parser_matches_reference_on_fixed_texts(text, registry):
    make = _prefilled if registry else lambda: None
    assert _outcome(parse_polynomial, text, make()) == _outcome(_ref_parse_polynomial, text, make())


@pytest.mark.parametrize("text, earlier", [
    ("t1^2^3", "t1"),
    ("t1^3^2", "t1^2"),
    ("b1 +\n z1^2 ^3 b2", "b1 + z1^3 b2"),
])
def test_second_exponent_is_an_error(text, earlier):
    # the earlier parser kept the last exponent; the grammar allows one
    assert _ref_parse_polynomial(text) == _ref_parse_polynomial(earlier)
    with pytest.raises(ParseError, match="^exponent without a variable") as excinfo:
        parse_polynomial(text)
    line, column = _second_exponent(text)
    assert (excinfo.value.line, excinfo.value.column) == (line, column)
    assert text.split("\n")[line - 1][column - 1] == "^"
