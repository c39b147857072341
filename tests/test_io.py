"""Text grammar, JSON schemas, QUBO export: exact round trips."""

import json
import random
from fractions import Fraction

import pytest

from quadratizer.errors import (
    DomainViolation,
    NotQuadratic,
    ParseError,
    SchemaError,
)
from quadratizer.pipeline import quadratize
from quadratizer.poly import Domain, Polynomial, VariableRegistry
from quadratizer.textio import (
    format_polynomial,
    parse_polynomial,
    polynomial_from_json,
    polynomial_to_json,
    qubo_from_json,
    qubo_to_json,
)

from conftest import CUBIC_OBJECTIVE


def test_parse_worked_cubic():
    p = parse_polynomial("b1 b2 + b2 b3 + b3 b4 - 4 b1 b2 b3")
    assert p.degree() == 3
    assert p.coefficient(((0, 1), (1, 1), (2, 1))) == -4
    assert p.evaluate({0: 1, 1: 1, 2: 1, 3: 0}) == -2


def test_parse_empty_is_zero():
    p = parse_polynomial("")
    assert not p
    assert format_polynomial(p) == "0"


def test_parse_collapsed_tokens_and_rationals():
    p = parse_polynomial("7/2b1b2-1/2")
    assert p.coefficient(((0, 1), (1, 1))) == Fraction(7, 2)
    assert p.constant_term() == Fraction(-1, 2)


def test_parse_normalizes_exponents():
    assert parse_polynomial("b1^2") == parse_polynomial("b1")
    assert parse_polynomial("t1^3") == parse_polynomial("t1")
    assert parse_polynomial("z1^2") == parse_polynomial("1", parse_polynomial("z1").registry)
    # repeated factors merge before canonicalization
    assert parse_polynomial("b1 b1") == parse_polynomial("b1")
    assert parse_polynomial("t1 t1 t1") == parse_polynomial("t1")


def test_parse_rejects_unknown_letter():
    with pytest.raises(ParseError) as excinfo:
        parse_polynomial("q1 + b2")
    assert excinfo.value.column == 1


def test_parse_rejects_decimals():
    with pytest.raises(ParseError) as excinfo:
        parse_polynomial("0.5 b1")
    assert "decimal" in str(excinfo.value)


def test_parse_reports_position():
    with pytest.raises(ParseError) as excinfo:
        parse_polynomial("b1 +\n b2 !")
    assert excinfo.value.line == 2
    assert excinfo.value.column == 5


def test_parse_rejects_trailing_coefficient():
    with pytest.raises(ParseError):
        parse_polynomial("b1 4")


def test_parse_rejects_dangling_sign():
    with pytest.raises(ParseError):
        parse_polynomial("b1 + ")


def test_print_canonical_order():
    p = parse_polynomial(CUBIC_OBJECTIVE)
    assert format_polynomial(p) == "b1 b2 + b2 b3 + b3 b4 - 4 b1 b2 b3"


def test_print_fraction_and_exponent():
    registry = VariableRegistry()
    t = registry.add_variable(Domain.TERNARY, "t1")
    p = Polynomial(registry, {((t, 2),): Fraction(-7, 2)})
    assert format_polynomial(p) == "-7/2 t1^2"


def _random_expressions(count, seed=2024):
    """Expressions with distinct monomials per expression, so no variable can
    cancel out of the canonical form (ids then survive a fresh re-parse)."""
    rng = random.Random(seed)
    expressions = []
    for _ in range(count):
        n = rng.randint(1, 5)
        pieces = []
        used = set()
        for _ in range(rng.randint(1, 6)):
            coeff = rng.choice(["", "2 ", "3 ", "7/2 ", "1/3 "])
            vars = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, min(3, n)))))
            if vars in used:
                continue
            used.add(vars)
            body = " ".join(f"b{v}" for v in vars)
            if not body and not coeff:
                coeff = "1"
            sign = rng.choice(["+", "-"])
            pieces.append(f"{sign} {coeff}{body}".strip())
        expressions.append(" ".join(pieces))
    return expressions


@pytest.mark.parametrize("text", _random_expressions(100))
def test_parse_print_parse_round_trip(text):
    first = parse_polynomial(text)
    printed = format_polynomial(first)
    second = parse_polynomial(printed)
    assert second == first
    assert format_polynomial(second) == printed


def test_round_trip_fixed_point_under_cancellation():
    # terms cancelling a variable away shrink the fresh registry; the
    # canonical form is then the stable fixed point of parse/print
    text = "- b1 b3 b4 + b1 b3 b4 - 2 b1 + b4"
    first = parse_polynomial(text)
    printed = format_polynomial(first)
    assert printed == "-2 b1 + b4"
    second = parse_polynomial(printed)
    assert format_polynomial(second) == printed
    assert parse_polynomial(format_polynomial(second)) == second


def test_polynomial_json_round_trip():
    p = parse_polynomial(CUBIC_OBJECTIVE)
    payload = polynomial_to_json(p)
    q = polynomial_from_json(payload)
    assert q == p
    assert q.registry.label(0) == "b1"
    assert polynomial_to_json(q) == payload  # byte-identical re-export


def test_polynomial_json_preserves_aux_labels():
    p = parse_polynomial("b1 b2 b3")
    result = quadratize(p)
    payload = polynomial_to_json(result.output)
    again = polynomial_from_json(payload)
    aux = result.aux[0]
    assert again.registry.label(aux) == p.registry.label(aux) == "a1"
    assert again.registry.is_auxiliary(aux)


def test_polynomial_json_schema_errors():
    with pytest.raises(SchemaError):
        polynomial_from_json("{not json")
    with pytest.raises(SchemaError):
        polynomial_from_json(json.dumps({"vars": []}))
    with pytest.raises(SchemaError):
        polynomial_from_json(
            json.dumps({"vars": [{"id": 1, "domain": "b", "kind": "orig"}], "terms": []})
        )
    with pytest.raises(SchemaError):
        polynomial_from_json(
            json.dumps(
                {
                    "vars": [{"id": 0, "domain": "b", "kind": "orig"}],
                    "terms": [{"m": {"0": 1}, "c": 0.5}],
                }
            )
        )


@pytest.mark.parametrize("exponent", [1.5, 2.9, 1.0, True, "1", None, [1]])
def test_polynomial_json_rejects_non_integer_exponents(exponent):
    payload = {
        "vars": [{"id": 0, "domain": "t", "kind": "orig"}],
        "terms": [{"m": {"0": exponent}, "c": "1"}],
    }
    with pytest.raises(SchemaError):
        polynomial_from_json(json.dumps(payload))


def test_polynomial_json_rejects_non_integer_exponent_at_the_cli(tmp_path, capsys):
    from quadratizer.cli import main

    path = tmp_path / "p.json"
    path.write_text(json.dumps({
        "vars": [{"id": 0, "domain": "t", "kind": "orig"}],
        "terms": [{"m": {"0": 1.5}, "c": "1"}],
    }))
    assert main(["analyze", "--in", str(path)]) == 2
    assert "exponents must be positive integers" in capsys.readouterr().err


def test_qubo_export_shape():
    p = parse_polynomial(CUBIC_OBJECTIVE)
    result = quadratize(p)
    payload = json.loads(qubo_to_json(result.output, result.aux_map, result.guarantee))
    assert set(payload) == {"offset", "linear", "quadratic", "var_map", "guarantee", "trace"}
    for key in payload["quadratic"]:
        i, j = (int(x) for x in key.split(","))
        assert i < j
    assert payload["guarantee"] == "pointwise-min"
    assert payload["trace"]  # the auxiliary's provenance survives


def test_qubo_round_trip_values():
    p = parse_polynomial(CUBIC_OBJECTIVE)
    result = quadratize(p)
    rebuilt, aux, guarantee = qubo_from_json(
        qubo_to_json(result.output, result.aux_map, result.guarantee)
    )
    assert rebuilt.terms == result.output.terms
    assert aux == list(result.aux)
    assert guarantee == result.guarantee


def test_qubo_refuses_cubic_and_spin():
    p = parse_polynomial(CUBIC_OBJECTIVE)
    with pytest.raises(NotQuadratic):
        qubo_to_json(p)
    registry = VariableRegistry()
    zs = [registry.add_variable(Domain.SPIN) for _ in range(2)]
    with pytest.raises(DomainViolation):
        qubo_to_json(Polynomial.product(registry, zs))


def test_spin_text_round_trip():
    p = parse_polynomial("z1 z2 - 3 z2 z3 + 1/2")
    assert parse_polynomial(format_polynomial(p)) == p


def test_conversion_round_trip_via_text():
    original_text = format_polynomial(parse_polynomial(CUBIC_OBJECTIVE))
    spin_text = format_polynomial(parse_polynomial(CUBIC_OBJECTIVE).to_spin())
    back = parse_polynomial(spin_text).to_boolean()
    assert format_polynomial(back) == original_text
