"""Text grammar, JSON schemas, QUBO export: exact round trips."""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import quadratizer
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
    load_polynomial,
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


def test_a_fresh_parse_orders_names_of_one_index_by_name():
    # b01, b1 and b001 share index 1; a set of names iterates in hash order,
    # so each of four hash seeds must give the same ids
    code = (
        "import json; from quadratizer.textio import format_polynomial, parse_polynomial\n"
        "p = parse_polynomial('b01 + 2 b1 + 3 b001')\n"
        "print(json.dumps([[p.registry.label(v) for v in p.registry], format_polynomial(p)]))"
    )
    root = os.path.dirname(os.path.dirname(quadratizer.__file__))
    runs = [
        json.loads(subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": root, "PYTHONHASHSEED": str(seed)},
        ).stdout)
        for seed in (1, 2, 3, 4)
    ]
    assert runs == [[["b001", "b01", "b1"], "3 b001 + b01 + 2 b1"]] * 4


def test_labels_with_non_decimal_digits_print_as_tokens_the_grammar_reads():
    # '²' is a digit to str.isdigit but not to the tokenizer's \d; '٣' is a
    # decimal digit to both, so b٣ is printed as it is
    p = polynomial_from_json(json.dumps({
        "vars": [{"id": 0, "domain": "b", "label": "b\u00b2"},
                 {"id": 1, "domain": "b", "label": "b\u0663"}],
        "terms": [{"m": {"0": 1, "1": 1}, "c": "1"}],
    }))
    printed = format_polynomial(p)
    assert printed == "b1 b\u0663"
    assert parse_polynomial(printed, p.registry) == p
    assert format_polynomial(parse_polynomial(printed)) == printed
    # a z² spin's {0,1} twin takes no label from it, and prints by its id
    registry = VariableRegistry()
    z = registry.add_variable(Domain.SPIN, "z\u00b2")
    image = Polynomial.variable(registry, z).to_boolean()
    assert registry.label(registry.entry(z).partner) is None
    printed = format_polynomial(image)
    assert printed == "-1 + 2 b2"
    assert parse_polynomial(printed, registry) == image


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


def _polynomial_json(records, coefficient="1"):
    """Polynomial JSON over (id, record) pairs, one term on variable 0."""
    entries = [dict(r, id=int(k)) if isinstance(r, dict) else r for k, r in records]
    return json.dumps({"vars": entries, "terms": [{"m": {"0": 1}, "c": coefficient}]})


def _qubo_json(records, coefficient="1"):
    """QUBO JSON over (id, record) pairs, one linear term on variable 0."""
    linear = {"0": coefficient}
    return json.dumps({"offset": "0", "linear": linear, "quadratic": {}, "var_map": dict(records)})


def _both(error_class, message):
    return (error_class, message), (error_class, message)


_B = {"domain": "b", "kind": "orig"}
_DENSE = _both(SchemaError, "variable ids must be dense 0..N-1")
_PARTNER = _both(SchemaError, "variable 0 has a bad partner 1")

# case: (id, record) pairs or raw text, the coefficient of the one term, and
# the error from polynomial JSON and from QUBO JSON (None: it reads)
SCHEMA_CASES = {
    "invalid JSON": ("{not json", "1", *_both(
        SchemaError,
        "invalid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)",
    )),
    "missing keys": (
        json.dumps({"vars": []}), "1",
        (SchemaError, "polynomial JSON needs 'vars' and 'terms'"),
        (SchemaError, "QUBO JSON needs keys ['linear', 'offset', 'quadratic', 'var_map']"),
    ),
    "sparse ids": ([("0", _B), ("2", _B)], "1", *_DENSE),
    "duplicate ids": ([("0", _B), ("00", _B)], "1", *_DENSE),
    "no id 0": ([("1", _B)], "1", *_DENSE),
    "boolean id": (
        json.dumps({"vars": [{"id": 0, "domain": "b"}, {"id": True, "domain": "b"}],
                    "terms": [{"m": {"0": 1, "1": 1}, "c": "3"}]}), "1",
        (SchemaError, "each variable needs an integer 'id'"),
        (SchemaError, "QUBO JSON needs keys ['linear', 'offset', 'quadratic', 'var_map']"),
    ),
    "non-object record": (
        [("0", _B), ("1", "b")], "1",
        (SchemaError, "each variable needs an integer 'id'"),
        (SchemaError, "var_map entry 1 must be an object"),
    ),
    "unknown domain": (
        [("0", {"domain": "q"})], "1", *_both(DomainViolation, "unknown domain tag 'q'")
    ),
    "missing domain": ([("0", {})], "1", (DomainViolation, "unknown domain tag ''"), None),
    "duplicate label": (
        [("0", dict(_B, label="x")), ("1", dict(_B, label="x"))], "1",
        *_both(SchemaError, "variable labels must be unique strings, got 'x'"),
    ),
    "non-string label": (
        [("0", dict(_B, label=3))], "1",
        *_both(SchemaError, "variable labels must be unique strings, got 3"),
    ),
    "one-way partner": ([("0", dict(_B, partner=1)), ("1", {"domain": "z"})], "1", *_PARTNER),
    "partner of the same domain": (
        [("0", dict(_B, partner=1)), ("1", dict(_B, partner=0))], "1", *_PARTNER
    ),
    "float coefficient": (
        [("0", _B)], 0.5, *_both(SchemaError, "coefficients must be strings, got float")
    ),
    "bad rational coefficient": (
        [("0", _B)], "1/x",
        *_both(SchemaError, "bad rational '1/x': invalid literal for int() with base 10: 'x'"),
    ),
    "unknown variable in a term": ([], "1", *_both(SchemaError, "term references unknown variable 0")),
}


@pytest.mark.parametrize("fmt", ["polynomial", "qubo"])
@pytest.mark.parametrize("case", list(SCHEMA_CASES))
def test_json_schema_errors(case, fmt):
    source, coefficient, *expected = SCHEMA_CASES[case]
    write, read = {
        "polynomial": (_polynomial_json, polynomial_from_json),
        "qubo": (_qubo_json, lambda text: qubo_from_json(text)[0]),
    }[fmt]
    text = source if isinstance(source, str) else write(source, coefficient)
    expected = expected[fmt == "qubo"]
    if expected is None:
        assert read(text).registry.domain(0) is Domain.BOOLEAN
        return
    error_class, message = expected
    with pytest.raises(error_class) as excinfo:
        read(text)
    assert type(excinfo.value) is error_class and str(excinfo.value) == message


# case: the one format it reads in, the keys it replaces in that format's
# payload over two {0,1} variables (ids 0 and 1), and its SchemaError message
ONE_FORMAT_CASES = {
    "term without m": ("polynomial", {"terms": [{"c": "1"}]}, "each term needs 'm' and 'c'"),
    "term without c": ("polynomial", {"terms": [{"m": {"0": 1}}]}, "each term needs 'm' and 'c'"),
    "bad monomial": ("polynomial", {"terms": [{"m": {"x": 1}, "c": "1"}]}, "bad monomial {'x': 1}"),
    "bad quadratic key": ("qubo", {"quadratic": {"0;1": "1"}}, "bad quadratic key '0;1'"),
    "quadratic key with i = j": (
        "qubo", {"quadratic": {"1,1": "1"}}, "quadratic keys need i < j, got '1,1'"
    ),
    "quadratic key with i > j": (
        "qubo", {"quadratic": {"1,0": "1"}}, "quadratic keys need i < j, got '1,0'"
    ),
    "unknown variable in a quadratic key": (
        "qubo", {"quadratic": {"0,5": "1"}}, "term references unknown variable 5"
    ),
    "negative variable in a linear key": (
        "qubo", {"linear": {"-1": "1"}}, "term references unknown variable -1"
    ),
    # a term key reads only as str(id), so no two keys name one variable
    "linear key with a leading zero": (
        "qubo", {"linear": {"0": "1", "00": "2"}}, "bad linear key '00'"
    ),
    "linear key with an underscore": ("qubo", {"linear": {"1_0": "1"}}, "bad linear key '1_0'"),
    "quadratic key with leading zeros": (
        "qubo", {"quadratic": {"0,1": "1", "00,01": "2"}}, "bad quadratic key '00,01'"
    ),
    "monomial key with a leading zero": (
        "polynomial", {"terms": [{"m": {"0": 1, "00": 1, "1": 1}, "c": "1"}]},
        "bad monomial {'0': 1, '00': 1, '1': 1}",
    ),
}


@pytest.mark.parametrize("case", list(ONE_FORMAT_CASES))
def test_json_term_errors_of_one_format(case):
    fmt, keys, message = ONE_FORMAT_CASES[case]
    write, read = {
        "polynomial": (_polynomial_json, polynomial_from_json),
        "qubo": (_qubo_json, qubo_from_json),
    }[fmt]
    payload = dict(json.loads(write([("0", _B), ("1", _B)])), **keys)
    with pytest.raises(SchemaError) as excinfo:
        read(json.dumps(payload))
    assert type(excinfo.value) is SchemaError and str(excinfo.value) == message


@pytest.mark.parametrize("fmt, text, key", [
    ("qubo", '{"offset": "0", "linear": {"0": "1", "0": "2"}, "quadratic": {}, '
             '"var_map": {"0": {}}}', "0"),
    ("qubo", '{"offset": "0", "linear": {}, "quadratic": {}, "var_map": {}, "offset": "1"}',
     "offset"),
    ("polynomial", '{"vars": [{"id": 0, "domain": "b", "domain": "z"}], "terms": []}', "domain"),
    ("polynomial", '{"vars": [{"id": 0}], "terms": [{"m": {"0": 1, "0": 2}, "c": "1"}]}', "0"),
], ids=["linear key", "top-level key", "variable record", "monomial"])
def test_json_readers_refuse_a_repeated_key(fmt, text, key):
    # the CLI reads every input through load_polynomial
    for read in {"polynomial": polynomial_from_json, "qubo": qubo_from_json}[fmt], load_polynomial:
        with pytest.raises(SchemaError) as excinfo:
            read(text)
        assert str(excinfo.value) == f"repeated key {key!r} in a JSON object"


@pytest.mark.parametrize("gadget", [{}, {"gadget": None}, {"gadget": "ptr_bg"}])
def test_both_json_formats_read_an_aux_record_the_same_way(gadget):
    # `kind: aux` always makes an auxiliary; a null or absent gadget reads as
    # "imported"
    records = [("0", _B), ("1", dict({"domain": "b", "kind": "aux"}, **gadget))]
    rebuilt, aux, _ = qubo_from_json(_qubo_json(records))
    for registry in rebuilt.registry, polynomial_from_json(_polynomial_json(records)).registry:
        assert registry.auxiliaries() == [1]
        assert registry.gadget_of(1) == (gadget.get("gadget") or "imported")
        assert registry.label(1) == "a1"
    assert aux == [1]


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
