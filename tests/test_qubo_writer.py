"""The line-at-a-time QUBO JSON writer against the encoder it replaced.

`_reference_qubo_to_json` is the earlier `qubo_to_json`, kept as it was: it
builds the whole payload dict and hands it to `json.dumps(..., indent=2)`.
For registries without twins both must give the same string.  The writer
adds a `partner` field only to variables that have a twin; those outputs
are checked by the round-trip tests below.
"""

import gc
import json
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadratizer.errors import DomainViolation, NotQuadratic, SchemaError
from quadratizer.pipeline import quadratize
from quadratizer.poly import Domain, Polynomial, VariableRegistry, monomial_degree
from quadratizer.textio import (
    format_fraction,
    format_polynomial,
    parse_polynomial,
    polynomial_from_json,
    qubo_from_json,
    qubo_to_json,
)

from conftest import SPIN_INSTANCE


def _reference_qubo_to_json(p: Polynomial, aux_map=None, guarantee: str = None) -> str:
    if p.degree() > 2:
        raise NotQuadratic("QUBO export needs degree <= 2")
    for var in p.variables():
        if p.registry.domain(var) is not Domain.BOOLEAN:
            raise DomainViolation("QUBO export accepts only {0,1} variables; convert first")
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
            (i, _), (j, _) = mono
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


_LABELS = st.one_of(
    st.none(),
    st.sampled_from(['b1', 'q"uote', "back\\slash", "été", "−x", "\U0001f600", ""]),
    st.text(max_size=6),
)
_COEFFICIENTS = st.one_of(
    st.integers(-5, 5),
    st.fractions(max_denominator=7),
    st.builds(
        Fraction,
        st.integers(-(10**30), 10**30),
        st.integers(10**29, 10**30),
    ),
)


@st.composite
def _qubo_inputs(draw):
    """A quadratic {0,1} polynomial over a registry imported from polynomial
    JSON (so labels may hold quotes, backslashes and non-ASCII text), with
    unused spin and ternary variables, an aux map and a guarantee."""
    count = draw(st.integers(0, 14))
    labels = draw(st.lists(_LABELS, min_size=count, max_size=count))
    seen = set()
    records = []
    for var, label in enumerate(labels):
        record = {"id": var, "domain": "b", "kind": draw(st.sampled_from(["orig", "aux"]))}
        if label is not None and label not in seen:
            seen.add(label)
            record["label"] = label
        records.append(record)
    for var in range(count, count + draw(st.integers(0, 2))):
        records.append({"id": var, "domain": draw(st.sampled_from("zt")), "kind": "orig"})
    registry = polynomial_from_json(json.dumps({"vars": records, "terms": []})).registry
    monomials = [()] + [((v, 1),) for v in range(count)] + [
        ((i, 1), (j, 1)) for i in range(count) for j in range(i + 1, count)
    ]
    chosen = draw(st.lists(st.sampled_from(monomials), unique=True, max_size=40))
    terms = {mono: draw(_COEFFICIENTS) for mono in chosen}
    aux_map = draw(
        st.one_of(
            st.none(),
            st.dictionaries(st.integers(0, max(count - 1, 0)), st.text(max_size=12), max_size=8),
        )
    )
    guarantee = draw(st.one_of(st.none(), st.sampled_from(["", "pointwise-min"]), st.text()))
    return Polynomial(registry, terms), aux_map, guarantee


@settings(max_examples=150, deadline=None)
@given(_qubo_inputs())
def test_writer_matches_reference_encoder(inputs):
    p, aux_map, guarantee = inputs
    assert qubo_to_json(p, aux_map, guarantee) == _reference_qubo_to_json(p, aux_map, guarantee)


def _registry(count: int) -> VariableRegistry:
    registry = VariableRegistry()
    for var in range(count):
        registry.add_variable(Domain.BOOLEAN, f"b{var + 1}")
    return registry


@pytest.mark.parametrize(
    "terms",
    [
        {},
        {(): Fraction(7, 3)},
        {((0, 1),): 1},
        {((0, 1), (1, 1)): -2},
        # ids past 10: "10" sorts before "2", and "1,10" before "1,2"
        {((v, 1),): v - 6 for v in range(13)}
        | {((1, 1), (j, 1)): Fraction(j, 3) for j in range(2, 13)}
        | {((i, 1), (12, 1)): -i for i in range(12)},
        {(): Fraction(10**30 + 1, 3 * 10**29), ((11, 1),): Fraction(-(10**31), 7)},
    ],
    ids=["zero", "constant", "one-linear", "one-quadratic", "past-ten", "wide"],
)
@pytest.mark.parametrize("aux_map", [None, {}, {12: 'g(b1) "x"'}, {2: "a", 10: "b", 1: "c"}])
def test_writer_edge_cases(terms, aux_map):
    p = Polynomial(_registry(13), terms)
    assert qubo_to_json(p, aux_map, "pointwise-min") == _reference_qubo_to_json(
        p, aux_map, "pointwise-min"
    )


def test_writer_on_quadratized_output():
    result = quadratize(parse_polynomial("b1 b2 b3 b4 b5 - 2 b3 b4 b5 b11 + b2 b10 b12"))
    args = (result.output, result.aux_map, result.guarantee)
    assert qubo_to_json(*args) == _reference_qubo_to_json(*args)


def _route_large_objective(seed: int = 1, n_vars: int = 60, n_terms: int = 1000):
    """A seeded {0,1} objective shaped like the benchmark's largest route
    instance: degrees 1-5 equally often, coefficients +-1..4 over 1 or 2."""
    rng = random.Random(seed)
    registry = _registry(n_vars)
    terms = []
    for index in range(n_terms):
        vars = sorted(rng.sample(range(n_vars), 1 + index % 5))
        sign = 1 if (index // 5) % 2 else -1
        coeff = Fraction(sign * rng.randint(1, 4), rng.choice((1, 2)))
        terms.append((tuple((v, 1) for v in vars), coeff))
    return Polynomial(registry, terms)


def test_writer_memory_bound():
    """The indent encoder held about 2.5 MB of chunks for this 0.2 MB text.
    The writer keeps one member's lines at a time (about 0.4 MB of peak on
    CPython 3.11); holding every member's lines until the end takes 0.8 MB."""
    result = quadratize(_route_large_objective())
    assert len(result.output.terms) > 4000
    tracemalloc.start()
    try:
        text = qubo_to_json(result.output, result.aux_map, result.guarantee)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(text) > 150_000
    assert peak < 0.6 * 1024 * 1024


def test_parse_and_route_memory_bound():
    """Parse and route hold one copy of each thing.  A list of every token
    took parsing this text to about 0.73 MB of peak; scanning twice takes it
    to about 0.28 MB (CPython 3.11).  Routing held every input term in a
    list and rebuilt its output as a second dict, 0.31-0.36 MB above its
    input plus its result; sharing coefficients in place leaves about 0.12.
    A full garbage collection inside the window clears CPython's free lists,
    which lowers `retained` by about 0.16 MB; whether one runs depends on
    what earlier tests allocated, so the collector is off while tracing."""
    text = format_polynomial(_route_large_objective())
    gc.disable()
    tracemalloc.start()
    try:
        parsed = parse_polynomial(text)
        _, parse_peak = tracemalloc.get_traced_memory()
        del parsed
        objective = _route_large_objective()
        tracemalloc.reset_peak()
        result = quadratize(objective)
        # what stays is the input and the result, registry growth included
        retained, route_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    assert len(result.output.terms) > 4000
    assert parse_peak < 0.5 * 1024 * 1024
    assert route_peak - retained < 0.2 * 1024 * 1024


# -- partner links: the {0,1} twins of a spin objective ----------------------------


@pytest.mark.parametrize("text", ["z1 z2 z3", "- z1 z2 z3", SPIN_INSTANCE])
def test_spin_output_round_trips_with_partners(text):
    original = parse_polynomial(text)
    result = quadratize(original)
    exported = qubo_to_json(result.output, result.aux_map, result.guarantee)
    var_map = json.loads(exported)["var_map"]
    registry = result.output.registry
    for var in original.variables():
        twin = registry.entry(var).partner
        assert var_map[str(var)]["partner"] == twin
        assert var_map[str(twin)]["partner"] == var
    assert all("partner" not in var_map[str(aux)] for aux in result.aux)
    rebuilt, aux, _ = qubo_from_json(exported)
    assert rebuilt.terms == result.output.terms
    assert aux == list(result.aux)
    for var in registry:
        before, after = registry.entry(var), rebuilt.registry.entry(var)
        assert (after.domain, after.label, after.kind, after.partner) == (
            before.domain, before.label, before.kind, before.partner
        )
    # z = 2b - 1 maps onto the same twin ids in the rebuilt registry
    spin = parse_polynomial(text, rebuilt.registry)
    assert spin.to_boolean().terms == original.to_boolean().terms


def _spin_qubo() -> dict:
    result = quadratize(parse_polynomial("z1 z2 z3"))
    return json.loads(qubo_to_json(result.output, result.aux_map, result.guarantee))


@pytest.mark.parametrize(
    "partner",
    [None, True, "3", 99, -1, 0, 1, 6],
    ids=["null", "bool", "string", "unknown", "negative", "self", "taken", "one-way"],
)
def test_bad_partner_is_schema_error(partner):
    payload = _spin_qubo()
    payload["var_map"]["0"]["partner"] = partner
    with pytest.raises(SchemaError):
        qubo_from_json(json.dumps(payload))


def test_partners_of_one_domain_are_schema_error():
    payload = _spin_qubo()
    payload["var_map"]["0"]["partner"] = 1
    payload["var_map"]["1"]["partner"] = 0
    with pytest.raises(SchemaError, match="partner"):
        qubo_from_json(json.dumps(payload))


def test_term_over_spin_variable_is_schema_error():
    payload = _spin_qubo()
    payload["linear"]["0"] = "1"
    with pytest.raises(SchemaError, match=r"\{0,1\}"):
        qubo_from_json(json.dumps(payload))
