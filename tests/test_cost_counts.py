"""The cost counts against reference counts written out term by term.

`cost_report`, `quadratic_profile` and `quadratizer analyze` read the
non-submodular count and the largest |coefficient| from `Polynomial`.  The
references below count each one in its caller's own loop, so a change to the
shared rule shows as a disagreement on mixed {0,1}/spin/ternary polynomials
and on routed outputs.
"""

import contextlib
import io
import json
from collections import Counter
from fractions import Fraction
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from quadratizer import cli
from quadratizer.errors import NotQuadratic, QuadratizerError
from quadratizer.gadgets.structured import ternary_to_binary
from quadratizer.pipeline import Strategy, quadratize
from quadratizer.poly import (
    Domain,
    Polynomial,
    QuadraticProfile,
    VariableRegistry,
    _require_boolean,
    format_fraction,
    monomial_degree,
)
from quadratizer.textio import parse_polynomial
from quadratizer.verify import CostReport, cost_report


def _ref_cost_report(transformed, aux):
    non_submodular = 0
    for mono, coeff in transformed.terms.items():
        if monomial_degree(mono) != 2 or coeff <= 0:
            continue
        if all(transformed.registry.domain(v) is Domain.BOOLEAN for v, _ in mono):
            non_submodular += 1
    return CostReport(
        aux_count=len(set(aux)),
        non_submodular=non_submodular,
        max_abs_coefficient=max((abs(c) for c in transformed.terms.values()), default=Fraction(0)),
        term_count=len(transformed.terms),
    )


def _ref_quadratic_profile(p):
    if p.degree() > 2:
        raise NotQuadratic("submodularity is defined for degree <= 2")
    _require_boolean(p.registry, p.variables(), "submodularity requires {0,1} variables")
    quadratics = [c for m, c in p.terms.items() if monomial_degree(m) == 2]
    return QuadraticProfile(
        non_submodular=sum(1 for c in quadratics if c > 0),
        quadratic_terms=len(quadratics),
        max_abs_coefficient=max((abs(c) for c in p.terms.values()), default=Fraction(0)),
    )


def _ref_analyze(p):
    payload = {"degree": p.degree(), "terms": len(p.terms), "variables": len(p.variables()),
               "term_degree_histogram": Counter(str(monomial_degree(m)) for m in p.terms),
               "max_abs_coefficient": format_fraction(max(map(abs, p.terms.values()), default=0))}
    if p.degree() <= 2 and all(p.registry.domain(v) is Domain.BOOLEAN for v in p.variables()):
        profile = _ref_quadratic_profile(p)
        payload["submodularity"] = {"non_submodular_quadratics": profile.non_submodular,
                                    "quadratic_terms": profile.quadratic_terms}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _outcome(call, p):
    try:
        return call(p)
    except QuadratizerError as error:
        return type(error), str(error)


def _analyze(p):
    """`quadratizer analyze` on p itself, not on a re-read copy of its text."""
    out = io.StringIO()
    with mock.patch.object(cli, "_load", lambda path: p), contextlib.redirect_stdout(out):
        assert cli.main(["analyze", "--in", "p.txt"]) == 0
    return out.getvalue()


def _assert_counts_agree(p, aux):
    assert cost_report(p, aux) == _ref_cost_report(p, aux)
    assert _outcome(Polynomial.quadratic_profile, p) == _outcome(_ref_quadratic_profile, p)
    assert _analyze(p) == _ref_analyze(p)


@st.composite
def mixed_polynomials(draw):
    """Degree <= 3 over up to five variables; a {0,1}-only alphabet comes up
    often, so the profile's counting branch runs as well as its refusals."""
    tags = draw(st.sampled_from(["b", "b", "bz", "bt", "bzt", "zt"]))
    registry = VariableRegistry()
    vars = [registry.add_variable(Domain.from_tag(draw(st.sampled_from(tags))))
            for _ in range(draw(st.integers(1, 5)))]
    mono = st.lists(st.tuples(st.sampled_from(vars), st.integers(1, 2)), max_size=3)
    coeff = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    terms = draw(st.lists(st.tuples(mono.filter(lambda m: sum(e for _, e in m) <= 3), coeff),
                          max_size=8))
    return Polynomial(registry, terms)


@given(mixed_polynomials(), st.lists(st.integers(0, 4), max_size=4))
@settings(max_examples=300, deadline=None)
def test_counts_agree_on_mixed_polynomials(p, aux):
    _assert_counts_agree(p, aux)


def test_counts_agree_on_the_zero_polynomial_and_a_ternary_square():
    registry = VariableRegistry()
    t, b = registry.add_variable(Domain.TERNARY), registry.add_variable(Domain.BOOLEAN)
    _assert_counts_agree(Polynomial.zero(registry), [])
    _assert_counts_agree(Polynomial(registry, [(((t, 2),), 3), (((b, 1),), -1)]), [t])


def _terms(draw, names, degrees, signs):
    """Grammar text of one to six terms over `names`, each of a degree drawn
    from `degrees`, with a sign drawn from `signs` and a magnitude 1..9."""
    return " ".join(
        f"{'-' if draw(st.sampled_from(signs)) < 0 else '+'} {draw(st.integers(1, 9))} "
        + " ".join(draw(st.permutations(names))[:draw(st.sampled_from(degrees))])
        for _ in range(draw(st.integers(1, 6)))
    )


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_counts_agree_on_routed_outputs(data):
    """Default routes on {0,1} objectives of degree <= 4, `ntr_rbl` on spin
    cubics (ternary auxiliaries) and `ternary_to_binary` (spin auxiliaries)."""
    kind = data.draw(st.sampled_from(["default", "ntr_rbl", "ternary"]))
    if kind == "default":
        names = ["b1", "b2", "b3", "b4", "b5"]
        p = parse_polynomial(_terms(data.draw, names, (1, 2, 3, 4), (-1, 1)))
        result = quadratize(p)
        output, aux = result.output, list(result.aux_map)
    elif kind == "ntr_rbl":
        names = ["z1", "z2", "z3", "z4"]
        cubics = _terms(data.draw, names, (3,), (-1,))
        p = parse_polynomial(f"{cubics} {_terms(data.draw, names, (1, 2), (-1, 1))}")
        result = quadratize(p, Strategy(negative_route=("ntr_rbl",)))
        output, aux = result.output, list(result.aux_map)
    else:
        names = ["t1", "t1^2", "b2", "t3"]
        p = parse_polynomial(_terms(data.draw, names, (1, 2), (-1, 1)) + " + t1")
        known = len(p.registry)
        output = ternary_to_binary(p, p.registry.by_label("t1"), data.draw(st.integers(1, 20)),
                                   verify=False)
        aux = list(range(known, len(p.registry)))
    _assert_counts_agree(output, aux)
