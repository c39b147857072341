"""Core polynomial algebra: canonical forms, ring laws, conversions."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadratizer.errors import (
    DomainViolation,
    MissingVariable,
    NotQuadratic,
    RegistryMismatch,
)
from quadratizer.poly import Domain, Polynomial, VariableRegistry
from quadratizer.textio import parse_polynomial

from conftest import all_assignments, naive_value


def _registry(spec: str):
    """spec like 'bbzt' -> registry with those domains, returns (reg, ids)."""
    registry = VariableRegistry()
    ids = [registry.add_variable(Domain.from_tag(tag)) for tag in spec]
    return registry, ids


def test_boolean_idempotence():
    registry, (b,) = _registry("b")
    v = Polynomial.variable(registry, b)
    assert v * v == v


def test_spin_involution():
    registry, (z,) = _registry("z")
    v = Polynomial.variable(registry, z)
    assert v * v == Polynomial.constant(registry, 1)


def test_ternary_cube_reduces():
    registry, (t,) = _registry("t")
    v = Polynomial.variable(registry, t)
    assert v * v * v == v
    assert (v * v) * (v * v) == v * v


def test_canonicalization_idempotent():
    registry, ids = _registry("bbt")
    p = Polynomial(registry, {((ids[0], 3), (ids[2], 5)): Fraction(2)})
    again = Polynomial(registry, p.terms)
    assert again == p
    assert p.terms == {((ids[0], 1), (ids[2], 1)): Fraction(2)}


def test_zero_coefficients_dropped():
    registry, ids = _registry("bb")
    p = Polynomial(registry, {((ids[0], 1),): Fraction(1), ((ids[1], 1),): Fraction(0)})
    assert len(p) == 1


def test_penalty_product_expansion():
    # 4*b1*(1-b2)*(1-b3) = 4b1 - 4b1b2 - 4b1b3 + 4b1b2b3
    registry, (b1, b2, b3) = _registry("bbb")
    one = Polynomial.constant(registry, 1)
    v1, v2, v3 = (Polynomial.variable(registry, v) for v in (b1, b2, b3))
    expanded = 4 * v1 * (one - v2) * (one - v3)
    assert expanded == parse_polynomial("4 b1 - 4 b1 b2 - 4 b1 b3 + 4 b1 b2 b3")


def test_registry_mismatch_rejected():
    registry_a, (a,) = _registry("b")
    registry_b, (b,) = _registry("b")
    with pytest.raises(RegistryMismatch):
        Polynomial.variable(registry_a, a) + Polynomial.variable(registry_b, b)


def test_evaluate_worked_cubic(cubic_objective):
    values = {0: 1, 1: 1, 2: 1, 3: 0}
    assert cubic_objective.evaluate(values) == -2


def test_evaluate_constant_everywhere():
    registry, _ = _registry("bb")
    seven = Polynomial.constant(registry, 7)
    assert seven.evaluate({}) == 7
    assert seven.evaluate({0: 1, 1: 0}) == 7


def test_evaluate_quadratic_min_by_enumeration(quadratic_objective):
    values = [
        naive_value(quadratic_objective, a) for a in all_assignments(quadratic_objective)
    ]
    assert min(values) == -2
    winners = [
        a
        for a in all_assignments(quadratic_objective)
        if naive_value(quadratic_objective, a) == -2
    ]
    assert winners == [{0: 1, 1: 1, 2: 1, 3: 0}]


def test_evaluate_errors():
    registry, (b, z) = _registry("bz")
    p = Polynomial.variable(registry, b) * Polynomial.variable(registry, z)
    with pytest.raises(MissingVariable):
        p.evaluate({b: 1})
    with pytest.raises(DomainViolation):
        p.evaluate({b: -1, z: 1})


@st.composite
def small_boolean_polys(draw):
    registry = VariableRegistry()
    ids = [registry.add_variable(Domain.BOOLEAN) for _ in range(3)]
    n_terms = draw(st.integers(0, 4))
    terms = []
    for _ in range(n_terms):
        subset = draw(st.sets(st.sampled_from(ids), max_size=3))
        coeff = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
        terms.append((tuple((v, 1) for v in sorted(subset)), coeff))
    return Polynomial(registry, terms), Polynomial(
        registry, [(m, Fraction(draw(st.integers(-3, 3)))) for m, _ in terms]
    )


@given(small_boolean_polys())
@settings(max_examples=60, deadline=None)
def test_evaluate_is_ring_homomorphism(pair):
    p, q = pair
    for a in all_assignments(p, vars=p.registry):
        assert (p + q).evaluate(a) == p.evaluate(a) + q.evaluate(a)
        assert (p * q).evaluate(a) == p.evaluate(a) * q.evaluate(a)
        assert p.scale(Fraction(3, 2)).evaluate(a) == Fraction(3, 2) * p.evaluate(a)


def test_substitute_bit_flip_example():
    # Flipping b2 and b4 in 3b1b2 + b2b3 + 2b1b4 - 4b2b4 makes every
    # quadratic coefficient negative.  (The -4 carries onto the flipped
    # pair term; value-preservation pins it.)
    p = parse_polynomial("3 b1 b2 + b2 b3 + 2 b1 b4 - 4 b2 b4")
    registry = p.registry
    b2, b4 = 1, 3
    flipped, mask = p.flip([b2, b4])
    assert mask == frozenset({b2, b4})
    expected = parse_polynomial(
        "- 3 b1 b2 - b2 b3 - 2 b1 b4 - 4 b2 b4 + 5 b1 + b3 + 4 b2 + 4 b4 - 4"
    )
    assert flipped.terms == expected.terms
    # value preservation under the induced assignment map
    for a in all_assignments(p):
        image = dict(a)
        image[b2] = 1 - image[b2]
        image[b4] = 1 - image[b4]
        assert naive_value(flipped, image) == naive_value(p, a)
    assert flipped.quadratic_profile().non_submodular == 0


def test_flip_is_involution(cubic_objective):
    twice, _ = cubic_objective.flip([0, 2])[0].flip([0, 2])
    assert twice == cubic_objective


def test_flip_rejects_non_boolean():
    registry, (z,) = _registry("z")
    with pytest.raises(DomainViolation):
        Polynomial.variable(registry, z).flip([z])


def test_substitute_identity(cubic_objective):
    v = Polynomial.variable(cubic_objective.registry, 0)
    assert cubic_objective.substitute(0, v) == cubic_objective


def test_substitute_zero_kills_terms(cubic_objective):
    # b1 -> 0 in the worked cubic leaves b2b3 + b3b4
    reduced = cubic_objective.substitute(0, 0)
    assert reduced == parse_polynomial("b2 b3 + b3 b4", cubic_objective.registry)
    for a in all_assignments(reduced, vars=[1, 2, 3]):
        assert naive_value(reduced, a) == naive_value(cubic_objective, {**a, 0: 0})


@pytest.mark.parametrize("replacement", [0.5, "x", None, [1]])
def test_substitute_rejects_inexact_replacements(cubic_objective, replacement):
    with pytest.raises(TypeError, match="coefficients must be exact rationals"):
        cubic_objective.substitute(0, replacement)


def test_substitute_degree_never_grows_with_linear_replacement(cubic_objective):
    registry = cubic_objective.registry
    replacement = 1 - Polynomial.variable(registry, 3)
    assert cubic_objective.substitute(1, replacement).degree() <= cubic_objective.degree()


def test_spin_product_expansion_matches_printed_quartic():
    registry = VariableRegistry()
    zs = [registry.add_variable(Domain.SPIN, f"z{i + 1}") for i in range(4)]
    product = Polynomial.product(registry, zs, Fraction(-1))
    expanded = product.to_boolean()
    # the {0,1} twins inherit labels b1..b4, so the printed form parses into
    # the same registry
    expected = parse_polynomial(
        "- 16 b1 b2 b3 b4"
        " + 8 b1 b2 b3 + 8 b1 b2 b4 + 8 b1 b3 b4 + 8 b2 b3 b4"
        " - 4 b1 b2 - 4 b1 b3 - 4 b1 b4 - 4 b2 b3 - 4 b2 b4 - 4 b3 b4"
        " + 2 b1 + 2 b2 + 2 b3 + 2 b4 - 1",
        registry,
    )
    assert expanded.terms == expected.terms


def test_to_spin_of_constant():
    registry, _ = _registry("b")
    c = Polynomial.constant(registry, Fraction(5, 3))
    assert c.to_spin() == c


def test_spin_boolean_round_trip(cubic_objective):
    assert cubic_objective.to_spin().to_boolean() == cubic_objective


def test_round_trip_preserves_values(cubic_objective):
    spin = cubic_objective.to_spin()
    registry = cubic_objective.registry
    twins = {v: registry.entry(v).partner for v in cubic_objective.variables()}
    for a in all_assignments(cubic_objective):
        image = {twins[v]: 2 * value - 1 for v, value in a.items()}
        assert naive_value(spin, image) == naive_value(cubic_objective, a)


def test_to_spin_rejects_ternary():
    registry, (t,) = _registry("t")
    with pytest.raises(DomainViolation):
        Polynomial.variable(registry, t).to_spin()


def test_degree():
    registry, ids = _registry("bbt")
    p = Polynomial(registry, {((ids[0], 1), (ids[2], 2)): Fraction(1)})
    assert p.degree() == 3
    assert Polynomial.zero(registry).degree() == 0


def test_submodularity_report_on_quadratic(quadratic_objective):
    profile = quadratic_objective.quadratic_profile()
    assert profile.non_submodular == 2  # b2b3 and b3b4 stay positive
    assert profile.quadratic_terms == 4
    assert profile.max_abs_coefficient == 4


def test_submodularity_all_negative():
    p = parse_polynomial("- b1 b2 - 3 b2 b3")
    assert p.quadratic_profile().non_submodular == 0


def test_submodularity_requires_quadratic(cubic_objective):
    with pytest.raises(NotQuadratic):
        cubic_objective.quadratic_profile()


def test_submodularity_requires_boolean():
    registry, (z1, z2) = _registry("zz")
    p = Polynomial.product(registry, [z1, z2])
    with pytest.raises(DomainViolation):
        p.quadratic_profile()


# -- shared factors and coefficients ---------------------------------------------


def test_polynomials_over_one_registry_share_factor_tuples():
    registry, (b1, b2, b3, t4) = _registry("bbbt")
    parsed = Polynomial(registry, [(((b1, 1), (b2, 3)), 2), (((t4, 4),), 1)])
    product = Polynomial.variable(registry, b2) * Polynomial.product(registry, [b1, b3])
    substituted = parsed.substitute(b3, Polynomial.variable(registry, b1))
    factors = {}
    for p in (parsed, product, substituted, parsed + product, -product):
        for mono in p.terms:
            for factor in mono:
                assert factors.setdefault(factor, factor) is factor
    assert set(factors) == {(b1, 1), (b2, 1), (b3, 1), (t4, 2)}


def test_equal_coefficients_are_one_object():
    registry, (b1, b2, b3) = _registry("bbb")
    terms = {
        (): Fraction(10**30, 3),
        ((b1, 1),): Fraction(10**30, 3),
        ((b2, 1),): Fraction(3 * 10**30, 9),
        ((b1, 1), (b2, 1)): Fraction(-7, 2),
        ((b1, 1), (b3, 1)): Fraction(-14, 4),
        ((b3, 1),): 5,
        ((b2, 1), (b3, 1)): Fraction(5),
    }
    p = Polynomial(registry, [(mono, Fraction(c)) for mono, c in terms.items()])
    assert p.terms[()] is p.terms[((b1, 1),)] is p.terms[((b2, 1),)]
    assert p.terms[((b1, 1), (b2, 1))] is p.terms[((b1, 1), (b3, 1))]
    assert p.terms[((b3, 1),)] is p.terms[((b2, 1), (b3, 1))]
    assert p.terms[()] is not p.terms[((b3, 1),)]
    # sharing is invisible to the dict, the canonical order and equality
    assert p.terms == terms
    assert list(p.terms) == list(terms)
    assert p.items() == sorted(terms.items(), key=lambda kv: (len(kv[0]), kv[0]))
    distinct = Polynomial.zero(registry)
    for mono, coeff in terms.items():
        distinct = distinct + Polynomial(registry, {mono: Fraction(coeff)})
    assert p == distinct
    assert p.evaluate({b1: 1, b2: 1, b3: 0}) == distinct.evaluate({b1: 1, b2: 1, b3: 0})
