"""Core polynomial algebra: canonical forms, ring laws, conversions."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadratizer.errors import (
    DomainViolation,
    InvalidParameter,
    MissingVariable,
    NotQuadratic,
    RegistryMismatch,
    UnknownVariable,
)
from quadratizer.poly import (
    Domain,
    Polynomial,
    VariableRegistry,
    _accumulate,
    _as_fraction,
    _require_boolean,
)
from quadratizer.gadgets.multi_term import rosenberg_pair
from quadratizer.rewrites import find_elcs, find_zero_deductions, solve_by_splitting
from quadratizer.textio import parse_polynomial, qubo_to_json

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


def test_negative_variable_ids_are_unknown():
    """Ids run 0..N-1: a negative id does not index the registry from its end."""
    registry, ids = _registry("bz")
    for var in (-1, -2, len(ids)):
        with pytest.raises(UnknownVariable, match=f"variable {var} not in registry"):
            registry.entry(var)
    with pytest.raises(UnknownVariable, match="variable -1 not in registry"):
        Polynomial.variable(registry, -1)


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


def test_a_zero_coefficient_still_checks_its_monomial():
    registry, _ = _registry("bb")
    with pytest.raises(UnknownVariable, match="variable 7 not in registry"):
        Polynomial(registry, {((7, 1),): 0})
    with pytest.raises(ValueError, match="negative exponents are not representable"):
        Polynomial(registry, {((0, -1),): 0})


def _skip_zero_constructor_terms(registry, terms):
    """The terms a constructor that skips zero coefficients unchecked builds."""
    probe = Polynomial(registry)
    canonical = {}
    for mono, coeff in terms:
        coeff = _as_fraction(coeff)
        if coeff:
            _accumulate(canonical, probe._canonical_monomial(mono), coeff)
    return list(canonical.items())


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_zero_coefficients_build_what_skipping_them_builds(data):
    """On valid monomials, summing a zero coefficient leaves the same terms in
    the same order as skipping it, through merges and cancellations."""
    registry, vars = _registry(data.draw(st.sampled_from(["bb", "bzt", "ttz", "bbbt"])))
    monos = st.lists(st.tuples(st.sampled_from(vars), st.integers(0, 3)), max_size=3)
    pool = data.draw(st.lists(monos, min_size=1, max_size=4))
    terms = data.draw(st.lists(st.tuples(st.sampled_from(pool), st.integers(-2, 2)), max_size=12))
    assert list(Polynomial(registry, terms).terms.items()) == _skip_zero_constructor_terms(
        registry, terms
    )


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
    # 1.0 == 1, but it would make the value a float
    for value in (1.0, Fraction(1), "1"):
        with pytest.raises(DomainViolation, match=f"^value {value} outside domain of variable {b}$"):
            p.evaluate({b: value, z: 1})
    assert type(p.evaluate({b: 1, z: 1})) is Fraction


@st.composite
def polys_with_assignments(draw):
    """A polynomial with up to 8 terms, exponents 1-3, over up to 5 {0,1}, spin
    and ternary variables, and an assignment that is valid on every variable,
    or, half the time, lacks some or gives them -2, 2 or 5.  Either way it
    also holds an unregistered id, which evaluate ignores."""
    registry = VariableRegistry()
    domains = draw(st.lists(st.sampled_from([Domain.BOOLEAN, Domain.SPIN, Domain.TERNARY]),
                            min_size=1, max_size=5))
    ids = [registry.add_variable(domain) for domain in domains]
    factor = st.tuples(st.sampled_from(ids), st.integers(1, 3))
    coeff = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
    terms = draw(st.lists(st.tuples(st.lists(factor, max_size=4).map(tuple), coeff), max_size=8))
    corrupt = draw(st.booleans())
    assignment = {99: 7}
    for var, domain in zip(ids, domains):
        value = draw(st.sampled_from(domain.values + ((None, -2, 2, 5) if corrupt else ())))
        if value is not None:
            assignment[var] = value
    return Polynomial(registry, terms), assignment


_ZERO_FACTOR = parse_polynomial("- 2 b1 b2 + 3 z3")  # b1 = 0 zeroes the first term


@example((_ZERO_FACTOR, {0: 0, 2: 1}))  # b2 missing
@example((_ZERO_FACTOR, {0: 0, 1: 5, 2: 1}))  # b2 = 5
@given(polys_with_assignments())
@settings(max_examples=300, deadline=None)
def test_evaluate_checks_each_used_variable_then_sums(case):
    """A valid assignment gives the naive value as a Fraction; otherwise the
    lowest used variable that is missing or outside its domain is reported,
    even where another factor of its term is 0."""
    p, assignment = case
    faults = [v for v in p.variables()
              if v not in assignment or not p.registry.domain(v).contains(assignment[v])]
    if not faults:
        value = p.evaluate(assignment)
        assert type(value) is Fraction and value == naive_value(p, assignment)
        return
    var = faults[0]
    error, message = MissingVariable, f"assignment lacks variable {var}"
    if var in assignment:
        error, message = DomainViolation, f"value {assignment[var]} outside domain of variable {var}"
    with pytest.raises(error) as raised:
        p.evaluate(assignment)
    assert str(raised.value) == message


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


@pytest.mark.seed_loop
@given(st.data())
@settings(max_examples=30, deadline=None)
def test_symmetric_takes_its_values_by_weight(data):
    """Polynomial.symmetric over up to 8 {0,1} variables in a random id order
    is values[weight] at every assignment (by the naive evaluator), and holds
    every subset of each degree d whose forward difference of the values at 0
    is nonzero, with that coefficient, and no other term."""
    registry = VariableRegistry()
    vars = data.draw(st.permutations(
        [registry.add_variable(Domain.BOOLEAN) for _ in range(data.draw(st.integers(0, 8)))]
    ))
    rational = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 6))
    if data.draw(st.booleans()):
        values = data.draw(st.lists(rational, min_size=len(vars) + 1, max_size=len(vars) + 1))
    else:  # a polynomial in the weight, so every degree above its own has alpha 0
        coeffs = data.draw(st.lists(rational, max_size=3))
        values = [sum(c * w**i for i, c in enumerate(coeffs)) for w in range(len(vars) + 1)]
    p = Polynomial.symmetric(registry, vars, values)

    for bits in itertools.product((0, 1), repeat=len(vars)):
        assert naive_value(p, dict(zip(vars, bits))) == values[sum(bits)]
    differences, alphas = list(values), []
    while differences:
        alphas.append(differences[0])
        differences = [b - a for a, b in zip(differences, differences[1:])]
    assert list(p.terms.items()) == [
        (tuple((v, 1) for v in subset), alpha)
        for d, alpha in enumerate(alphas) if alpha
        for subset in itertools.combinations(sorted(vars), d)
    ]
    assert Polynomial.symmetric(registry, vars, [0] * (len(vars) + 1)) == Polynomial.zero(registry)
    if vars:
        with pytest.raises(ValueError) as repeated:
            Polynomial.symmetric(registry, vars + vars[:1], values + [0])
        with pytest.raises(ValueError) as product:
            Polynomial.product(registry, vars + vars[:1])
        assert str(repeated.value) == str(product.value)


@pytest.mark.parametrize("values", [[0, 0], [0, 0, 1, 5]], ids=["one-short", "one-over"])
def test_symmetric_takes_one_value_per_weight(values):
    registry, vars = _registry("bb")
    with pytest.raises(InvalidParameter, match=f"2 variables take 3 values, got {len(values)}"):
        Polynomial.symmetric(registry, vars, values)


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
    # rosenberg_pair writes its rewritten terms without the constructor
    rosenberg = rosenberg_pair(product + parsed * product, b1, b2).output
    (ba,) = registry.auxiliaries()
    with_ba = Polynomial.product(registry, [b3, ba])
    factors = {}
    for p in (parsed, product, substituted, parsed + product, -product, rosenberg, with_ba):
        for mono in p.terms:
            for factor in mono:
                assert factors.setdefault(factor, factor) is factor
    assert set(factors) == {(b1, 1), (b2, 1), (b3, 1), (t4, 2), (ba, 1)}


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


def test_rosenberg_pair_output_shares_equal_coefficients():
    # 3 b1 b2 b3 - 2 b1 b2 + 5 b3 at penalty 5: p's 5 b3 and the penalty's
    # 5 b1 b2 are one object, as are the -10s of b1 ba and b2 ba; the
    # rewritten -2 b1 b2 merges into the penalty's 15 ba
    registry, (b1, b2, b3) = _registry("bbb")
    p = Polynomial.from_products(registry, [((b1, b2, b3), 3), ((b1, b2), -2), ((b3,), 5)])
    terms = rosenberg_pair(p, b1, b2, penalty=5).output.terms
    (ba,) = registry.auxiliaries()
    assert list(terms.items()) == [
        (((b3, 1), (ba, 1)), 3), (((ba, 1),), 13), (((b3, 1),), 5),
        (((b1, 1), (b2, 1)), 5), (((b1, 1), (ba, 1)), -10), (((b2, 1), (ba, 1)), -10),
    ]
    assert terms[((b3, 1),)] is terms[((b1, 1), (b2, 1))]
    assert terms[((b1, 1), (ba, 1))] is terms[((b2, 1), (ba, 1))]
    assert len({id(c) for c in terms.values()}) == 4


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda p: _require_boolean(p.registry, p.variables()), "variable 1 is not a {0,1} variable"),
        (lambda p: find_zero_deductions(p, 1), "deductions are defined over {0,1} variables"),
        (lambda p: find_elcs(p, p.variables()), "excludable configurations use {0,1} variables"),
        (solve_by_splitting, "split reduction is defined over {0,1} variables"),
        (Polynomial.quadratic_profile, "submodularity requires {0,1} variables"),
        (qubo_to_json, "QUBO export accepts only {0,1} variables; convert first"),
    ],
    ids=["default", "deductions", "elcs", "split", "profile", "qubo"],
)
def test_boolean_guards_keep_their_callers_messages(call, message):
    """One {0,1} guard, each caller's own message."""
    p = parse_polynomial("z1 b2 - b2")  # b2 is variable 0, z1 variable 1
    with pytest.raises(DomainViolation) as raised:
        call(p)
    assert str(raised.value) == message


def test_add_auxiliary_skips_a_label_an_original_variable_holds():
    registry = VariableRegistry()
    registry.add_variable(Domain.BOOLEAN, "a1")
    aux = registry.add_auxiliary(Domain.BOOLEAN, "sweep")
    assert registry.label(aux) == "a2"
    assert registry.label(registry.add_auxiliary(Domain.BOOLEAN, "sweep")) == "a3"


def test_to_spin_twins_an_auxiliary_with_an_auxiliary_of_its_gadget():
    registry, (b,) = _registry("b")
    aux = registry.add_auxiliary(Domain.BOOLEAN, "ptr_bg")
    spin = Polynomial.product(registry, [b, aux]).to_spin()
    twin = registry.entry(aux).partner
    assert twin in spin.variables() and registry.domain(twin) is Domain.SPIN
    assert registry.is_auxiliary(twin) and registry.gadget_of(twin) == "ptr_bg"
    assert not registry.is_auxiliary(registry.entry(b).partner)


def test_equality_needs_a_polynomial_and_the_same_domains():
    registry, (b,) = _registry("b")
    p = Polynomial.variable(registry, b)
    assert p.__eq__("b1") is NotImplemented and p != "b1"
    assert p != Polynomial.constant(registry, 1)
    other, (b_other,) = _registry("b")
    assert p == Polynomial.variable(other, b_other)
    spins, (z,) = _registry("z")
    assert p != Polynomial.variable(spins, z)  # the same terms over a spin


def test_str_and_repr_print_the_text_grammar():
    p = parse_polynomial("b1 b2 - 1/2 b3 + 3")
    assert str(p) == "3 - 1/2 b3 + b1 b2"
    assert repr(p) == "Polynomial('3 - 1/2 b3 + b1 b2')"
    assert str(Polynomial.zero(p.registry)) == "0"


@pytest.mark.parametrize("domain", [Domain.BOOLEAN, Domain.SPIN, Domain.TERNARY])
def test_canonical_exponent_at_zero_and_below(domain):
    assert domain.canonical_exponent(0) == 0
    with pytest.raises(ValueError, match="negative exponents are not representable"):
        domain.canonical_exponent(-1)


def test_registry_rejects_a_duplicate_label():
    registry = VariableRegistry()
    registry.add_variable(Domain.BOOLEAN, "x")
    with pytest.raises(ValueError, match="duplicate variable label 'x'"):
        registry.add_variable(Domain.SPIN, "x")
    assert len(registry) == 1
