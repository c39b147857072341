"""End-to-end quadratization: routing, termination, soundness, costs."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadratizer.errors import (
    InvalidParameter,
    NoApplicableGadget,
    UnknownGadget,
    VerificationFailed,
)
from quadratizer import pipeline
from quadratizer.gadgets.base import GadgetResult, Guarantee
from quadratizer.pipeline import (
    Strategy,
    compare_strategies,
    flip_to_submodular,
    quadratize,
)
from quadratizer.poly import Domain, Polynomial, VariableRegistry
from quadratizer.rewrites import solve_by_splitting
from quadratizer.textio import parse_polynomial
from quadratizer.verify import enumerate_min

from conftest import SPIN_INSTANCE, all_assignments, naive_value


def test_quadratize_worked_cubic(cubic_objective):
    result = quadratize(cubic_objective, Strategy(verify_after=True))
    assert result.output.degree() <= 2
    assert result.report.passed
    minimum, minimizers = enumerate_min(result.output)
    assert minimum == -2
    projections = {
        tuple(m[v] for v in cubic_objective.variables()) for m in minimizers
    }
    assert projections == {(1, 1, 1, 0)}
    assert result.guarantee == Guarantee.POINTWISE_MIN
    assert set(result.aux) == set(result.aux_map)
    assert len(result.aux) == 1  # one negative cubic, single-aux reduction


def test_quadratize_already_quadratic(quadratic_objective):
    result = quadratize(quadratic_objective)
    assert result.output == quadratic_objective
    assert result.aux == ()
    assert result.cost.aux_count == 0


def test_quadratize_rosenberg_route():
    p = parse_polynomial("b1 b2 b3 + b1 b2 b4")
    result = quadratize(p, Strategy(multi_term="rosenberg", verify_after=True))
    assert result.report.passed
    # the substitution shape: pair (b1, b2) replaced by one auxiliary, with
    # the auto penalty 3 on the consistency terms
    ba = result.aux[0]
    expected = parse_polynomial(
        "b3 b5 + b4 b5 + 3 b1 b2 - 6 b1 b5 - 6 b2 b5 + 9 b5", p.registry
    )
    assert result.output == expected
    assert ba == p.registry.by_label("a1")


def test_quadratize_fgbz_route_two_stage_chain():
    p = parse_polynomial("b1 b2 b3 + b1 b2 b4")
    result = quadratize(p, Strategy(multi_term="fgbz", verify_after=True))
    assert result.report.passed
    assert result.output.degree() <= 2
    assert len(result.aux) == 2  # one positive cover + one shared negative


def test_quadratize_mixed_signs_default():
    p = parse_polynomial("2 b1 b2 b3 b4 - 3 b2 b3 b4 + b1 b2 - 1")
    result = quadratize(p, Strategy(verify_after=True))
    assert result.report.passed
    assert result.guarantee == Guarantee.POINTWISE_MIN
    # quartic: floor(3/2) = 1 aux; cubic: 1 aux
    assert result.cost.aux_count == 2


def test_quadratize_odd_split_route():
    p = parse_polynomial("b1 b2 b3")
    result = quadratize(p, Strategy(odd_split=True, verify_after=True))
    assert result.report.passed
    # head b1 b2 stays, tail uses one auxiliary: the asymmetric positive form
    assert result.cost.aux_count == 1
    expected = parse_polynomial("b1 b2 + b4 - b1 b4 - b2 b4 + b3 b4", p.registry)
    assert result.output == expected


def test_quadratize_odd_split_degree_five():
    p = parse_polynomial("b1 b2 b3 b4 b5")
    result = quadratize(p, Strategy(odd_split=True, verify_after=True))
    assert result.report.passed
    # even head (degree 4) via the symmetric reduction: 1 aux; tail: 1 aux
    assert result.cost.aux_count == 2


def test_quadratize_spin_route():
    registry = VariableRegistry()
    zs = [registry.add_variable(Domain.SPIN, f"z{i+1}") for i in range(3)]
    p = Polynomial.product(registry, zs, Fraction(-2))
    strategy = Strategy(negative_route=("ntr_rbl",), verify_after=True)
    result = quadratize(p, strategy)
    assert result.guarantee == Guarantee.GROUND_STATE
    assert result.report.passed
    assert result.report.mode == "groundstate"


@pytest.mark.parametrize("multi_term", [None, "rosenberg", "fgbz"])
@pytest.mark.parametrize(
    "text", ["z1 z2 z3", "- z1 z2 z3", SPIN_INSTANCE], ids=["positive", "negative", "mixed"]
)
def test_quadratize_spin_objective_through_boolean_twins(text, multi_term):
    p = parse_polynomial(text)
    registry = p.registry
    result = quadratize(p, Strategy(multi_term=multi_term, verify_after=True))
    assert result.report.passed
    assert result.guarantee == Guarantee.POINTWISE_MIN
    assert all(registry.domain(v) is Domain.BOOLEAN for v in result.output.variables())
    twins = {z: registry.entry(z).partner for z in p.variables()}
    assert {registry.label(b) for b in twins.values()} == {
        "b" + registry.label(z)[1:] for z in twins
    }
    # Independent check: min over the auxiliaries at b = (1 + z) / 2 is p(z).
    aux = sorted(result.aux)
    aux_values = [registry.domain(a).values for a in aux]
    for z in all_assignments(p):
        b = {twins[v]: (1 + value) // 2 for v, value in z.items()}
        lowest = min(
            naive_value(result.output, {**b, **dict(zip(aux, combo))})
            for combo in itertools.product(*aux_values)
        )
        assert lowest == naive_value(p, z)


def test_quadratize_past_old_iteration_guard():
    # More than 10,000 high-degree terms once tripped a non-termination guard.
    registry = VariableRegistry()
    bs = [registry.add_variable(Domain.BOOLEAN) for _ in range(45)]
    cubics = itertools.islice(itertools.combinations(bs, 3), 10_001)
    p = Polynomial(registry, {tuple((v, 1) for v in c): Fraction(-1) for c in cubics})
    result = quadratize(p)
    assert result.output.degree() == 2
    assert len(result.aux) == 10_001


def test_quadratize_rejects_non_quadratic_gadget_output(monkeypatch, cubic_objective):
    def cubic_output(name, coeff, mono, registry, max_states):
        return GadgetResult(Polynomial(registry, {mono: coeff}), (), Guarantee.POINTWISE_MIN, "")

    monkeypatch.setattr(pipeline, "apply_gadget", cubic_output)
    with pytest.raises(RuntimeError, match="not quadratic"):
        quadratize(cubic_objective)


def test_quadratize_no_route_for_positive_spin():
    # Spin cubics now route through their {0,1} twins; ternary ones have no gadget.
    registry = VariableRegistry()
    ts = [registry.add_variable(Domain.TERNARY) for _ in range(3)]
    p = Polynomial.product(registry, ts, Fraction(1))
    with pytest.raises(NoApplicableGadget):
        quadratize(p)


def test_quadratize_no_route_for_mixed_domains():
    registry = VariableRegistry()
    b = registry.add_variable(Domain.BOOLEAN)
    z1 = registry.add_variable(Domain.SPIN)
    z2 = registry.add_variable(Domain.SPIN)
    p = Polynomial.product(registry, [b, z1, z2])
    with pytest.raises(NoApplicableGadget):
        quadratize(p)


def test_strategy_validation():
    registry = VariableRegistry()
    p = Polynomial.zero(registry)
    with pytest.raises(UnknownGadget):
        quadratize(p, Strategy(positive_route=("ptr_nonsense",)))
    with pytest.raises(InvalidParameter):
        quadratize(p, Strategy(positive_route=("ptr_bcr2",)))  # experimental
    with pytest.raises(InvalidParameter):
        quadratize(p, Strategy(multi_term="bogus"))


def test_experimental_route_gate():
    # a passing experimental gadget may be routed explicitly...
    p = parse_polynomial("b1 b2 b3 b4")
    strategy = Strategy(positive_route=("ptr_bcr2",), allow_experimental=True, verify_after=True)
    result = quadratize(p, strategy)
    assert result.report.passed
    # ...while a failing one raises with the counterexample report attached
    registry = VariableRegistry()
    zs = [registry.add_variable(Domain.SPIN) for _ in range(3)]
    q = Polynomial.product(registry, zs, Fraction(1))
    failing = Strategy(positive_route=("ptr_rbl_3to2",), allow_experimental=True)
    with pytest.raises(VerificationFailed) as excinfo:
        quadratize(q, failing)
    assert excinfo.value.report is not None


def test_quadratize_idempotent(cubic_objective):
    once = quadratize(cubic_objective)
    twice = quadratize(once.output)
    assert twice.output == once.output
    assert twice.aux == ()


def test_quadratize_deterministic(cubic_objective):
    a = quadratize(parse_polynomial("b1 b2 b3 b4 - 2 b2 b3 b4 + b1"))
    b = quadratize(parse_polynomial("b1 b2 b3 b4 - 2 b2 b3 b4 + b1"))
    assert a.output.terms == b.output.terms
    assert a.aux_map == b.aux_map


def _random_instance(rng, max_vars=7, max_degree=5):
    registry = VariableRegistry()
    n = rng.randint(4, max_vars)
    ids = [registry.add_variable(Domain.BOOLEAN, f"b{i+1}") for i in range(n)]
    terms = {}
    for _ in range(rng.randint(2, 6)):
        size = rng.randint(1, min(max_degree, n))
        subset = tuple(sorted(rng.sample(ids, size)))
        mono = tuple((v, 1) for v in subset)
        numerator = rng.choice([-4, -3, -2, -1, 1, 2, 3, 4, 7])
        denominator = rng.choice([1, 1, 1, 2])
        terms[mono] = terms.get(mono, Fraction(0)) + Fraction(numerator, denominator)
    return Polynomial(registry, {m: c for m, c in terms.items() if c})


def test_termination_bound_on_random_instances():
    rng = random.Random(3)
    for _ in range(25):
        p = _random_instance(rng)
        budget = sum(
            max(0, sum(e for _, e in mono) - 2) for mono in p.terms
        )
        result = quadratize(p)
        assert result.output.degree() <= 2
        # one auxiliary-allocating application per unit of degree excess is a
        # safe upper bound for the default single-term routes
        assert len(result.aux) <= max(budget, 1) * 2


def test_end_to_end_soundness_sample():
    rng = random.Random(5)
    checked = 0
    for _ in range(15):
        p = _random_instance(rng, max_vars=6, max_degree=4)
        result = quadratize(p, Strategy(verify_after=True))
        assert result.report.passed
        checked += 1
    assert checked == 15


def test_compare_strategies_rows():
    p = parse_polynomial("b1 b2 b3 b4 b5 + b1 b2 b3 - 2 b2 b3 b4")
    strategies = [
        Strategy(),
        Strategy(positive_route=("ptr_bcr4",)),
        Strategy(positive_route=("ptr_bg",)),
        Strategy(negative_route=("ntr_rbl",)),  # wrong domain: recorded, not raised
    ]
    rows = compare_strategies(p, strategies)
    assert [row.ok for row in rows] == [True, True, True, False]
    assert rows[3].error and "NoApplicableGadget" in rows[3].error
    # aux counts follow the descriptors: ishikawa 2+1+1, bcr4 route 2+1+1 yet
    # with different per-term shapes; the bg route pays k-2 per positive term
    assert rows[0].cost.aux_count == 4
    assert rows[1].cost.aux_count == 4
    assert rows[2].cost.aux_count == 5
    # all-negative instance: the single-aux negative route stays submodular
    q = parse_polynomial("- b1 b2 b3 b4 - b2 b3 b4")
    negative_rows = compare_strategies(q, [Strategy()])
    assert negative_rows[0].cost.non_submodular == 0


def test_compare_strategies_empty_polynomial():
    registry = VariableRegistry()
    rows = compare_strategies(Polynomial.zero(registry), [Strategy(), Strategy()])
    assert all(row.ok for row in rows)
    assert all(row.cost.aux_count == 0 and row.cost.term_count == 0 for row in rows)


def test_flip_post_pass_reduces_non_submodular():
    p = parse_polynomial("3 b1 b2 + b2 b3 + 2 b1 b4 - 4 b2 b4")
    flipped, mask = flip_to_submodular(p)
    assert flipped.quadratic_profile().non_submodular == 0
    assert mask  # at least one flip fired
    # value preservation under the mask
    for a in all_assignments(p):
        image = {v: (1 - x if v in mask else x) for v, x in a.items()}
        assert naive_value(flipped, image) == naive_value(p, a)


def test_groundstate_gadget_composition_is_oracle_checked():
    # A ground-state-only gadget reshapes its term's excited energies, so
    # embedding it in a larger objective can shift the sum's minimizers.
    # The pipeline must surface that through verify_after instead of
    # returning a silently wrong claim.
    registry = VariableRegistry()
    zs = [registry.add_variable(Domain.SPIN, f"z{i+1}") for i in range(3)]
    cubic = Polynomial.product(registry, zs, Fraction(-1))
    # strong ferromagnetic bias toward all-minus, which the gadget's lifted
    # excited states cannot represent faithfully
    context = (
        Polynomial.variable(registry, zs[0]).scale(2)
        + Polynomial.variable(registry, zs[1]).scale(2)
    )
    p = cubic + context
    strategy = Strategy(negative_route=("ntr_rbl",), verify_after=True)
    original_argmin = {
        tuple(sorted(a.items())) for a in enumerate_min(p)[1]
    }
    try:
        result = quadratize(p, strategy)
    except VerificationFailed as error:
        assert error.report is not None and not error.report.passed
    else:
        projected = {
            tuple(sorted((v, x) for v, x in a.items() if v in set(p.variables())))
            for a in enumerate_min(result.output)[1]
        }
        assert projected == original_argmin


def test_guarantee_weakest_merge():
    registry = VariableRegistry()
    zs = [registry.add_variable(Domain.SPIN, f"z{i+1}") for i in range(3)]
    bs = [registry.add_variable(Domain.BOOLEAN, f"b{i+1}") for i in range(3)]
    p = Polynomial.product(registry, zs, Fraction(-1)) + Polynomial.product(
        registry, bs, Fraction(-1)
    )
    strategy = Strategy(negative_route=("ntr_kzfd", "ntr_rbl"), verify_after=False)
    result = quadratize(p, strategy)
    assert result.guarantee == Guarantee.GROUND_STATE  # weakest of the two fired


def _seeded_boolean(seed):
    rng = random.Random(seed)
    registry = VariableRegistry()
    bs = [registry.add_variable(Domain.BOOLEAN) for _ in range(rng.randint(3, 7))]
    # few variables and coefficients, so gadget outputs often cancel input terms
    terms = [
        (
            tuple((v, 1) for v in sorted(rng.sample(bs, rng.randint(1, min(4, len(bs)))))),
            Fraction(rng.choice((-2, -1, 1, 2))),
        )
        for _ in range(rng.randint(1, 16))
    ]
    return Polynomial(registry, terms)


def _rebuilt_unchanged(p):
    return list(p.terms.items()) == list(Polynomial(p.registry, p.terms).terms.items())


@given(st.integers(0, 2**32 - 1), st.sampled_from([None, "rosenberg", "fgbz"]))
@settings(max_examples=60, deadline=None)
def test_accumulated_outputs_are_canonical(seed, multi_term):
    """quadratize and split reduction keep their accumulated terms as they
    are, so rebuilding them through the constructor must change nothing."""
    result = quadratize(_seeded_boolean(seed), Strategy(multi_term=multi_term))
    assert _rebuilt_unchanged(result.output)
    for q in solve_by_splitting(_seeded_boolean(seed)).subproblems:
        assert _rebuilt_unchanged(q)
