"""Shared-auxiliary reductions and the structural splits."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadratizer.errors import (
    CommonTooSmall,
    InvalidParameter,
    InvalidSplit,
    MixedSigns,
    NonPositivePenalty,
    PairAbsent,
)
from quadratizer.gadgets import (
    TermGroup,
    choose_rosenberg_pair,
    discover_fgbz_groups,
    fgbz_negative,
    fgbz_positive,
    ntr_kzfd,
    rosenberg_auto_penalty,
    rosenberg_pair,
    scm_split,
    sym_antisym_split,
)
from quadratizer.poly import Domain, Polynomial, VariableRegistry, monomial_degree, monomial_vars
from quadratizer.textio import parse_polynomial
from quadratizer.verify import check_pointwise

from conftest import all_assignments, naive_value, pointwise_holds


def test_rosenberg_worked_example_printed_form():
    # The book prints this rewrite at weight 1, below the bound |1| + |1| = 2,
    # so rosenberg_pair refuses that weight.  The printed form is pinned with
    # the oracle's counterexample: at b = (1, 1, 1, 1) the objective is 2, and
    # the printed form is 1 at b5 = 0.
    p = parse_polynomial("b1 b2 b3 + b1 b2 b4")
    with pytest.raises(InvalidParameter, match="below 2"):
        rosenberg_pair(p, 0, 1, penalty=1)
    printed = parse_polynomial(
        "b3 b5 + b4 b5 + b1 b2 - 2 b1 b5 - 2 b2 b5 + 3 b5", p.registry
    )
    report = check_pointwise(p, printed, [p.registry.by_label("b5")])
    assert not report.passed
    assert report.counterexample == {0: 1, 1: 1, 2: 1, 3: 1}


def test_rosenberg_auto_penalty_value():
    p = parse_polynomial("b1 b2 b3 + b1 b2 b4")
    assert rosenberg_auto_penalty(p, 0, 1) == 3  # 1 + |1| + |1|


def test_rosenberg_auto_is_pointwise_but_unit_is_not():
    p = parse_polynomial("b1 b2 b3 + b1 b2 b4")
    auto = rosenberg_pair(p, 0, 1, penalty="auto")
    assert check_pointwise(p, auto.output, auto.aux).passed
    p2 = parse_polynomial("b1 b2 b3 + b1 b2 b4")
    with pytest.raises(InvalidParameter):  # the unit weight is below the bound 2
        rosenberg_pair(p2, 0, 1, penalty=1)
    assert len(p2.registry) == 4  # refused before an auxiliary is allocated


def test_rosenberg_single_cubic_small_penalties():
    for penalty in (1, 2, 5):
        p = parse_polynomial("b1 b2 b3")
        result = rosenberg_pair(p, 0, 1, penalty=penalty)
        assert pointwise_holds(p, result.output, result.aux)


def test_rosenberg_pair_absent():
    p = parse_polynomial("b1 b2 + b3 b4")
    with pytest.raises(PairAbsent):
        rosenberg_pair(p, 0, 1)


def test_rosenberg_rejects_nonpositive_penalty():
    p = parse_polynomial("b1 b2 b3")
    with pytest.raises(NonPositivePenalty):
        rosenberg_pair(p, 0, 1, penalty=0)


def _pair_objective(seed):
    """b1 (id 0), b2 (id 1) and one to three variables of any domain; the
    first term holds b1 b2 and at least one other variable, perhaps squared."""
    rng = random.Random(seed)
    registry = VariableRegistry()
    b1, b2 = (registry.add_variable(Domain.BOOLEAN) for _ in range(2))
    others = [
        registry.add_variable(Domain.from_tag(rng.choice("bzt"))) for _ in range(rng.randint(1, 3))
    ]

    def coefficient():
        return Fraction(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)), rng.choice((1, 2)))

    head = tuple((v, rng.choice((1, 2))) for v in rng.sample(others, rng.randint(1, len(others))))
    terms = [(((b1, 1), (b2, 1)) + head, coefficient())]
    pool = [b1, b2, *others]
    for _ in range(rng.randint(0, 5)):
        vars = sorted(rng.sample(pool, rng.randint(0, min(4, len(pool)))))
        terms.append((tuple((v, rng.choice((1, 2))) for v in vars), coefficient()))
    return Polynomial(registry, terms)


@pytest.mark.seed_loop
@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_rosenberg_pair_is_pointwise_at_every_accepted_penalty(seed):
    """Every integer penalty from 1 to the automatic one, the bound itself and
    "auto": below the bound (sum of |c| over the terms holding the pair) the
    rewrite is refused, and at or above it the result passes check_pointwise."""
    p = _pair_objective(seed)
    if not any(monomial_degree(m) >= 3 and {0, 1} <= set(monomial_vars(m)) for m in p.terms):
        return  # a z^2 factor or a merge took the pair's cubic term away
    auto = rosenberg_auto_penalty(p, 0, 1)
    penalties = sorted({*range(1, math.ceil(auto) + 1), auto - 1})
    for penalty in [*penalties, "auto"]:
        p = _pair_objective(seed)
        if penalty != "auto" and penalty < auto - 1:
            with pytest.raises(InvalidParameter, match="below"):
                rosenberg_pair(p, 0, 1, penalty=penalty)
            continue
        result = rosenberg_pair(p, 0, 1, penalty=penalty)
        assert check_pointwise(p, result.output, result.aux).passed, (p.terms, penalty)


def test_rosenberg_degree_drops():
    p = parse_polynomial("b1 b2 b3 b4 b5")
    result = rosenberg_pair(p, 0, 1)
    assert result.output.degree() == p.degree() - 1


def test_choose_rosenberg_pair_heuristic():
    p = parse_polynomial("b1 b2 b3 + b1 b2 b4 + b2 b3 b4 + b1 b2")
    assert choose_rosenberg_pair(p) == (0, 1)  # most shared, lowest tie
    assert choose_rosenberg_pair(parse_polynomial("b1 b2")) is None


def test_fgbz_negative_worked_example():
    # -x1 b2 b3 - x1 b2 b4 with C = {x1, b2}: the shared-auxiliary rewrite
    p = parse_polynomial("- b1 b2 b3 - b1 b2 b4")
    registry = p.registry
    group = TermGroup(tuple(sorted(p.terms.items())), ((0, 1), (1, 1)))
    result = fgbz_negative(group, registry)
    expected = parse_polynomial(
        "4 b5 - 2 b1 b5 - 2 b2 b5 - b3 b5 - b4 b5", registry
    )
    assert result.output == expected
    assert check_pointwise(p, result.output, result.aux).passed


def test_fgbz_negative_single_cubic_matches_ntr_style():
    p = parse_polynomial("- b1 b2 b3")
    group = TermGroup(tuple(p.terms.items()), ((0, 1), (1, 1)))
    result = fgbz_negative(group, p.registry)
    registry2 = VariableRegistry()
    ids = [registry2.add_variable(Domain.BOOLEAN) for _ in range(3)]
    kzfd = ntr_kzfd(Fraction(-1), tuple((v, 1) for v in ids), registry2)
    assert result.output.terms == kzfd.output.terms
    assert pointwise_holds(p, result.output, result.aux)


def test_fgbz_negative_common_too_small():
    p = parse_polynomial("- b1 b2 b3")
    group = TermGroup(tuple(p.terms.items()), ((0, 1),))
    with pytest.raises(CommonTooSmall):
        fgbz_negative(group, p.registry)


def test_fgbz_negative_mixed_signs():
    p = parse_polynomial("b1 b2 b3 - b1 b2 b4")
    group = TermGroup(tuple(sorted(p.terms.items())), ((0, 1), (1, 1)))
    with pytest.raises(MixedSigns):
        fgbz_negative(group, p.registry)


def test_fgbz_positive_worked_example():
    p = parse_polynomial("b1 b2 b3 + b1 b2 b4")
    group = TermGroup(tuple(sorted(p.terms.items())), ((0, 1),))
    result = fgbz_positive(group, p.registry)
    expected = parse_polynomial(
        "2 b5 b1 + b2 b3 + b2 b4 - b5 b2 b3 - b5 b2 b4", p.registry
    )
    assert result.output == expected
    assert check_pointwise(p, result.output, result.aux).passed


def test_fgbz_positive_two_variable_term():
    p = parse_polynomial("3 b1 b2")
    group = TermGroup(tuple(p.terms.items()), ((0, 1),))
    result = fgbz_positive(group, p.registry)
    assert pointwise_holds(p, result.output, result.aux)


def test_fgbz_positive_degenerate_full_common():
    p = parse_polynomial("2 b1 b2 b3")
    group = TermGroup(tuple(p.terms.items()), ((0, 1), (1, 1), (2, 1)))
    result = fgbz_positive(group, p.registry)
    # H\C empty: the product over the empty set is 1
    assert pointwise_holds(p, result.output, result.aux)


def test_fgbz_positive_then_kzfd_cleanup_chain():
    # the documented two-stage chain ends fully quadratic and pointwise-exact
    p = parse_polynomial("b1 b2 b3 + b1 b2 b4")
    registry = p.registry
    group = TermGroup(tuple(sorted(p.terms.items())), ((0, 1),))
    stage_one = fgbz_positive(group, registry)
    negatives = {
        mono: coeff
        for mono, coeff in stage_one.output.terms.items()
        if coeff < 0 and sum(e for _, e in mono) >= 3
    }
    group_two = discover_fgbz_groups(stage_one.output, "negative")[0]
    assert dict(group_two.members) == negatives
    stage_two = fgbz_negative(group_two, registry)
    final = (
        stage_one.output
        - Polynomial(registry, dict(group_two.members))
        + stage_two.output
    )
    assert final.degree() <= 2
    aux = list(stage_one.aux) + list(stage_two.aux)
    assert check_pointwise(p, final, aux).passed
    expected_tail = parse_polynomial(
        "4 b6 - 2 b5 b6 - 2 b2 b6 - b3 b6 - b4 b6", registry
    )
    assert stage_two.output == expected_tail


def test_pairwise_cover_dispatch():
    p = parse_polynomial("- b1 b2 b3 - b1 b2 b4")
    group = TermGroup(tuple(sorted(p.terms.items())), ((0, 1), (1, 1)))
    result = fgbz_negative(group, p.registry)
    assert check_pointwise(p, result.output, result.aux).passed


def test_scm_split_cubic_identity():
    registry = VariableRegistry()
    ids = [registry.add_variable(Domain.BOOLEAN) for _ in range(3)]
    mono = tuple((v, 1) for v in ids)
    head, tail = scm_split(Fraction(1), mono, registry)
    assert head == Polynomial.product(registry, ids[:2])
    assert head + tail == Polynomial(registry, {mono: Fraction(1)})
    # tail is -b1 b2 (1 - b3) expanded
    one = Polynomial.constant(registry, 1)
    assert tail == -(
        Polynomial.product(registry, ids[:2])
        * (one - Polynomial.variable(registry, ids[2]))
    )


def test_scm_split_degree_one():
    registry = VariableRegistry()
    b = registry.add_variable(Domain.BOOLEAN)
    head, tail = scm_split(Fraction(1), ((b, 1),), registry)
    assert head == Polynomial.variable(registry, b)
    assert not tail


def test_scm_split_degree_five_resums():
    registry = VariableRegistry()
    ids = [registry.add_variable(Domain.BOOLEAN) for _ in range(5)]
    mono = tuple((v, 1) for v in ids)
    for split_at in (1, 2, 3, 4):
        head, tail = scm_split(Fraction(-7, 2), mono, registry, split_at=split_at)
        assert head + tail == Polynomial(registry, {mono: Fraction(-7, 2)})
    with pytest.raises(InvalidSplit):
        scm_split(Fraction(1), mono, registry, split_at=5)


def test_sym_antisym_pair_example():
    p = parse_polynomial("b1 b2")
    sym, anti = sym_antisym_split(p)
    registry = p.registry
    one = Polynomial.constant(registry, 1)
    b1 = Polynomial.variable(registry, 0)
    b2 = Polynomial.variable(registry, 1)
    assert sym == (b1 * b2 + (one - b1) * (one - b2)).scale(Fraction(1, 2))
    assert anti == (b1 * b2 - (one - b1) * (one - b2)).scale(Fraction(1, 2))
    assert sym + anti == p


def test_sym_antisym_constant():
    registry = VariableRegistry()
    registry.add_variable(Domain.BOOLEAN)
    c = Polynomial.constant(registry, Fraction(7, 3))
    sym, anti = sym_antisym_split(c)
    assert sym == c
    assert not anti


def test_sym_antisym_on_cubic_objective(cubic_objective):
    sym, anti = sym_antisym_split(cubic_objective)
    assert sym + anti == cubic_objective
    support = cubic_objective.variables()
    flipped_sym, _ = sym.flip(support)
    flipped_anti, _ = anti.flip(support)
    assert flipped_sym == sym
    assert flipped_anti == -anti
    for a in all_assignments(cubic_objective):
        assert naive_value(sym, a) + naive_value(anti, a) == naive_value(
            cubic_objective, a
        )


def test_term_group_rejects_no_members_and_a_common_dividing_no_member():
    with pytest.raises(InvalidParameter, match="at least one member"):
        TermGroup((), ((0, 1),))
    with pytest.raises(InvalidParameter, match="must divide every group member"):
        TermGroup(((((0, 1), (1, 1)), Fraction(-1)),), ((2, 1),))


def test_scm_split_rejects_a_non_multilinear_monomial():
    registry = VariableRegistry()
    b1, b2 = (registry.add_variable(Domain.BOOLEAN) for _ in range(2))
    with pytest.raises(InvalidParameter, match="expects a multilinear monomial"):
        scm_split(1, ((b1, 2), (b2, 1)), registry)
