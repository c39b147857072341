"""Rosenberg's pair, the FGBZ groups and split reduction's variable, picked
through one shared-subset index, against the pickers it replaced.

The `_ref_*` functions below are the earlier pickers, kept as they were:
`_ref_choose_rosenberg_pair` counts pairs, `_ref_discover_fgbz_groups` builds
its own common -> members map, and `_ref_most_connected_variable` counts
variables, each over the terms of degree >= 3 with ties to the lowest key.
The library must return exactly what they return.
"""

from fractions import Fraction
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadratizer.errors import InvalidParameter
from quadratizer.gadgets.multi_term import (
    TermGroup,
    choose_rosenberg_pair,
    discover_fgbz_groups,
)
from quadratizer.poly import (
    Domain,
    Monomial,
    Polynomial,
    VariableRegistry,
    monomial_degree,
    monomial_vars,
)
from quadratizer.rewrites import most_connected_variable
from quadratizer.textio import parse_polynomial


# ---------------------------------------------------------------------------
# Reference pickers


def _ref_choose_rosenberg_pair(p: Polynomial) -> Optional[tuple]:
    counts: dict[tuple, int] = {}
    for mono in p.terms:
        if monomial_degree(mono) < 3:
            continue
        vars = monomial_vars(mono)
        for a in range(len(vars)):
            for b in range(a + 1, len(vars)):
                pair = (vars[a], vars[b])
                counts[pair] = counts.get(pair, 0) + 1
    if not counts:
        return None
    return min(counts, key=lambda pair: (-counts[pair], pair))


def _ref_discover_fgbz_groups(p: Polynomial, sign: str) -> list[TermGroup]:
    wanted_negative = sign == "negative"
    candidates: dict[Monomial, list] = {}
    for mono, coeff in p.terms.items():
        if monomial_degree(mono) < 3:
            continue
        if (coeff < 0) != wanted_negative:
            continue
        vars = monomial_vars(mono)
        if wanted_negative:
            subsets = [
                (vars[a], vars[b])
                for a in range(len(vars))
                for b in range(a + 1, len(vars))
            ]
            keys = [((u, 1), (w, 1)) for u, w in subsets]
        else:
            keys = [((v, 1),) for v in vars]
        for key in keys:
            candidates.setdefault(key, []).append((mono, coeff))
    groups = [
        TermGroup(tuple(sorted(members)), common)
        for common, members in candidates.items()
        if len(members) >= 2
    ]
    groups.sort(key=lambda g: (-len(g.members), g.common))
    return groups


def _ref_most_connected_variable(p: Polynomial) -> Optional[int]:
    counts: dict[int, int] = {}
    for mono in p.terms:
        if monomial_degree(mono) < 3:
            continue
        for var, _ in mono:
            counts[var] = counts.get(var, 0) + 1
    if not counts:
        return None
    return min(counts, key=lambda v: (-counts[v], v))


# ---------------------------------------------------------------------------
# Random polynomials


@st.composite
def polynomials(draw):
    """A few variables of one domain and products over them.  Few variables
    and few distinct counts make ties common; `signs` gives one-sign inputs;
    a ternary product may repeat a variable, a square inside a degree >= 3
    term; `max_size` 2 gives an all-quadratic input."""
    domain = draw(st.sampled_from([Domain.BOOLEAN, Domain.SPIN, Domain.TERNARY]))
    registry = VariableRegistry()
    vars = [registry.add_variable(domain) for _ in range(draw(st.integers(2, 6)))]
    signs = draw(st.sampled_from([(-1,), (1,), (-1, 1)]))
    max_size = draw(st.sampled_from([2, 4, 5]))
    factors = st.lists(st.sampled_from(vars), min_size=1, max_size=max_size)
    if domain is not Domain.TERNARY:
        factors = factors.map(lambda fs: sorted(set(fs)))
    coefficients = st.builds(
        lambda sign, n, d: sign * Fraction(n, d),
        st.sampled_from(signs), st.integers(1, 4), st.integers(1, 2),
    )
    products = draw(st.lists(st.tuples(factors.map(tuple), coefficients), min_size=1, max_size=12))
    return Polynomial.from_products(registry, products)


@given(p=polynomials())
@settings(max_examples=300, deadline=None)
def test_pickers_match_the_references(p):
    assert choose_rosenberg_pair(p) == _ref_choose_rosenberg_pair(p)
    assert most_connected_variable(p) == _ref_most_connected_variable(p)
    for sign in ("negative", "positive"):
        assert discover_fgbz_groups(p, sign) == _ref_discover_fgbz_groups(p, sign)


def test_pickers_on_ties_squares_and_quadratic_inputs():
    # b1 b2 and b2 b3 each sit in two cubic terms: the lowest pair wins
    p = parse_polynomial("b1 b2 b3 + b1 b2 b4 - b2 b3 b5 + b1 b2")
    assert choose_rosenberg_pair(p) == (0, 1) == _ref_choose_rosenberg_pair(p)
    assert most_connected_variable(p) == 1 == _ref_most_connected_variable(p)
    # a ternary square counts its variable once, as the references do
    registry = VariableRegistry()
    t1, t2, t3 = (registry.add_variable(Domain.TERNARY) for _ in range(3))
    q = Polynomial.from_products(
        registry, [((t1, t1, t2), -1), ((t2, t2, t3), -2), ((t1, t2, t3), -3)]
    )
    assert choose_rosenberg_pair(q) == (t1, t2) == _ref_choose_rosenberg_pair(q)
    assert most_connected_variable(q) == t2 == _ref_most_connected_variable(q)
    groups = discover_fgbz_groups(q, "negative")
    assert groups == _ref_discover_fgbz_groups(q, "negative")
    assert [g.common for g in groups] == [((t1, 1), (t2, 1)), ((t2, 1), (t3, 1))]
    assert discover_fgbz_groups(q, "positive") == []
    quadratic = parse_polynomial("b1 b2 - 3 b2 + 4")
    assert choose_rosenberg_pair(quadratic) is None
    assert most_connected_variable(quadratic) is None
    assert discover_fgbz_groups(quadratic, "negative") == []
    assert discover_fgbz_groups(quadratic, "positive") == []


@pytest.mark.parametrize("sign", ["negativ", "Negative", "", None, -1])
def test_discover_fgbz_groups_rejects_an_unknown_sign(sign):
    p = parse_polynomial("b1 b2 b3 + b1 b2 b4")
    with pytest.raises(InvalidParameter, match="sign must be 'negative' or 'positive'"):
        discover_fgbz_groups(p, sign)
