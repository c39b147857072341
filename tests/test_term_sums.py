"""Sums of terms through one accumulator, against the code they replaced.

The `_ref_*` functions below are the earlier rewriting paths, kept as they
were: `_ref_substitute` rebuilds each touched term as a `Polynomial` and folds
them with `+`; `_ref_flip_to_submodular` flips the whole polynomial and takes
its `quadratic_profile` for every candidate variable; `_ref_rosenberg_pair`
builds its output as `Polynomial(rewritten) + penalty`; and the FGBZ step of
`_ref_apply_multi_term` computes `(work - removed) + output`.

`substitute`, the Rosenberg step and the FGBZ step must give the same terms
in the same dict order, the same auxiliary ids, traces and guarantees, and
the same registry.  `flip_to_submodular` flips once by its final mask, so it
must give the same terms dict (a {0,1} polynomial has one multilinear form)
and the same mask; the order of its terms may differ.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadratizer import pipeline
from quadratizer.errors import (
    DomainViolation,
    InvalidParameter,
    NonPositivePenalty,
    NotQuadratic,
    PairAbsent,
)
from quadratizer.gadgets.base import GadgetResult, Guarantee
from quadratizer.gadgets.multi_term import (
    choose_rosenberg_pair,
    discover_fgbz_groups,
    fgbz_negative,
    fgbz_positive,
    rosenberg_auto_penalty,
    rosenberg_pair,
)
from quadratizer.gadgets.structured import ternary_to_binary
from quadratizer.pipeline import Strategy, compare_strategies, flip_to_submodular, quadratize
from quadratizer.poly import (
    Domain,
    Polynomial,
    VariableRegistry,
    _as_fraction,
    _require_boolean,
    monomial_degree,
    monomial_vars,
)
from quadratizer.rewrites import split
from quadratizer.textio import parse_polynomial

SEEDS = st.integers(0, 2**32 - 1)
COEFFICIENTS = (-3, -2, -1, 1, 2, 3)


# ---------------------------------------------------------------------------
# Reference paths


def _ref_substitute(p, var, replacement):
    p.registry.entry(var)
    if isinstance(replacement, (int, Fraction)):
        replacement = Polynomial.constant(p.registry, replacement)
    p._check_registry(replacement)
    untouched = {}
    rewritten = Polynomial.zero(p.registry)
    powers = {1: replacement}
    for mono, coeff in p.terms.items():
        exp = dict(mono).get(var, 0)
        if not exp:
            untouched[mono] = coeff
            continue
        rest = tuple((v, e) for v, e in mono if v != var)
        if exp not in powers:
            powers[exp] = powers[max(powers)] * replacement  # exponents <= 2
        rewritten = rewritten + Polynomial(p.registry, {rest: coeff}) * powers[exp]
    return rewritten + Polynomial(p.registry, untouched)


def _ref_flip(p, vars):
    mask = frozenset(vars)
    _require_boolean(p.registry, mask)
    flipped = p
    for var in sorted(mask):
        flipped = _ref_substitute(
            flipped, var, Polynomial.constant(p.registry, 1) - Polynomial.variable(p.registry, var)
        )
    return flipped, mask


def _ref_convert(p, source, target):
    support = p.variables()
    for var in support:
        if p.registry.domain(var) is not source:
            raise DomainViolation(f"variable {var} is not a {source.tag!r} variable")
    result = p
    for var in support:
        twin = p.registry.twin(var, target)
        z = Polynomial.variable(p.registry, twin)
        if target is Domain.SPIN:
            image = (z + 1).scale(Fraction(1, 2))
        else:
            image = z.scale(2) - 1
        result = _ref_substitute(result, var, image)
    return result


def _ref_flip_to_submodular(p):
    current = p
    mask = frozenset()
    while True:
        best_var = None
        best_count = current.quadratic_profile().non_submodular
        for var in current.variables():
            flipped, _ = _ref_flip(current, [var])
            count = flipped.quadratic_profile().non_submodular
            if count < best_count:
                best_var, best_count = var, count
        if best_var is None:
            return current, mask
        current, _ = _ref_flip(current, [best_var])
        mask = mask ^ frozenset([best_var])


def _ref_rosenberg_pair(p, i, j, penalty="auto"):
    registry = p.registry
    _require_boolean(registry, (i, j))
    if i == j:
        raise InvalidParameter("the pair must consist of two distinct variables")
    if not any(
        monomial_degree(m) >= 3 and i in monomial_vars(m) and j in monomial_vars(m)
        for m in p.terms
    ):
        raise PairAbsent(f"no term of degree >= 3 contains both {i} and {j}")
    if penalty == "auto":
        penalty = rosenberg_auto_penalty(p, i, j)
    penalty = Fraction(penalty)
    if penalty <= 0:
        raise NonPositivePenalty(f"penalty must be positive, got {penalty}")

    ba = registry.add_auxiliary(Domain.BOOLEAN, "rosenberg")
    rewritten = {}
    for mono, coeff in p.terms.items():
        vars = monomial_vars(mono)
        if i in vars and j in vars:
            mono = tuple(sorted([(v, e) for v, e in mono if v not in (i, j)] + [(ba, 1)]))
        rewritten[mono] = rewritten.get(mono, Fraction(0)) + coeff
    penalty_poly = Polynomial.from_products(registry, [
        ((i, j), penalty), ((i, ba), -2 * penalty), ((j, ba), -2 * penalty), ((ba,), 3 * penalty),
    ])
    output = Polynomial(registry, rewritten) + penalty_poly
    trace = (
        f"rosenberg({registry.display_name(i)},{registry.display_name(j)} -> "
        f"{registry.display_name(ba)}, penalty={penalty})"
    )
    return GadgetResult(output, (ba,), Guarantee.POINTWISE_MIN, trace)


def _ref_apply_multi_term(work, aux_map, guarantee, strategy):
    if strategy.multi_term == "rosenberg":
        while work.degree() > 2:
            pair = choose_rosenberg_pair(work)
            if pair is None:
                break
            result = _ref_rosenberg_pair(work, *pair, penalty="auto")
            for aux in result.aux:
                aux_map[aux] = result.trace
            work = result.output
            guarantee = Guarantee.weakest(guarantee, result.guarantee)
        return work, aux_map, guarantee
    while work.degree() > 2:
        groups = discover_fgbz_groups(work, "negative") or discover_fgbz_groups(
            work, "positive"
        )
        if not groups:
            break
        group = groups[0]
        sign = "negative" if group.members[0][1] < 0 else "positive"
        apply = fgbz_negative if sign == "negative" else fgbz_positive
        result = apply(group, work.registry)
        removed = Polynomial._wrap(work.registry, dict(group.members))
        for aux in result.aux:
            aux_map[aux] = result.trace
        work = (work - removed) + result.output
        guarantee = Guarantee.weakest(guarantee, result.guarantee)
    return work, aux_map, guarantee


# ---------------------------------------------------------------------------
# Instances and comparisons


def _items(p):
    return list(p.terms.items())


def _registry_rows(registry):
    return [
        (registry.domain(v).tag, registry.label(v), registry.gadget_of(v), registry.entry(v).partner)
        for v in registry
    ]


def _coefficient(rng):
    return Fraction(rng.choice(COEFFICIENTS), rng.choice((1, 1, 2, 3)))


def _terms(rng, vars, count, max_degree, squared=()):
    """Random (monomial, coefficient) pairs over `vars`; some repeat an earlier
    monomial, either merging into it or cancelling it exactly.  A variable in
    `squared` may appear squared."""
    terms, totals = [], {}
    for _ in range(count):
        if totals and rng.random() < 0.25:
            mono = rng.choice(sorted(totals))
            coeff = -totals[mono] if rng.random() < 0.5 else _coefficient(rng)
        else:
            chosen = sorted(rng.sample(vars, rng.randint(0, min(max_degree, len(vars)))))
            mono = tuple((v, rng.choice((1, 2)) if v in squared else 1) for v in chosen)
            coeff = _coefficient(rng)
        terms.append((mono, coeff))
        totals[mono] = totals.get(mono, 0) + coeff
    return terms


def _mixed_instance(seed):
    """A polynomial over a few {0,1}, spin and ternary variables, a variable to
    replace, and a replacement: a constant, or a polynomial that may hold the
    replaced variable itself."""
    rng = random.Random(seed)
    registry = VariableRegistry()
    tags = [rng.choice("bzt") for _ in range(rng.randint(1, 6))]
    vars = [registry.add_variable(Domain.from_tag(tag)) for tag in tags]
    ternary = {v for v, tag in zip(vars, tags) if tag == "t"}
    p = Polynomial(registry, _terms(rng, vars, rng.randint(0, 14), 4, ternary))
    var = rng.choice(vars)
    if rng.random() < 0.3:
        replacement = rng.choice((0, 1, -1, Fraction(1, 2), _coefficient(rng)))
    else:
        replacement = Polynomial(registry, _terms(rng, vars, rng.randint(0, 4), 2, ternary))
    return p, var, replacement


def _boolean_instance(seed, n_range=(4, 9), degree=5, count=(2, 16)):
    rng = random.Random(seed)
    registry = VariableRegistry()
    vars = [registry.add_variable(Domain.BOOLEAN) for _ in range(rng.randint(*n_range))]
    return Polynomial(registry, _terms(rng, vars, rng.randint(*count), degree))


def _quadratic_instance(seed):
    """A quadratic {0,1} objective with small coefficients (so candidate flips
    tie often); some variables appear only linearly, some not at all."""
    rng = random.Random(seed)
    registry = VariableRegistry()
    vars = [registry.add_variable(Domain.BOOLEAN) for _ in range(rng.randint(0, 9))]
    terms = []
    for _ in range(rng.randint(0, 20)):
        degree = rng.choice((0, 1, 2, 2, 2))
        if degree > len(vars):
            continue
        mono = tuple((v, 1) for v in sorted(rng.sample(vars, degree)))
        terms.append((mono, Fraction(rng.choice((-2, -1, 1, 2)))))
    return Polynomial(registry, terms)


# ---------------------------------------------------------------------------
# substitute


@given(SEEDS)
@settings(max_examples=300, deadline=None)
def test_substitute_matches_reference(seed):
    p, var, replacement = _mixed_instance(seed)
    assert _items(p.substitute(var, replacement)) == _items(_ref_substitute(p, var, replacement))


@pytest.mark.parametrize(
    "text, var, replacement, expected",
    [
        # untouched terms merge with rewritten ones, and cancel them
        ("b1 b2 + b2", "b1", 1, "2 b2"),
        ("b1 b2 - b2", "b1", 1, "0"),
        ("b1 b2 - b2 + 3", "b1", 1, "3"),
        # a ternary square against the cached square of the replacement
        ("t1^2 b2 - b2 + t1", "t1", 1, "1"),
        ("t1^2 + t1", "t1", -1, "0"),
        ("t1^2 - 2 z2 t1 + 1", "t1", "z2", "0"),
        # products of one touched term that cancel among themselves
        ("b1 b2 + b2", "b1", "1 - b2", "b2"),
    ],
)
def test_substitute_merges_and_cancellations(text, var, replacement, expected):
    p = parse_polynomial(text)
    var = p.registry.by_label(var)
    if isinstance(replacement, str):
        replacement = parse_polynomial(replacement, p.registry)
    got = p.substitute(var, replacement)
    assert _items(got) == _items(_ref_substitute(p, var, replacement))
    assert got == parse_polynomial(expected, p.registry)


@given(SEEDS)
@settings(max_examples=100, deadline=None)
def test_flip_split_and_conversions_match_reference(seed):
    p = _boolean_instance(seed)
    rng = random.Random(seed)
    support = p.variables()
    mask = rng.sample(support, rng.randint(0, len(support)))
    assert _items(p.flip(mask)[0]) == _items(_ref_flip(p, mask)[0])
    if support:
        var = rng.choice(support)
        low, high = split(p, var)
        assert (_items(low), _items(high)) == (
            _items(_ref_substitute(p, var, 0)), _items(_ref_substitute(p, var, 1))
        )
    spin = p.to_spin()
    twins = _registry_rows(p.registry)
    expected = _boolean_instance(seed)
    assert _items(spin) == _items(_ref_convert(expected, Domain.BOOLEAN, Domain.SPIN))
    assert twins == _registry_rows(expected.registry)
    assert _items(spin.to_boolean()) == _items(
        _ref_convert(spin, Domain.SPIN, Domain.BOOLEAN)
    )


def test_ternary_to_binary_matches_reference():
    p = parse_polynomial("3 t1^2 b2 - t1 b2 + 2 t1^2 - t1 + b2")
    t1 = p.registry.by_label("t1")
    got = ternary_to_binary(p, t1, lam=10, verify=False)
    z1, z2 = len(p.registry) - 2, len(p.registry) - 1
    z1p, z2p = Polynomial.variable(p.registry, z1), Polynomial.variable(p.registry, z2)
    replaced = _ref_substitute(p, t1, (z1p + z2p).scale(Fraction(1, 2)))
    expected = replaced - (z1p * z2p + z1p - z2p).scale(10)
    assert _items(got) == _items(expected)


# ---------------------------------------------------------------------------
# Constructors and affine images, against the arithmetic that built them
# before `from_products` did


def _ref_constant(registry, value):
    return Polynomial(registry, {(): _as_fraction(value)})


def _ref_variable(registry, var):
    registry.entry(var)
    return Polynomial(registry, {((var, 1),): Fraction(1)})


def _ref_product(registry, vars, coeff=1):
    if len(set(vars)) != len(vars):
        raise ValueError("product() expects distinct variables")
    return Polynomial(registry, {tuple(sorted((v, 1) for v in vars)): _as_fraction(coeff)})


def _ref_minus(p, other):
    if isinstance(other, (int, Fraction)):
        other = _ref_constant(p.registry, other)
    return p + (-other)


def _ref_affine_flip(p, vars):
    mask = frozenset(vars)
    _require_boolean(p.registry, mask)
    for var in sorted(mask):
        one = _ref_constant(p.registry, 1)
        p = p.substitute(var, _ref_minus(one, _ref_variable(p.registry, var)))
    return p, mask


def _ref_affine_convert(p, source, target):
    support = p.variables()
    for var in support:
        if p.registry.domain(var) is not source:
            raise DomainViolation(f"variable {var} is not a {source.tag!r} variable")
    result = p
    for var in support:
        z = _ref_variable(p.registry, p.registry.twin(var, target))
        if target is Domain.SPIN:
            image = (z + _ref_constant(p.registry, 1)).scale(Fraction(1, 2))
        else:
            image = _ref_minus(z.scale(2), 1)
        result = result.substitute(var, image)
    return result


def _ref_ternary_to_binary(p, t, lam):
    registry = p.registry
    if registry.domain(t) is not Domain.TERNARY:
        raise DomainViolation(f"variable {t} is not ternary")
    lam = Fraction(lam)
    if lam <= 0:
        raise InvalidParameter(f"lam must be positive, got {lam}")
    if t not in p.variables():
        return p
    z1 = registry.add_auxiliary(Domain.SPIN, "ternary_to_binary")
    z2 = registry.add_auxiliary(Domain.SPIN, "ternary_to_binary")
    z1p, z2p = _ref_variable(registry, z1), _ref_variable(registry, z2)
    replaced = p.substitute(t, (z1p + z2p).scale(Fraction(1, 2)))
    return _ref_minus(replaced, _ref_minus(z1p * z2p + z1p, z2p).scale(lam))


# name -> (call, reference call), each on (polynomial, drawn arguments)
AFFINE_CALLS = {
    "constant": (
        lambda p, a: Polynomial.constant(p.registry, a["number"]),
        lambda p, a: _ref_constant(p.registry, a["number"]),
    ),
    "variable": (
        lambda p, a: Polynomial.variable(p.registry, a["var"]),
        lambda p, a: _ref_variable(p.registry, a["var"]),
    ),
    "product": (
        lambda p, a: Polynomial.product(p.registry, a["vars"], a["number"]),
        lambda p, a: _ref_product(p.registry, a["vars"], a["number"]),
    ),
    "minus": (lambda p, a: p - a["exact"], lambda p, a: _ref_minus(p, a["exact"])),
    "flip": (lambda p, a: p.flip(a["vars"]), lambda p, a: _ref_affine_flip(p, a["vars"])),
    "to_spin": (
        lambda p, a: p.to_spin(),
        lambda p, a: _ref_affine_convert(p, Domain.BOOLEAN, Domain.SPIN),
    ),
    "to_boolean": (
        lambda p, a: p.to_boolean(),
        lambda p, a: _ref_affine_convert(p, Domain.SPIN, Domain.BOOLEAN),
    ),
    "ternary_to_binary": (
        lambda p, a: ternary_to_binary(p, a["var"], a["lam"], verify=False),
        lambda p, a: _ref_ternary_to_binary(p, a["var"], a["lam"]),
    ),
}


def _affine_case(seed):
    """A polynomial over {0,1}, spin or ternary variables (one domain or
    several) and the arguments drawn for it, some invalid: an id outside the
    registry, a repeated variable, a float, a non-positive lam."""
    rng = random.Random(seed)
    registry = VariableRegistry()
    alphabet = rng.choice(("b", "z", "t", "bt", "bzt"))
    tags = [rng.choice(alphabet) for _ in range(rng.randint(1, 5))]
    vars = [registry.add_variable(Domain.from_tag(tag)) for tag in tags]
    ternary = {v for v in vars if registry.domain(v) is Domain.TERNARY}
    p = Polynomial(registry, _terms(rng, vars, rng.randint(0, 10), 4, ternary))
    ids = range(-1, len(vars) + 1)  # -1 and len(vars) are not variables
    exact = rng.choice((0, 1, -1, 3, Fraction(1, 2), Fraction(-7, 3), _coefficient(rng)))
    args = {
        "exact": exact,
        "number": rng.choice((exact, exact, 1.5)),
        "var": rng.choice(ids) if rng.random() < 0.2 else rng.choice(vars),
        "vars": [rng.choice(vars) for _ in range(rng.randint(0, 4))]
        + [rng.choice(ids)] * (rng.random() < 0.2),
        "lam": rng.choice((-1, 0, Fraction(1, 2), 3, 10)),
    }
    return p, args


def _affine_outcome(call, p, args):
    """What `call` returns (terms in dict order, and flip's mask) or raises,
    and the registry it leaves behind."""
    try:
        value = call(p, args)
    except Exception as error:
        value = (type(error), str(error))
    else:
        value = (_items(value[0]), value[1]) if isinstance(value, tuple) else _items(value)
    return value, _registry_rows(p.registry)


@pytest.mark.seed_loop
@given(SEEDS, st.sampled_from(sorted(AFFINE_CALLS)))
@settings(max_examples=300, deadline=None)
def test_constructors_and_affine_images_match_reference(seed, name):
    call, ref_call = AFFINE_CALLS[name]
    p, args = _affine_case(seed)
    expected, _ = _affine_case(seed)
    assert _affine_outcome(call, p, args) == _affine_outcome(ref_call, expected, args)


def test_subtracting_a_float_names_the_minus_operator():
    p = parse_polynomial("b1 b2 + 1")
    with pytest.raises(TypeError, match="for -: 'Polynomial' and 'float'"):
        p - 1.5


# ---------------------------------------------------------------------------
# flip_to_submodular


def _assert_flip_matches(p):
    flipped, mask = flip_to_submodular(p)
    ref_flipped, ref_mask = _ref_flip_to_submodular(p)
    assert mask == ref_mask
    assert isinstance(mask, frozenset)
    assert flipped.terms == ref_flipped.terms
    if not mask:
        assert flipped is p and ref_flipped is p


@given(SEEDS)
@settings(max_examples=300, deadline=None)
def test_flip_to_submodular_matches_reference(seed):
    _assert_flip_matches(_quadratic_instance(seed))


@pytest.mark.parametrize(
    "text",
    [
        "",
        "5",
        "3 b1 - 2 b2 + 7",  # no quadratic terms
        "b1 b2 + b3 b4",  # a tie: b1..b4 each remove one positive term
        "b1 b2 + b2 b3 + b1 b3",  # a triangle: no flip can remove all three
        "b1 b2 - b1 b3 + b2 b3 + b4",  # b4 is isolated from every quadratic
        "2 b1 b2 + 2 b1 b3 + 2 b1 b4 - b2 b3 - b2 b4",
    ],
)
def test_flip_to_submodular_cases(text):
    _assert_flip_matches(parse_polynomial(text))


def test_flip_to_submodular_tie_goes_to_lowest_id():
    p = parse_polynomial("b1 b2 + b3 b4")
    flipped, mask = flip_to_submodular(p)
    assert mask == {p.registry.by_label("b1"), p.registry.by_label("b3")}
    assert flipped.quadratic_profile().non_submodular == 0


@pytest.mark.parametrize(
    "text, error", [("b1 b2 b3", NotQuadratic), ("z1 z2", DomainViolation), ("t1 b2", DomainViolation)]
)
def test_flip_to_submodular_rejects_like_reference(text, error):
    p = parse_polynomial(text)
    with pytest.raises(error):
        _ref_flip_to_submodular(p)
    with pytest.raises(error):
        flip_to_submodular(p)


def test_flip_to_submodular_flips_the_polynomial_once(monkeypatch):
    p = _quadratic_instance(7)
    calls = []
    original = Polynomial.flip
    monkeypatch.setattr(Polynomial, "flip", lambda self, vars: calls.append(1) or original(self, vars))
    monkeypatch.setattr(Polynomial, "substitute", _forbidden("substitute"))
    flip_to_submodular(p)
    assert calls == [1]


def _forbidden(name):
    def call(*args, **kwargs):
        raise AssertionError(f"{name} called outside the final flip")

    return call


# ---------------------------------------------------------------------------
# Rosenberg and FGBZ steps


def _rosenberg_case(seed):
    p = _boolean_instance(seed)
    rng = random.Random(seed)
    pairs = sorted({
        (vars[a], vars[b])
        for vars in (monomial_vars(m) for m in p.terms if monomial_degree(m) >= 3)
        for a in range(len(vars))
        for b in range(a + 1, len(vars))
    })
    if not pairs:
        return p, None, None
    penalty = rng.choice(("auto", 1, Fraction(5, 2), 7))
    return p, rng.choice(pairs), penalty


def _gadget_rows(result):
    return _items(result.output), result.aux, result.guarantee, result.trace


@given(SEEDS)
@settings(max_examples=200, deadline=None)
def test_rosenberg_pair_matches_reference(seed):
    p, pair, penalty = _rosenberg_case(seed)
    expected, _, _ = _rosenberg_case(seed)
    if pair is None:
        return
    if penalty != "auto" and penalty < rosenberg_auto_penalty(p, *pair) - 1:
        # below the sum of |c| over the terms holding the pair: refused, and
        # before an auxiliary is allocated
        with pytest.raises(InvalidParameter, match="below"):
            rosenberg_pair(p, *pair, penalty=penalty)
        assert _registry_rows(p.registry) == _registry_rows(expected.registry)
        return
    got = rosenberg_pair(p, *pair, penalty=penalty)
    ref = _ref_rosenberg_pair(expected, *pair, penalty=penalty)
    assert _gadget_rows(got) == _gadget_rows(ref)
    assert _registry_rows(p.registry) == _registry_rows(expected.registry)


@pytest.mark.parametrize(
    "text, i, j, penalty, error",
    [
        ("b1 b2 b3", "b1", "b1", "auto", InvalidParameter),
        ("b1 b2 b3 + b4", "b1", "b4", "auto", PairAbsent),
        ("b1 b2 b3", "b1", "b2", 0, NonPositivePenalty),
        ("z1 b2 b3", "z1", "b2", "auto", DomainViolation),
    ],
)
def test_rosenberg_pair_errors_match_reference(text, i, j, penalty, error):
    got_p, ref_p = parse_polynomial(text), parse_polynomial(text)
    i, j = got_p.registry.by_label(i), got_p.registry.by_label(j)
    with pytest.raises(error) as got:
        rosenberg_pair(got_p, i, j, penalty=penalty)
    with pytest.raises(error) as ref:
        _ref_rosenberg_pair(ref_p, i, j, penalty=penalty)
    assert str(got.value) == str(ref.value)
    assert _registry_rows(got_p.registry) == _registry_rows(ref_p.registry)


@given(SEEDS, st.sampled_from(["rosenberg", "fgbz"]))
@example(25, "rosenberg")  # already quadratic: no step, no auxiliary
@example(2, "fgbz")  # terms of degree >= 3, but no group of two to reduce
@settings(max_examples=200, deadline=None)
def test_multi_term_pass_matches_reference(seed, multi_term):
    strategy = Strategy(multi_term=multi_term)
    p = _boolean_instance(seed, n_range=(4, 8), degree=5, count=(2, 20))
    expected = _boolean_instance(seed, n_range=(4, 8), degree=5, count=(2, 20))
    got = pipeline._apply_multi_term(p, {}, Guarantee.POINTWISE_MIN, strategy)
    ref = _ref_apply_multi_term(expected, {}, Guarantee.POINTWISE_MIN, strategy)
    assert (_items(got[0]), got[1], got[2]) == (_items(ref[0]), ref[1], ref[2])
    assert _registry_rows(p.registry) == _registry_rows(expected.registry)


STRATEGIES = [Strategy(multi_term="rosenberg"), Strategy(multi_term="fgbz")]


@given(SEEDS)
@settings(max_examples=60, deadline=None)
def test_compare_strategies_rows_match_reference(seed):
    p = _boolean_instance(seed, n_range=(4, 7), degree=5)
    expected = _boolean_instance(seed, n_range=(4, 7), degree=5)
    rows = compare_strategies(p, STRATEGIES)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline, "_apply_multi_term", _ref_apply_multi_term)
        ref_rows = compare_strategies(expected, STRATEGIES)
    assert rows == ref_rows
    assert _registry_rows(p.registry) == _registry_rows(expected.registry)


@pytest.mark.parametrize("multi_term", ["rosenberg", "fgbz"])
def test_quadratize_outputs_match_reference(multi_term):
    strategy = Strategy(multi_term=multi_term)
    for seed in range(40):
        p = _boolean_instance(seed, n_range=(4, 7), degree=5)
        expected = _boolean_instance(seed, n_range=(4, 7), degree=5)
        got = quadratize(p, strategy)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pipeline, "_apply_multi_term", _ref_apply_multi_term)
            ref = quadratize(expected, strategy)
        assert (_items(got.output), got.aux_map, got.guarantee) == (
            _items(ref.output), ref.aux_map, ref.guarantee
        ), seed
