"""Whole-function gadgets for symmetric targets.

sfr_bcr quadratizes the "exactly c of n variables on" indicator in four
closed forms (two squares, two binomial-choose-2 products) with a
logarithmic number of auxiliaries.  czw_count4 builds the four-variable
counting gadget whose auxiliaries track how many logical variables are on,
letting a bias vector reproduce any permutation-symmetric spectrum.
ternary_to_binary eliminates a ternary variable in favor of two spins plus a
penalty.  The last two are experimental and verify themselves by enumeration
before exposing a result.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from ..errors import (
    DomainViolation,
    InvalidParameter,
    VariantRangeViolation,
    VerificationFailed,
)
from ..poly import Domain, Polynomial, VariableRegistry
from ..verify import (
    DEFAULT_STATE_CAP,
    CheckMode,
    CheckStats,
    VerificationReport,
    _state_count,
    check_groundstate,
    enumerate_min,
)
from .base import GadgetResult, Guarantee
from .single_term import _log2_ceil


@dataclass(frozen=True)
class ExactCSpec:
    """Target: value gamma exactly when sum(b) == c over n variables, else 0."""

    n: int
    c: int
    gamma: Fraction = Fraction(1)


def sfr_aux_count(variant: int, spec: ExactCSpec) -> int:
    """Auxiliary count per variant.

    Variants 3/4 lift their formula to at least one auxiliary: with zero
    auxiliaries the binomial form cannot cancel the bracket away from the
    target shell (binom(-2, 2) = 3, not 0).
    """
    if variant == 1:
        return _log2_ceil(spec.c) + 1
    if variant == 2:
        return _log2_ceil(spec.n - spec.c) + 1
    if variant == 3:
        return max(1, _log2_ceil(spec.c))
    if variant == 4:
        return max(1, _log2_ceil(spec.n - spec.c))
    raise InvalidParameter(f"variant must be 1..4, got {variant}")


def _validate_spec(variant: int, spec: ExactCSpec):
    if spec.gamma <= 0:
        raise InvalidParameter(
            "gamma must be positive: the closed forms are squares/binomials, "
            "so negative values cannot be reached; route negatives via NTR"
        )
    if not 0 <= spec.c <= spec.n:
        raise VariantRangeViolation(f"c must lie in [0, {spec.n}], got {spec.c}")
    if variant in (1, 3):
        if 2 * spec.c < spec.n:
            raise VariantRangeViolation(
                f"variants 1/3 need n/2 <= c <= n, got c={spec.c}, n={spec.n}"
            )
        if spec.c < 1:
            raise VariantRangeViolation("variants 1/3 need c >= 1")
    else:
        if 2 * spec.c > spec.n:
            raise VariantRangeViolation(
                f"variants 2/4 need 0 <= c <= n/2, got c={spec.c}, n={spec.n}"
            )


def sfr_bcr(
    variant: int, spec: ExactCSpec, vars, registry: VariableRegistry
) -> GadgetResult:
    """Quadratize gamma * [sum(b) == c] with the chosen closed form.

    variant 1:  gamma * (-(c+1) + sum b - sum 2^(i-1) ba_i + (1+2^(m-1)) ba_m)^2
    variant 2:  the same with (c-1) - sum b in place of -(c+1) + sum b
    variant 3:  gamma * binom(-(c+1) + sum b - sum 2^i ba_i + (1+2^m) ba_m, 2)
    variant 4:  the mirrored binomial form

    Each bracket can reach 0 (variants 1/2) or {0, 1} (variants 3/4) exactly
    when sum(b) != c and is forced to a best value of 1 on the shell.
    """
    vars = sorted(vars)
    if len(vars) != spec.n or len(set(vars)) != spec.n:
        raise InvalidParameter(f"expected {spec.n} distinct variables")
    for var in vars:
        if registry.domain(var) is not Domain.BOOLEAN:
            raise DomainViolation(f"variable {var} is not a {{0,1}} variable")
    _validate_spec(variant, spec)
    m = sfr_aux_count(variant, spec)
    aux = [registry.add_auxiliary(Domain.BOOLEAN, f"sfr_bcr_{variant}") for _ in range(m)]

    body = Polynomial.zero(registry)
    for var in vars:
        body = body + Polynomial.variable(registry, var)
    bracket = body - (spec.c + 1) if variant in (1, 3) else (spec.c - 1) - body
    for i, ba in enumerate(aux[:-1], start=1):
        step = 2 ** (i - 1) if variant in (1, 2) else 2**i
        bracket = bracket - Polynomial.variable(registry, ba) * step
    top = 1 + 2 ** (m - 1) if variant in (1, 2) else 1 + 2**m
    bracket = bracket + Polynomial.variable(registry, aux[-1]) * top

    if variant in (1, 2):
        out = bracket * bracket
    else:
        out = (bracket * (bracket - 1)).scale(Fraction(1, 2))
    out = out.scale(spec.gamma)
    trace = f"sfr_bcr_{variant}(n={spec.n}, c={spec.c}, gamma={spec.gamma})"
    return GadgetResult(out, tuple(aux), Guarantee.POINTWISE_MIN, trace)


def exact_c_indicator(spec: ExactCSpec, vars, registry: VariableRegistry) -> Polynomial:
    """gamma * [sum(b) == c] as a multilinear polynomial (the oracle target).

    Uses [sum = c] = sum_{j>=c} (-1)^(j-c) * C(j, c) * e_j(b) over the
    elementary symmetric polynomials e_j.
    """
    vars = sorted(vars)
    total = Polynomial.zero(registry)
    for j in range(spec.c, spec.n + 1):
        weight = Fraction((-1) ** (j - spec.c) * comb(j, spec.c)) * spec.gamma
        for subset in itertools.combinations(vars, j):
            total = total + Polynomial.product(registry, subset, weight)
    return total


# ---------------------------------------------------------------------------
# The 4-variable counting gadget


CZW_PRESETS = {
    "b1b2b3b4": (Fraction(0), Fraction(0), Fraction(0), Fraction(-1)),
    "z1z2z3z4": (Fraction(2), Fraction(-2), Fraction(2), Fraction(-2)),
}


def czw_counting_hamiltonian(vars, registry: VariableRegistry):
    """H_count over 4 logical {0,1} variables and 4 fresh auxiliaries:

        4*sum_{i<j} bi*bj + 4*sum_{i,j} bi*ba_j - 15*sum bi - 8*sum ba_i
        + (5*ba_1 + ba_2 - 3*ba_3 - 7*ba_4) + 26

    On its ground manifold the number of auxiliaries left in the 0 state
    equals the number of logical variables in the 1 state, at constant energy
    for every logical configuration.
    """
    vars = sorted(vars)
    if len(vars) != 4:
        raise InvalidParameter("the counting gadget is defined for exactly 4 variables")
    for var in vars:
        if registry.domain(var) is not Domain.BOOLEAN:
            raise DomainViolation(f"variable {var} is not a {{0,1}} variable")
    aux = [registry.add_auxiliary(Domain.BOOLEAN, "czw_count4") for _ in range(4)]
    body = Polynomial.zero(registry)
    for var in vars:
        body = body + Polynomial.variable(registry, var)
    aux_sum = Polynomial.zero(registry)
    for ba in aux:
        aux_sum = aux_sum + Polynomial.variable(registry, ba)
    pair_sum = Polynomial.zero(registry)
    for i in range(4):
        for j in range(i + 1, 4):
            pair_sum = pair_sum + Polynomial.product(registry, [vars[i], vars[j]])
    single = (
        5 * Polynomial.variable(registry, aux[0])
        + Polynomial.variable(registry, aux[1])
        - 3 * Polynomial.variable(registry, aux[2])
        - 7 * Polynomial.variable(registry, aux[3])
    )
    h_count = (
        pair_sum * 4 + body * aux_sum * 4 - body * 15 - aux_sum * 8 + single + 26
    )
    return h_count, aux


def _czw_target(bias, vars, registry: VariableRegistry) -> Polynomial:
    """Spectrum the bias reproduces on the counting manifold:
    sum_j bias_j * [sum(b) <= j-1], as a multilinear polynomial."""
    total = Polynomial.zero(registry)
    for j, beta in enumerate(bias, start=1):
        if not beta:
            continue
        for s in range(0, j):
            total = total + exact_c_indicator(
                ExactCSpec(n=4, c=s, gamma=Fraction(1)), vars, registry
            ).scale(beta)
    return total


def czw_count4(
    lam,
    target_bias,
    vars,
    registry: VariableRegistry,
    max_states: int = DEFAULT_STATE_CAP,
) -> GadgetResult:
    """bias + lam * H_count over 4 logical variables and 4 auxiliaries.

    `target_bias` is a preset name ("b1b2b3b4" or "z1z2z3z4") or a list of 4
    rationals applied to the auxiliaries.  The result is oracle-gated: the
    ground manifold must project onto the target spectrum's minimizers for
    the chosen lam, else VerificationFailed carries the counterexample.
    The default lam is 1 + (range of the bias terms).
    """
    vars = sorted(vars)
    if isinstance(target_bias, str):
        try:
            bias = CZW_PRESETS[target_bias]
        except KeyError:
            raise InvalidParameter(f"unknown preset {target_bias!r}") from None
        if target_bias == "b1b2b3b4":
            target = Polynomial.product(registry, vars)
        else:
            target = _spin_product_in_boolean(vars, registry)
    else:
        bias = tuple(Fraction(b) for b in target_bias)
        if len(bias) != 4:
            raise InvalidParameter("the bias must list exactly 4 coefficients")
        target = _czw_target(bias, vars, registry)

    if lam is None:
        lam = 1 + sum(abs(b) for b in bias)
    lam = Fraction(lam)
    if lam <= 0:
        raise InvalidParameter(f"lam must be positive, got {lam}")

    h_count, aux = czw_counting_hamiltonian(vars, registry)
    bias_poly = Polynomial.zero(registry)
    for ba, beta in zip(aux, bias):
        bias_poly = bias_poly + Polynomial.variable(registry, ba) * beta
    output = bias_poly + h_count.scale(lam)

    report = check_groundstate(target, output, aux, max_states)
    if not report.passed:
        raise VerificationFailed(
            f"czw_count4 does not reproduce the target ground space at lam={lam}",
            report,
        )
    trace = f"czw_count4(lam={lam}, bias={tuple(str(b) for b in bias)})"
    return GadgetResult(output, tuple(aux), Guarantee.GROUND_STATE, trace)


def _spin_product_in_boolean(vars, registry: VariableRegistry) -> Polynomial:
    """The 4-spin product written over the {0,1} images of the same variables:
    16*b1b2b3b4 - 8*(triples) + 4*(pairs) - 2*(singles) + 1."""
    total = Polynomial.constant(registry, 1)
    for size, weight in ((1, -2), (2, 4), (3, -8), (4, 16)):
        for subset in itertools.combinations(sorted(vars), size):
            total = total + Polynomial.product(registry, subset, weight)
    return total


# ---------------------------------------------------------------------------
# Ternary -> binary


def ternary_to_binary(
    p: Polynomial,
    t: int,
    lam,
    registry: VariableRegistry = None,
    verify: bool = True,
    max_states: int = DEFAULT_STATE_CAP,
) -> Polynomial:
    """Replace the ternary variable t by (z1 + z2)/2 over two fresh spins and
    add the penalty -lam*(z1*z2 + z1 - z2).

    Three of the four (z1, z2) states realize t in {-1, 0, 1} at a uniform
    penalty energy of -lam and the fourth sits 4*lam above, so for lam large
    enough the ground space reproduces the original's.  The rewrite verifies
    itself by enumeration unless verify=False.
    """
    registry = registry or p.registry
    if registry.domain(t) is not Domain.TERNARY:
        raise DomainViolation(f"variable {t} is not ternary")
    lam = Fraction(lam)
    if lam <= 0:
        raise InvalidParameter(f"lam must be positive, got {lam}")
    if t not in p.variables():
        return p
    z1 = registry.add_auxiliary(Domain.SPIN, "ternary_to_binary")
    z2 = registry.add_auxiliary(Domain.SPIN, "ternary_to_binary")
    z1p = Polynomial.variable(registry, z1)
    z2p = Polynomial.variable(registry, z2)
    replaced = p.substitute(t, (z1p + z2p).scale(Fraction(1, 2)))
    output = replaced - (z1p * z2p + z1p - z2p).scale(lam)
    if verify:
        report = check_ternary_encoding(p, output, t, (z1, z2), lam, max_states)
        if not report.passed:
            raise VerificationFailed(
                f"ternary encoding failed its ground-space check at lam={lam}", report
            )
    return output


def check_ternary_encoding(
    original: Polynomial,
    transformed: Polynomial,
    t: int,
    z_pair,
    lam,
    max_states: int = DEFAULT_STATE_CAP,
) -> VerificationReport:
    """Ground-space check for the two-spin encoding of one ternary variable.

    Each minimizer of the transformed polynomial is projected back through
    t = (z1 + z2)/2; the projected argmin set must equal the original's and
    the minimum must sit exactly lam below (the valid manifold's penalty
    energy).
    """
    z1, z2 = z_pair
    lam = Fraction(lam)
    min_original, argmin_original = enumerate_min(original, max_states)
    min_transformed, argmin_transformed = enumerate_min(transformed, max_states)
    states = sum(_state_count(p.registry, p.variables()) for p in (original, transformed))

    def project(assignment):
        image = {v: x for v, x in assignment.items() if v not in (z1, z2)}
        image[t] = (assignment[z1] + assignment[z2]) // 2
        return tuple(sorted(image.items()))

    want = {tuple(sorted(a.items())) for a in argmin_original}
    got = {project(a) for a in argmin_transformed}
    counterexample = None
    if min_transformed != min_original - lam:
        counterexample = dict(min(want))
    elif want != got:
        counterexample = dict(min(want ^ got))
    stats = CheckStats(
        states_enumerated=states,
        min_original=min_original,
        min_transformed=min_transformed,
    )
    return VerificationReport(
        CheckMode.GROUND_STATE, counterexample is None, counterexample, stats
    )

