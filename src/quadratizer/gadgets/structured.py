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

from ..errors import DomainViolation, InvalidParameter, VariantRangeViolation
from ..poly import Domain, Polynomial, VariableRegistry, _distinct, _require_boolean
from ..poly import _as_fraction, format_fraction
from ..verify import check_claim, check_ternary_encoding
from .base import GadgetResult, Guarantee
from .single_term import _log2_ceil


@dataclass(frozen=True)
class ExactCSpec:
    """Target: value gamma exactly when sum(b) == c over n variables, else 0."""

    n: int
    c: int
    gamma: Fraction = Fraction(1)

    def __post_init__(self):
        _require_int("n", self.n)
        _require_int("c", self.c)


def _require_int(name: str, value):
    """A float or a bool would pass the range checks, then break bit_length or a trace."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")


def _check_variant(variant: int):
    _require_int("variant", variant)
    if variant not in (1, 2, 3, 4):
        raise InvalidParameter(f"variant must be 1..4, got {format_fraction(variant)}")


def sfr_aux_count(variant: int, spec: ExactCSpec) -> int:
    """Auxiliary count per variant.

    Variants 3/4 lift their formula to at least one auxiliary: with zero
    auxiliaries the binomial form cannot cancel the bracket away from the
    target shell (binom(-2, 2) = 3, not 0).
    """
    _check_variant(variant)
    if variant == 1:
        return _log2_ceil(spec.c) + 1
    if variant == 2:
        return _log2_ceil(spec.n - spec.c) + 1
    if variant == 3:
        return max(1, _log2_ceil(spec.c))
    return max(1, _log2_ceil(spec.n - spec.c))


def _check_c(spec: ExactCSpec):
    if not 0 <= spec.c <= spec.n:
        raise VariantRangeViolation(
            f"c must lie in [0, {format_fraction(spec.n)}], got {format_fraction(spec.c)}"
        )


def _validate_spec(variant: int, spec: ExactCSpec):
    _check_variant(variant)
    if _as_fraction(spec.gamma) <= 0:
        raise InvalidParameter(
            "gamma must be positive: the closed forms are squares/binomials, "
            "so negative values cannot be reached; route negatives via NTR"
        )
    _check_c(spec)
    if variant in (1, 3):
        if 2 * spec.c < spec.n:
            raise VariantRangeViolation(
                f"variants 1/3 need n/2 <= c <= n, got c={format_fraction(spec.c)}, "
                f"n={format_fraction(spec.n)}"
            )
        if spec.c < 1:
            raise VariantRangeViolation("variants 1/3 need c >= 1")
    else:
        if 2 * spec.c > spec.n:
            raise VariantRangeViolation(
                f"variants 2/4 need 0 <= c <= n/2, got c={format_fraction(spec.c)}, "
                f"n={format_fraction(spec.n)}"
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
    when sum(b) != c and is forced to a best value of 1 on the shell.  The
    variables, the variant, c and gamma (a positive int or Fraction) are all
    checked before any auxiliary is allocated.
    """
    vars = sorted(vars)
    if len(vars) != spec.n or len(set(vars)) != spec.n:
        raise InvalidParameter(f"expected {format_fraction(spec.n)} distinct variables")
    _require_boolean(registry, vars)
    _validate_spec(variant, spec)
    m = sfr_aux_count(variant, spec)
    aux = [registry.add_auxiliary(Domain.BOOLEAN, f"sfr_bcr_{variant}") for _ in range(m)]

    sign, base = (1, -(spec.c + 1)) if variant in (1, 3) else (-1, spec.c - 1)
    shift = 0 if variant in (1, 2) else 1  # the binomial forms double each weight
    bracket = Polynomial.from_products(registry, [
        *(((v,), sign) for v in vars), ((), base),
        *(((ba,), -(2 ** (i + shift))) for i, ba in enumerate(aux[:-1])),
        ((aux[-1],), 1 + 2 ** (m - 1 + shift)),
    ])
    if variant in (1, 2):
        out = (bracket * bracket).scale(spec.gamma)
    else:
        out = (bracket * (bracket - 1)).scale(spec.gamma * Fraction(1, 2))
    trace = (f"sfr_bcr_{variant}(n={spec.n}, c={format_fraction(spec.c)}, "
             f"gamma={format_fraction(spec.gamma)})")
    return GadgetResult(out, tuple(aux), Guarantee.POINTWISE_MIN, trace)


def exact_c_indicator(spec: ExactCSpec, vars, registry: VariableRegistry) -> Polynomial:
    """gamma * [sum(b) == c], the oracle target, from its values by weight; 0 <= c <= n."""
    if len(vars) != spec.n:
        raise InvalidParameter(f"expected {format_fraction(spec.n)} variables")
    _check_c(spec)
    _require_boolean(registry, _distinct(vars))
    values = [spec.gamma * (w == spec.c) for w in range(spec.n + 1)]
    return Polynomial.symmetric(registry, vars, values)


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
    _require_boolean(registry, vars)
    vars = _distinct(vars)
    aux = [registry.add_auxiliary(Domain.BOOLEAN, "czw_count4") for _ in range(4)]
    h_count = Polynomial.from_products(registry, [
        *((pair, 4) for pair in itertools.combinations(vars, 2)),
        *(((v, ba), 4) for v in vars for ba in aux),
        *(((v,), -15) for v in vars),
        *(((ba,), weight - 8) for ba, weight in zip(aux, (5, 1, -3, -7))),
        ((), 26),
    ])
    return h_count, aux


def czw_count4(
    lam,
    target_bias,
    vars,
    registry: VariableRegistry,
    verify: bool = True,
) -> GadgetResult:
    """bias + lam * H_count over 4 logical variables and 4 auxiliaries.

    `target_bias` is a preset name ("b1b2b3b4" or "z1z2z3z4") or a list of 4
    rationals applied to the auxiliaries.  The target is Polynomial.symmetric of
    [w = 4], (-1)^w or sum_j bias_j * [w < j] by weight w = sum(b).  Unless
    verify=False, the oracle proves at DEFAULT_STATE_CAP that the ground manifold
    projects onto the target's minimizers at lam, else VerificationFailed carries
    the counterexample.  The default lam is 1 + sum_j |bias_j|.
    """
    vars = sorted(vars)
    if isinstance(target_bias, str):
        try:
            bias = CZW_PRESETS[target_bias]
        except KeyError:
            raise InvalidParameter(f"unknown preset {target_bias!r}") from None
        values = [w == len(vars) if target_bias == "b1b2b3b4" else (-1) ** w
                  for w in range(len(vars) + 1)]
    else:
        bias = tuple(map(_as_fraction, target_bias))
        if len(bias) != 4:
            raise InvalidParameter("the bias must list exactly 4 coefficients")
        if any(bias):
            _require_boolean(registry, _distinct(vars))
        values = [sum(bias[w:]) for w in range(len(vars) + 1)]
    target = Polynomial.zero(registry)
    if any(values):  # an all-zero bias checks no variable
        target = Polynomial.symmetric(registry, vars, values)

    if lam is None:
        lam = 1 + sum(abs(b) for b in bias)
    lam = _as_fraction(lam)
    if lam <= 0:
        raise InvalidParameter(f"lam must be positive, got {format_fraction(lam)}")

    h_count, aux = czw_counting_hamiltonian(vars, registry)
    bias_poly = Polynomial.from_products(registry, [((ba,), beta) for ba, beta in zip(aux, bias)])
    output = bias_poly + h_count.scale(lam)

    if verify:
        check_claim(Guarantee.GROUND_STATE, target, output, aux).require(
            f"czw_count4 does not reproduce the target ground space at lam={format_fraction(lam)}"
        )
    trace = f"czw_count4(lam={format_fraction(lam)}, bias={tuple(map(format_fraction, bias))})"
    return GadgetResult(output, tuple(aux), Guarantee.GROUND_STATE, trace)


# ---------------------------------------------------------------------------
# Ternary -> binary


def ternary_to_binary(
    p: Polynomial,
    t: int,
    lam,
    verify: bool = True,
) -> Polynomial:
    """Replace the ternary variable t by (z1 + z2)/2 over two fresh spins and
    add the penalty -lam*(z1*z2 + z1 - z2).

    Three of the four (z1, z2) states realize t in {-1, 0, 1} at a uniform
    penalty energy of -lam and the fourth sits 4*lam above, so for lam large
    enough the ground space reproduces the original's.  The rewrite verifies
    itself by enumeration at DEFAULT_STATE_CAP unless verify=False; for a wider
    check, pass verify=False and call check_ternary_encoding with a cap.
    """
    registry = p.registry
    if registry.domain(t) is not Domain.TERNARY:
        raise DomainViolation(f"variable {t} is not ternary")
    lam = _as_fraction(lam)
    if lam <= 0:
        raise InvalidParameter(f"lam must be positive, got {format_fraction(lam)}")
    if t not in p.variables():
        return p
    z1 = registry.add_auxiliary(Domain.SPIN, "ternary_to_binary")
    z2 = registry.add_auxiliary(Domain.SPIN, "ternary_to_binary")
    half = Fraction(1, 2)
    replaced = p.substitute(t, Polynomial.from_products(registry, [((z1,), half), ((z2,), half)]))
    output = replaced + Polynomial.from_products(
        registry, [((z1, z2), -lam), ((z1,), -lam), ((z2,), lam)]
    )
    if verify:
        check_ternary_encoding(p, output, t, (z1, z2), lam).require(
            f"ternary encoding failed its ground-space check at lam={format_fraction(lam)}"
        )
    return output
