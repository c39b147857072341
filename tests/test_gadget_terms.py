"""Gadgets that write their closed forms as terms, against the Polynomial
arithmetic they replaced.

The `_ref_*` functions below are the earlier gadget builders, kept as they
were: each assembles its output from `Polynomial` sums, products and scales
(`_vp`, `_sum_vars`, `_pair_sum`), so every intermediate is re-canonicalized.
The term-list builders must give the same output terms in the same dict
order, the same auxiliary ids, traces and guarantees, the same registry
labels and domains, and, for a rejected input, the same error type and
message.
"""

import itertools
import random
from fractions import Fraction
from math import comb
from types import SimpleNamespace

import pytest

from quadratizer.errors import (
    CommonTooSmall,
    DomainViolation,
    InvalidParameter,
    MixedSigns,
    NonPositivePenalty,
    PairAbsent,
    VerificationFailed,
    WrongDegree,
    WrongSign,
)
from quadratizer.gadgets import multi_term, single_term, structured
from quadratizer.gadgets.base import GADGETS, GadgetResult, Guarantee
from quadratizer.gadgets.multi_term import (
    TermGroup,
    choose_rosenberg_pair,
    discover_fgbz_groups,
    rosenberg_auto_penalty,
)
from quadratizer.gadgets.single_term import _bcr3_m, _bcr4_m, _inputs, _result
from quadratizer.gadgets.structured import (
    CZW_PRESETS,
    ExactCSpec,
    _validate_spec,
    sfr_aux_count,
)
from quadratizer.poly import (
    Domain,
    Polynomial,
    VariableRegistry,
    monomial_degree,
    monomial_vars,
)
from quadratizer.verify import DEFAULT_STATE_CAP, check_groundstate

BIG = Fraction(123456789012345678901234567891, 98765432109876543210987654323)
COEFFS = [Fraction(1), Fraction(-1), Fraction(7, 3), Fraction(-7, 3), BIG, -BIG]


# ---------------------------------------------------------------------------
# Reference builders: single-term gadgets


def _vp(registry, var):
    return Polynomial.variable(registry, var)


def _sum_vars(registry, vars):
    total = Polynomial.zero(registry)
    for var in vars:
        total = total + _vp(registry, var)
    return total


def _pair_sum(registry, vars):
    total = Polynomial.zero(registry)
    for i, u in enumerate(vars):
        for w in vars[i + 1 :]:
            total = total + Polynomial.product(registry, [u, w])
    return total


def _require_boolean(registry, vars):
    for var in vars:
        if registry.domain(var) is not Domain.BOOLEAN:
            raise DomainViolation(f"variable {var} is not a {{0,1}} variable")


def _ref_ntr_kzfd(coeff, mono, registry):
    vars, coeff, k = _inputs("ntr_kzfd", coeff, mono, registry)
    ba = registry.add_auxiliary(Domain.BOOLEAN, "ntr_kzfd")
    a = _vp(registry, ba)
    out = (a * (k - 1) - _sum_vars(registry, vars) * a).scale(-coeff)
    return _result("ntr_kzfd", registry, out, [ba], Guarantee.POINTWISE_MIN, coeff, vars)


def _ref_ntr_abcg(coeff, mono, registry):
    vars, coeff, k = _inputs("ntr_abcg", coeff, mono, registry)
    head, bk = vars[:-1], vars[-1]
    ba = registry.add_auxiliary(Domain.BOOLEAN, "ntr_abcg")
    a = _vp(registry, ba)
    z = _vp(registry, bk)
    out = (
        _sum_vars(registry, head)
        - _sum_vars(registry, head) * z
        - _sum_vars(registry, vars) * a
        + (z * a) * (k - 1)
    ).scale(-coeff)
    return _result("ntr_abcg", registry, out, [ba], Guarantee.POINTWISE_MIN, coeff, vars)


def _ref_ntr_abcg2(coeff, mono, registry, scale_c=2):
    vars, coeff, k = _inputs("ntr_abcg2", coeff, mono, registry)
    scale_c = Fraction(scale_c)
    if scale_c < 1:
        raise InvalidParameter(f"C must be >= 1, got {scale_c}")
    ba = registry.add_auxiliary(Domain.BOOLEAN, "ntr_abcg2")
    a = _vp(registry, ba)
    out = (a * (scale_c * k - 1) - _sum_vars(registry, vars) * a * scale_c).scale(-coeff)
    return _result("ntr_abcg2", registry, out, [ba], Guarantee.POINTWISE_MIN, coeff, vars)


def _ref_ntr_gbp(coeff, mono, registry, pivot=1):
    vars, coeff, _ = _inputs("ntr_gbp", coeff, mono, registry)
    if pivot not in (1, 2, 3):
        raise InvalidParameter("pivot must be 1, 2 or 3")
    p = vars[pivot - 1]
    q, r = (v for v in vars if v != p)
    ba = registry.add_auxiliary(Domain.BOOLEAN, "ntr_gbp")
    a = _vp(registry, ba)
    bp = _vp(registry, p)
    out = (
        a * (_vp(registry, q) + _vp(registry, r) - bp)
        - Polynomial.product(registry, [p, q])
        - Polynomial.product(registry, [p, r])
        + bp
    ).scale(-coeff)
    return _result("ntr_gbp", registry, out, [ba], Guarantee.POINTWISE_MIN, coeff, vars)


def _ref_ntr_rbl(coeff, mono, registry):
    vars, coeff, _ = _inputs("ntr_rbl", coeff, mono, registry)
    ta = registry.add_auxiliary(Domain.TERNARY, "ntr_rbl")
    inner = 1 + _vp(registry, ta) * 4 + _sum_vars(registry, vars)
    out = (inner * inner - 1).scale(-coeff)
    return _result("ntr_rbl", registry, out, [ta], Guarantee.GROUND_STATE, coeff, vars)


def _ref_check_sign(coeff, want):
    coeff = Fraction(coeff)
    if want == "negative" and coeff >= 0:
        raise WrongSign(f"expected a negative coefficient, got {coeff}")
    if want == "positive" and coeff <= 0:
        raise WrongSign(f"expected a positive coefficient, got {coeff}")
    if not coeff:
        raise WrongSign("coefficient must be nonzero")
    return coeff


def _ref_ntr_kzfd_literals(coeff, pos_vars, neg_vars, registry):
    coeff = _ref_check_sign(coeff, "negative")
    pos_vars, neg_vars = sorted(pos_vars), sorted(neg_vars)
    vars = pos_vars + neg_vars
    if len(set(vars)) != len(vars) or not vars:
        raise InvalidParameter("literal sets must be disjoint and nonempty")
    for var in vars:
        if registry.domain(var) is not Domain.BOOLEAN:
            raise DomainViolation(f"variable {var} is not a {{0,1}} variable")
    k = len(vars)
    ba = registry.add_auxiliary(Domain.BOOLEAN, "ntr_kzfd")
    a = _vp(registry, ba)
    total = a * (k - 1) - _sum_vars(registry, pos_vars) * a
    for var in neg_vars:
        total = total - (1 - _vp(registry, var)) * a
    out = total.scale(-coeff)
    return _result("ntr_kzfd~", registry, out, [ba], Guarantee.POINTWISE_MIN, coeff, vars)


def _ref_ptr_bg(coeff, mono, registry):
    vars, coeff, k = _inputs("ptr_bg", coeff, mono, registry)
    aux = [registry.add_auxiliary(Domain.BOOLEAN, "ptr_bg") for _ in range(k - 2)]
    total = Polynomial.product(registry, vars[-2:])
    for i, ba in enumerate(aux, start=1):
        inner = (
            Polynomial.constant(registry, k - i - 1)
            + _vp(registry, vars[i - 1])
            - _sum_vars(registry, vars[i:])
        )
        total = total + _vp(registry, ba) * inner
    out = total.scale(coeff)
    return _result("ptr_bg", registry, out, aux, Guarantee.POINTWISE_MIN, coeff, vars)


def _ref_ptr_ishikawa(coeff, mono, registry):
    vars, coeff, k = _inputs("ptr_ishikawa", coeff, mono, registry)
    n_k = (k - 1) // 2
    aux = [registry.add_auxiliary(Domain.BOOLEAN, "ptr_ishikawa") for _ in range(n_k)]
    body_sum = _sum_vars(registry, vars)
    total = _pair_sum(registry, vars)
    for i, ba in enumerate(aux, start=1):
        c_ik = 1 if (i == n_k and k % 2 == 1) else 2
        total = total + _vp(registry, ba) * ((body_sum * (-1) + 2 * i) * c_ik - 1)
    out = total.scale(coeff)
    return _result("ptr_ishikawa", registry, out, aux, Guarantee.POINTWISE_MIN, coeff, vars)


def _ref_ptr_bcr3(coeff, mono, registry):
    vars, coeff, k = _inputs("ptr_bcr3", coeff, mono, registry)
    m = _bcr3_m(k)
    aux = [registry.add_auxiliary(Domain.BOOLEAN, "ptr_bcr3") for _ in range(m)]
    bracket = Polynomial.constant(registry, 2**m - k) + _sum_vars(registry, vars)
    for i, ba in enumerate(aux, start=1):
        bracket = bracket - _vp(registry, ba) * 2 ** (i - 1)
    out = (bracket * bracket).scale(coeff)
    return _result("ptr_bcr3", registry, out, aux, Guarantee.POINTWISE_MIN, coeff, vars)


def _ref_ptr_bcr4(coeff, mono, registry):
    vars, coeff, k = _inputs("ptr_bcr4", coeff, mono, registry)
    m = _bcr4_m(k)
    aux = [registry.add_auxiliary(Domain.BOOLEAN, "ptr_bcr4") for _ in range(m)]
    bracket = Polynomial.constant(registry, 2 ** (m + 1) - k) + _sum_vars(registry, vars)
    for i, ba in enumerate(aux, start=1):
        bracket = bracket - _vp(registry, ba) * 2**i
    out = (bracket * (bracket - 1)).scale(Fraction(1, 2)).scale(coeff)
    return _result("ptr_bcr4", registry, out, aux, Guarantee.POINTWISE_MIN, coeff, vars)


def _ref_ptr_kz(coeff, mono, registry):
    vars, coeff, _ = _inputs("ptr_kz", coeff, mono, registry)
    ba = registry.add_auxiliary(Domain.BOOLEAN, "ptr_kz")
    a = _vp(registry, ba)
    body_sum = _sum_vars(registry, vars)
    out = (1 - (a + body_sum) + a * body_sum + _pair_sum(registry, vars)).scale(coeff)
    return _result("ptr_kz", registry, out, [ba], Guarantee.POINTWISE_MIN, coeff, vars)


def _ref_ptr_gbp(coeff, mono, registry, pivot=1):
    vars, coeff, _ = _inputs("ptr_gbp", coeff, mono, registry)
    if pivot not in (1, 2, 3):
        raise InvalidParameter("pivot must be 1, 2 or 3")
    p = vars[pivot - 1]
    q, r = (v for v in vars if v != p)
    ba = registry.add_auxiliary(Domain.BOOLEAN, "ptr_gbp")
    a = _vp(registry, ba)
    out = (
        a * (1 - _vp(registry, q) - _vp(registry, r) + _vp(registry, p))
        + Polynomial.product(registry, [q, r])
    ).scale(coeff)
    return _result("ptr_gbp", registry, out, [ba], Guarantee.POINTWISE_MIN, coeff, vars)


def _ref_ptr_bcr1(coeff, mono, registry):
    vars, coeff, k = _inputs("ptr_bcr1", coeff, mono, registry)
    if k % 2 == 0:
        raise WrongDegree("ptr_bcr1 is stated for odd k only")
    aux = [registry.add_auxiliary(Domain.BOOLEAN, "ptr_bcr1") for _ in range((k - 1) // 2)]
    body_sum = _sum_vars(registry, vars)
    total = body_sum + _pair_sum(registry, vars)
    for i, ba in enumerate(aux, start=1):
        total = total + _vp(registry, ba) * (body_sum * (-1) + (4 * i - 3))
    out = total.scale(coeff)
    return _result("ptr_bcr1", registry, out, aux, Guarantee.POINTWISE_MIN, coeff, vars)


def _ref_ptr_bcr2(coeff, mono, registry):
    vars, coeff, _ = _inputs("ptr_bcr2", coeff, mono, registry)
    ba = registry.add_auxiliary(Domain.BOOLEAN, "ptr_bcr2")
    bracket = _sum_vars(registry, vars) - _vp(registry, ba) * 2
    out = (bracket * (bracket - 1)).scale(Fraction(1, 2)).scale(coeff)
    return _result("ptr_bcr2", registry, out, [ba], Guarantee.POINTWISE_MIN, coeff, vars)


def _ref_ptr_kz_z(coeff, mono, registry):
    vars, coeff, _ = _inputs("ptr_kz_z", coeff, mono, registry)
    sign = 1 if coeff > 0 else -1
    za = registry.add_auxiliary(Domain.SPIN, "ptr_kz_z")
    body_sum = _sum_vars(registry, vars)
    out = (
        3
        + (body_sum + _vp(registry, za)) * sign
        + _vp(registry, za) * body_sum * 2
        + _pair_sum(registry, vars)
    ).scale(abs(coeff))
    return _result("ptr_kz_z", registry, out, [za], Guarantee.POINTWISE_MIN, coeff, vars)


def _ref_ptr_rbl_3to2(coeff, mono, registry):
    vars, coeff, _ = _inputs("ptr_rbl_3to2", coeff, mono, registry)
    ta = registry.add_auxiliary(Domain.TERNARY, "ptr_rbl_3to2")
    inner = 1 + _vp(registry, ta) * 4 + _sum_vars(registry, vars)
    out = (inner * inner - 1).scale(coeff)
    return _result("ptr_rbl_3to2", registry, out, [ta], Guarantee.GROUND_STATE, coeff, vars)


def _ref_rbl_quartic_z(registry, vars, ta):
    t = _vp(registry, ta)
    return (
        t * t * 16
        + t * _sum_vars(registry, vars) * 4
        + _pair_sum(registry, vars) * 2
        + 4
    )


def _ref_ptr_rbl_4to2(coeff, mono, registry):
    vars, coeff, _ = _inputs("ptr_rbl_4to2", coeff, mono, registry)
    ta = registry.add_auxiliary(Domain.TERNARY, "ptr_rbl_4to2")
    out = _ref_rbl_quartic_z(registry, vars, ta).scale(coeff)
    return _result("ptr_rbl_4to2", registry, out, [ta], Guarantee.GROUND_STATE, coeff, vars)


def _ref_ntr_lhz(coeff, mono, registry):
    vars, coeff, _ = _inputs("ntr_lhz", coeff, mono, registry)
    twins = [registry.twin(v, Domain.BOOLEAN) for v in vars]
    ta = registry.add_auxiliary(Domain.TERNARY, "ntr_lhz")
    t = _vp(registry, ta)
    out = (
        t * t * 16
        + t * _sum_vars(registry, twins) * 8
        + _pair_sum(registry, twins) * 8
        + 16
    ).scale(-coeff)
    return _result("ntr_lhz", registry, out, [ta], Guarantee.GROUND_STATE, coeff, vars)


def _ref_ntr_lhz_z(coeff, mono, registry):
    vars, coeff, _ = _inputs("ntr_lhz_z", coeff, mono, registry)
    ta = registry.add_auxiliary(Domain.TERNARY, "ntr_lhz_z")
    out = _ref_rbl_quartic_z(registry, vars, ta).scale(-coeff)
    return _result("ntr_lhz_z", registry, out, [ta], Guarantee.GROUND_STATE, coeff, vars)


REF_APPLIERS = {
    "ntr_kzfd": _ref_ntr_kzfd,
    "ntr_abcg": _ref_ntr_abcg,
    "ntr_abcg2": _ref_ntr_abcg2,
    "ntr_gbp": _ref_ntr_gbp,
    "ntr_rbl": _ref_ntr_rbl,
    "ptr_bg": _ref_ptr_bg,
    "ptr_ishikawa": _ref_ptr_ishikawa,
    "ptr_bcr3": _ref_ptr_bcr3,
    "ptr_bcr4": _ref_ptr_bcr4,
    "ptr_kz": _ref_ptr_kz,
    "ptr_gbp": _ref_ptr_gbp,
    "ptr_bcr1": _ref_ptr_bcr1,
    "ptr_bcr2": _ref_ptr_bcr2,
    "ptr_kz_z": _ref_ptr_kz_z,
    "ptr_rbl_3to2": _ref_ptr_rbl_3to2,
    "ptr_rbl_4to2": _ref_ptr_rbl_4to2,
    "ntr_lhz": _ref_ntr_lhz,
    "ntr_lhz_z": _ref_ntr_lhz_z,
}


# ---------------------------------------------------------------------------
# Reference builders: structured gadgets


def _ref_sfr_bcr(variant, spec, vars, registry):
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


def _ref_exact_c_indicator(spec, vars, registry):
    vars = sorted(vars)
    total = Polynomial.zero(registry)
    for j in range(spec.c, spec.n + 1):
        weight = Fraction((-1) ** (j - spec.c) * comb(j, spec.c)) * spec.gamma
        for subset in itertools.combinations(vars, j):
            total = total + Polynomial.product(registry, subset, weight)
    return total


def _ref_czw_counting_hamiltonian(vars, registry):
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


def _ref_czw_target(bias, vars, registry):
    total = Polynomial.zero(registry)
    for j, beta in enumerate(bias, start=1):
        if not beta:
            continue
        for s in range(0, j):
            total = total + _ref_exact_c_indicator(
                ExactCSpec(n=4, c=s, gamma=Fraction(1)), vars, registry
            ).scale(beta)
    return total


def _ref_spin_product_in_boolean(vars, registry):
    total = Polynomial.constant(registry, 1)
    for size, weight in ((1, -2), (2, 4), (3, -8), (4, 16)):
        for subset in itertools.combinations(sorted(vars), size):
            total = total + Polynomial.product(registry, subset, weight)
    return total


def _ref_czw_count4(lam, target_bias, vars, registry, max_states=DEFAULT_STATE_CAP):
    vars = sorted(vars)
    if isinstance(target_bias, str):
        try:
            bias = CZW_PRESETS[target_bias]
        except KeyError:
            raise InvalidParameter(f"unknown preset {target_bias!r}") from None
        if target_bias == "b1b2b3b4":
            target = Polynomial.product(registry, vars)
        else:
            target = _ref_spin_product_in_boolean(vars, registry)
    else:
        bias = tuple(Fraction(b) for b in target_bias)
        if len(bias) != 4:
            raise InvalidParameter("the bias must list exactly 4 coefficients")
        target = _ref_czw_target(bias, vars, registry)
        if any(bias):  # a bias checks its variables before lam
            for var in vars:
                if registry.domain(var) is not Domain.BOOLEAN:
                    raise DomainViolation(f"variable {var} is not a {{0,1}} variable")

    if lam is None:
        lam = 1 + sum(abs(b) for b in bias)
    lam = Fraction(lam)
    if lam <= 0:
        raise InvalidParameter(f"lam must be positive, got {lam}")

    h_count, aux = _ref_czw_counting_hamiltonian(vars, registry)
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


# ---------------------------------------------------------------------------
# Reference builders: multi-term gadgets


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
    bi = Polynomial.variable(registry, i)
    bj = Polynomial.variable(registry, j)
    a = Polynomial.variable(registry, ba)
    penalty_poly = (bi * bj - 2 * bi * a - 2 * bj * a + 3 * a).scale(penalty)
    output = Polynomial(registry, rewritten) + penalty_poly
    trace = (
        f"rosenberg({registry.display_name(i)},{registry.display_name(j)} -> "
        f"{registry.display_name(ba)}, penalty={penalty})"
    )
    return GadgetResult(output, (ba,), Guarantee.POINTWISE_MIN, trace)


def _ref_fgbz_negative(group, registry):
    common_vars = monomial_vars(group.common)
    if len(common_vars) < 2:
        raise CommonTooSmall("the common component must have at least 2 variables")
    _require_boolean(registry, common_vars)
    for _, coeff in group.members:
        if coeff >= 0:
            raise MixedSigns("fgbz_negative needs all-negative coefficients")

    ba = registry.add_auxiliary(Domain.BOOLEAN, "fgbz_negative")
    a = Polynomial.variable(registry, ba)
    common_sum = Polynomial.zero(registry)
    for var in common_vars:
        common_sum = common_sum + Polynomial.variable(registry, var)
    bracket = Polynomial.zero(registry)
    for mono, coeff in group.members:
        tail = tuple((v, e) for v, e in mono if v not in common_vars)
        _require_boolean(registry, monomial_vars(tail))
        tail_poly = Polynomial(registry, {tail: Fraction(1)})
        bracket = bracket + (common_sum - len(common_vars) + tail_poly).scale(coeff)
    output = a * bracket
    names = "".join(registry.display_name(v) for v in common_vars)
    trace = f"fgbz_negative(C={names}, {len(group.members)} terms)"
    return GadgetResult(output, (ba,), Guarantee.POINTWISE_MIN, trace)


def _ref_fgbz_positive(group, registry):
    common_vars = monomial_vars(group.common)
    _require_boolean(registry, common_vars)
    for _, coeff in group.members:
        if coeff <= 0:
            raise MixedSigns("fgbz_positive needs all-positive coefficients")

    ba = registry.add_auxiliary(Domain.BOOLEAN, "fgbz_positive")
    a = Polynomial.variable(registry, ba)
    total_weight = sum((coeff for _, coeff in group.members), Fraction(0))
    common_poly = Polynomial(registry, {group.common: Fraction(1)})
    output = a * common_poly.scale(total_weight)
    one_minus_a = 1 - a
    for mono, coeff in group.members:
        tail = tuple((v, e) for v, e in mono if v not in common_vars)
        _require_boolean(registry, monomial_vars(tail))
        tail_poly = Polynomial(registry, {tail: Fraction(1)})
        output = output + one_minus_a * tail_poly.scale(coeff)
    names = "".join(registry.display_name(v) for v in common_vars)
    trace = f"fgbz_positive(C={names}, {len(group.members)} terms)"
    return GadgetResult(output, (ba,), Guarantee.POINTWISE_MIN, trace)


NEW = SimpleNamespace(
    appliers={name: row.apply for name, row in GADGETS.items()},
    ntr_abcg2=single_term.ntr_abcg2,
    ntr_gbp=single_term.ntr_gbp,
    ptr_gbp=single_term.ptr_gbp,
    ntr_kzfd_literals=single_term.ntr_kzfd_literals,
    sfr_bcr=structured.sfr_bcr,
    exact_c_indicator=structured.exact_c_indicator,
    czw_counting_hamiltonian=structured.czw_counting_hamiltonian,
    czw_count4=structured.czw_count4,
    rosenberg_pair=multi_term.rosenberg_pair,
    fgbz_negative=multi_term.fgbz_negative,
    fgbz_positive=multi_term.fgbz_positive,
)
REF = SimpleNamespace(
    appliers=REF_APPLIERS,
    ntr_abcg2=_ref_ntr_abcg2,
    ntr_gbp=_ref_ntr_gbp,
    ptr_gbp=_ref_ptr_gbp,
    ntr_kzfd_literals=_ref_ntr_kzfd_literals,
    sfr_bcr=_ref_sfr_bcr,
    exact_c_indicator=_ref_exact_c_indicator,
    czw_counting_hamiltonian=_ref_czw_counting_hamiltonian,
    czw_count4=_ref_czw_count4,
    rosenberg_pair=_ref_rosenberg_pair,
    fgbz_negative=_ref_fgbz_negative,
    fgbz_positive=_ref_fgbz_positive,
)


# ---------------------------------------------------------------------------
# Comparison


def _snapshot(value):
    if isinstance(value, GadgetResult):
        return list(value.output.terms.items()), value.aux, value.trace, value.guarantee
    if isinstance(value, Polynomial):
        return list(value.terms.items())
    output, aux = value  # czw_counting_hamiltonian
    return list(output.terms.items()), aux


def _outcome(gadgets, case):
    """Run `case` against one implementation on a fresh registry: its output
    (or error type and message) and the registry it leaves behind."""
    registry = VariableRegistry()
    try:
        value = _snapshot(case(gadgets, registry))
    except Exception as error:
        value = (type(error), str(error))
    entries = [registry.entry(v) for v in registry]
    return value, [(e.label, e.domain.tag, e.gadget, e.partner) for e in entries]


def _assert_same(case):
    assert _outcome(NEW, case) == _outcome(REF, case)


def _variables(registry, domain, count):
    return [registry.add_variable(domain) for _ in range(count)]


def _mono(registry, domain, k):
    return tuple((v, 1) for v in _variables(registry, domain, k))


# ---------------------------------------------------------------------------
# Tests


@pytest.mark.parametrize("name", sorted(REF_APPLIERS))
def test_catalog_row_matches_reference(name):
    row = GADGETS[name]
    for k in range(row.min_degree, 13):
        for coeff in COEFFS:
            _assert_same(
                lambda g, r: g.appliers[name](coeff, _mono(r, row.domain, k), r)
            )


@pytest.mark.parametrize("name", sorted(REF_APPLIERS))
def test_repeated_variable_is_rejected_as_a_power(name):
    """A monomial that lists a variable twice holds a squared factor, which
    every catalog row rejects.  The earlier builders accepted it or raised
    Polynomial.product's ValueError, depending on the gadget; summing terms
    treats the repeat as a power, so the gadget contract rejects it first."""
    row = GADGETS[name]
    coeff = Fraction(-1 if row.sign == "negative" else 1)

    def repeated(g, r):
        first, *rest = _variables(r, row.domain, max(row.min_degree, 3) - 1)
        return g.appliers[name](coeff, ((first, 1), (first, 1), *((v, 1) for v in rest)), r)

    value, entries = _outcome(NEW, repeated)
    assert value == (DomainViolation, "gadget monomials use each variable once")
    assert not any(gadget for _, _, gadget, _ in entries)


def test_every_catalog_row_has_a_reference():
    assert set(REF_APPLIERS) == set(GADGETS)


@pytest.mark.parametrize("name", ["ntr_gbp", "ptr_gbp"])
def test_pivots_match_reference(name):
    for pivot in (1, 2, 3, 4):
        for coeff in COEFFS:
            _assert_same(
                lambda g, r: getattr(g, name)(
                    coeff, _mono(r, Domain.BOOLEAN, 3), r, pivot=pivot
                )
            )


def test_abcg2_scale_matches_reference():
    for scale_c in (Fraction(1, 2), 1, 2, Fraction(5, 2)):
        for k in range(3, 13):
            for coeff in COEFFS:
                _assert_same(
                    lambda g, r: g.ntr_abcg2(
                        coeff, _mono(r, Domain.BOOLEAN, k), r, scale_c=scale_c
                    )
                )


def test_kzfd_literals_match_reference():
    """P = 0 is the case where the auxiliary's linear term cancels and is
    added back after the last literal's pair."""
    for n_pos in range(6):
        for n_neg in range(4):
            for coeff in COEFFS:
                def case(g, r):
                    pos = _variables(r, Domain.BOOLEAN, n_pos)
                    neg = _variables(r, Domain.BOOLEAN, n_neg)
                    return g.ntr_kzfd_literals(coeff, pos[::-1], neg[::-1], r)

                _assert_same(case)


def test_kzfd_literals_rejections_match_reference():
    def spin_literal(g, r):
        return g.ntr_kzfd_literals(-1, [r.add_variable(Domain.SPIN)], [], r)

    def shared_literal(g, r):
        b = r.add_variable(Domain.BOOLEAN)
        return g.ntr_kzfd_literals(-1, [b], [b], r)

    for case in (spin_literal, shared_literal):
        _assert_same(case)


def test_lhz_over_existing_lower_id_twins_matches_reference():
    """The {0,1} twins exist before the spins, and in the reverse order."""
    for coeff in COEFFS:
        def case(g, r):
            bs = _variables(r, Domain.BOOLEAN, 4)
            spins = [r.twin(b, Domain.SPIN) for b in reversed(bs)]
            return g.appliers["ntr_lhz"](coeff, tuple((z, 1) for z in sorted(spins)), r)

        _assert_same(case)


def test_sfr_bcr_matches_reference():
    for variant in (1, 2, 3, 4, 5):
        for n in range(1, 7):
            for c in range(-1, n + 2):
                for gamma in (Fraction(1), Fraction(7, 3), BIG, 3, Fraction(0)):
                    spec = ExactCSpec(n, c, gamma)
                    _assert_same(
                        lambda g, r: g.sfr_bcr(variant, spec, _variables(r, Domain.BOOLEAN, n), r)
                    )


def test_sfr_bcr_rejections_match_reference():
    def spin_input(g, r):
        return g.sfr_bcr(1, ExactCSpec(2, 1), _variables(r, Domain.SPIN, 2), r)

    def repeated_input(g, r):
        b = r.add_variable(Domain.BOOLEAN)
        return g.sfr_bcr(1, ExactCSpec(2, 1), [b, b], r)

    for case in (spin_input, repeated_input):
        _assert_same(case)


def test_exact_c_indicator_matches_reference():
    for n in range(0, 7):
        for c in range(0, n + 1):
            for gamma in (Fraction(1), Fraction(-7, 3), BIG):
                spec = ExactCSpec(n, c, gamma)
                _assert_same(lambda g, r: g.exact_c_indicator(
                    spec, _variables(r, Domain.BOOLEAN, n)[::-1], r
                ))

    def repeated(g, r):
        b, other = _variables(r, Domain.BOOLEAN, 2)
        return g.exact_c_indicator(ExactCSpec(3, 1), [b, other, b], r)

    _assert_same(repeated)


CZW_BIASES = [
    "b1b2b3b4",
    "z1z2z3z4",
    "nope",
    (1, 0, -2, 3),
    (0, 0, 0, 0),
    (Fraction(7, 3), -BIG, 0, 1),
    (1, 2, 3),
]

# Rejections whose order a rewrite of the target must keep: a bias checks its
# variables (distinct, then {0,1}) before lam, and only when some entry is
# nonzero; a preset checks only that they are distinct.  Each case must match
# the reference and is pinned by its outcome as well.
LAM_ZERO = (InvalidParameter, "lam must be positive, got 0")
NOT_BOOLEAN = (DomainViolation, "variable 0 is not a {0,1} variable")
CZW_REJECTIONS = [
    # bias, domain, variable count, first variable repeated, lam, outcome
    ((1, 0, 0, 0), Domain.SPIN, 4, False, 0, NOT_BOOLEAN),
    ((0, 0, 0, 0), Domain.BOOLEAN, 4, True, 0, LAM_ZERO),
    ((1, 0, 0, 0), Domain.SPIN, 3, False, None, NOT_BOOLEAN),
    ("z1z2z3z4", Domain.SPIN, 5, False, 0, LAM_ZERO),
]


def test_czw_matches_reference():
    for bias in CZW_BIASES:
        for lam in (None, Fraction(1, 100), 0, 40):
            for domain in (Domain.BOOLEAN, Domain.SPIN, Domain.TERNARY):
                _assert_same(
                    lambda g, r: g.czw_count4(lam, bias, _variables(r, domain, 4)[::-1], r)
                )
    for count in (3, 4, 5):
        _assert_same(
            lambda g, r: g.czw_counting_hamiltonian(_variables(r, Domain.BOOLEAN, count), r)
        )
    _assert_same(lambda g, r: g.czw_counting_hamiltonian(_variables(r, Domain.SPIN, 4), r))

    def repeated_hamiltonian(g, r):
        b, *rest = _variables(r, Domain.BOOLEAN, 3)
        return g.czw_counting_hamiltonian([b, b, *rest], r)

    # the same ValueError, now raised before the four auxiliaries are allocated
    new, ref = _outcome(NEW, repeated_hamiltonian), _outcome(REF, repeated_hamiltonian)
    assert new[0] == ref[0] == (ValueError, "product() expects distinct variables")
    assert (len(new[1]), len(ref[1])) == (3, 7)

    def repeated(g, r):
        b, *rest = _variables(r, Domain.BOOLEAN, 3)
        return g.czw_count4(None, "z1z2z3z4", [b, b, *rest], r)

    _assert_same(repeated)

    for bias, domain, count, repeat, lam, want in CZW_REJECTIONS:

        def rejected(g, r):
            vars = _variables(r, domain, count)
            return g.czw_count4(lam, bias, vars[:1] * repeat + vars[repeat:], r)

        _assert_same(rejected)
        value, entries = _outcome(NEW, rejected)
        assert value == want
        assert not any(gadget for _, _, gadget, _ in entries)


def _random_boolean(registry, seed, term_count):
    rng = random.Random(seed)
    bs = _variables(registry, Domain.BOOLEAN, rng.randint(5, 12))
    terms = {}
    for _ in range(term_count):
        mono = tuple((v, 1) for v in sorted(rng.sample(bs, rng.randint(1, 5))))
        terms[mono] = terms.get(mono, 0) + rng.choice(
            (Fraction(-3), Fraction(-1, 2), Fraction(1), Fraction(5, 2), BIG, -BIG)
        )
    return Polynomial(registry, terms)


def test_multi_term_matches_reference():
    for seed in range(12):
        for sign in ("negative", "positive"):
            count = len(discover_fgbz_groups(_random_boolean(VariableRegistry(), seed, 30), sign))
            for index in range(min(count, 4)):
                def case(g, r, seed=seed, sign=sign, index=index):
                    group = discover_fgbz_groups(_random_boolean(r, seed, 30), sign)[index]
                    return getattr(g, f"fgbz_{sign}")(group, r)

                _assert_same(case)
        p = _random_boolean(VariableRegistry(), seed, 30)
        bound = rosenberg_auto_penalty(p, *(choose_rosenberg_pair(p) or (0, 1))) - 1
        for penalty in ("auto", Fraction(7, 3), bound, 0):
            def case(g, r, seed=seed, penalty=penalty):
                p = _random_boolean(r, seed, 30)
                pair = choose_rosenberg_pair(p) or (0, 1)
                return g.rosenberg_pair(p, *pair, penalty=penalty)

            if penalty != "auto" and 0 < penalty < bound:
                # below the sum of |c| over the terms holding the pair: refused
                # before an auxiliary is allocated
                value, registry = _outcome(NEW, case)
                assert value[0] is InvalidParameter and "below" in value[1]
                assert len(registry) == len(p.registry)
            else:
                _assert_same(case)


def test_multi_term_edge_groups_match_reference():
    """Groups that no discovery pass builds: a member equal to the common
    part, an empty common part, and rejected inputs."""

    def group_case(sign, common_size, member_sizes, coeff, tail_domain=Domain.BOOLEAN):
        def case(g, r):
            common = tuple((v, 1) for v in _variables(r, Domain.BOOLEAN, common_size))
            members = []
            for size in member_sizes:
                tail = tuple((v, 1) for v in _variables(r, tail_domain, size))
                members.append((tuple(sorted(common + tail)), Fraction(coeff)))
            return getattr(g, f"fgbz_{sign}")(TermGroup(tuple(members), common), r)

        return case

    cases = [
        group_case("negative", 2, (0, 1, 2), -3),
        group_case("negative", 3, (1, 1), -1),
        group_case("negative", 1, (2, 2), -1),
        group_case("negative", 2, (1, 2), 1),
        group_case("negative", 2, (1, 2), -1, Domain.SPIN),
        group_case("positive", 0, (0, 2), 2),
        group_case("positive", 0, (0,), 2),
        group_case("positive", 1, (0, 1, 3), Fraction(7, 3)),
        group_case("positive", 1, (1, 2), -1),
        group_case("positive", 1, (1, 2), 1, Domain.SPIN),
    ]
    for case in cases:
        (value, rows), (ref_value, ref_rows) = _outcome(NEW, case), _outcome(REF, case)
        assert value == ref_value
        if isinstance(value[0], type):
            # refused: the reference allocates its auxiliary before it checks
            # the tails, while the library leaves the registry as it was
            assert rows == [row for row in ref_rows if row[2] is None]
        else:
            assert rows == ref_rows

    def rosenberg_same(g, r):
        p = _random_boolean(r, 0, 10)
        return g.rosenberg_pair(p, 0, 0)

    def rosenberg_absent(g, r):
        b = _variables(r, Domain.BOOLEAN, 4)
        return g.rosenberg_pair(Polynomial.product(r, b[:3]), b[0], b[3])

    def rosenberg_spin(g, r):
        z = _variables(r, Domain.SPIN, 3)
        return g.rosenberg_pair(Polynomial.product(r, z), z[0], z[1])

    for case in (rosenberg_same, rosenberg_absent, rosenberg_spin):
        _assert_same(case)
