"""Quadratization gadgets for a single monomial.

Negative-term reductions (ntr_*) rewrite one monomial with a negative
coefficient; positive-term reductions (ptr_*) handle positive coefficients.
Every formula below is stated for a unit coefficient.  Each gadget multiplies
each output term's coefficient by |coeff| once (a bracket form scales its one
product), which is sound because min_a(s*g) = s*min_a(g) for s > 0.
Each gadget checks its term against its own catalog row (domain, sign,
degree range); wrong-sign inputs raise WrongSign rather than being converted
silently: sign routing belongs to the pipeline.

Gadgets whose printed source formulas could not be confirmed in advance are
registered as experimental: applying one runs the exhaustive oracle on the
spot and the result is only returned when its claimed guarantee holds.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from ..errors import (
    DomainViolation,
    InvalidParameter,
    UnknownGadget,
    VerificationFailed,
    WrongDegree,
    WrongSign,
)
from ..poly import (
    Domain,
    Monomial,
    Polynomial,
    VariableRegistry,
    _require_boolean,
    monomial_degree,
)
from ..verify import DEFAULT_STATE_CAP, check_claim
from .base import (
    EXPERIMENTAL,
    GADGETS,
    MUST_PASS,
    GadgetDescriptor,
    GadgetResult,
    Guarantee,
)


def _inputs(name: str, coeff, mono: Monomial, registry: VariableRegistry):
    """Check one term against the named gadget's catalog row (domain, sign,
    degree range) and return (sorted variables, coefficient, degree)."""
    row = GADGETS[name]
    vars = sorted(var for var, _ in mono)
    for var, exp in mono:
        if exp != 1:
            raise DomainViolation("gadget monomials use each variable once")
        if registry.domain(var) is not row.domain:
            raise DomainViolation(f"variable {var} is not in the {row.domain.tag!r} domain")
    if len(set(vars)) != len(vars):  # a repeated factor is a power too
        raise DomainViolation("gadget monomials use each variable once")
    coeff = _check_sign(coeff, row.sign)
    k, low, high = len(mono), row.min_degree, row.max_degree
    if k < low or (high is not None and k > high):
        bound = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise WrongDegree(f"gadget needs degree {bound}, got {k}")
    return vars, coeff, k


def _check_sign(coeff: Fraction, want: str) -> Fraction:
    coeff = Fraction(coeff)
    if want == "negative" and coeff >= 0:
        raise WrongSign(f"expected a negative coefficient, got {coeff}")
    if want == "positive" and coeff <= 0:
        raise WrongSign(f"expected a positive coefficient, got {coeff}")
    if not coeff:
        raise WrongSign("coefficient must be nonzero")
    return coeff


def _result(name, registry, output, aux, guarantee, coeff, vars) -> GadgetResult:
    labels = ",".join(registry.display_name(a) for a in aux)
    body = "".join(registry.display_name(v) for v in vars)
    trace = f"{name}({coeff}*{body})" + (f" aux={labels}" if labels else "")
    return GadgetResult(output=output, aux=tuple(aux), guarantee=guarantee, trace=trace)


# ---------------------------------------------------------------------------
# Negative term reductions


def ntr_kzfd(coeff, mono: Monomial, registry: VariableRegistry) -> GadgetResult:
    """-b1..bk -> (k-1)*ba - sum_i bi*ba, one auxiliary, full spectrum.

    Every quadratic term in the output has a negative coefficient, so the
    result is entirely submodular.  Valid for any k >= 1.
    """
    vars, coeff, k = _inputs("ntr_kzfd", coeff, mono, registry)
    ba = registry.add_auxiliary(Domain.BOOLEAN, "ntr_kzfd")
    out = Polynomial.from_products(registry, [
        ((ba,), (1 - k) * coeff), *(((v, ba), coeff) for v in vars)
    ])
    return _result("ntr_kzfd", registry, out, [ba], Guarantee.POINTWISE_MIN, coeff, vars)


def ntr_abcg(coeff, mono: Monomial, registry: VariableRegistry) -> GadgetResult:
    """-b1..bk -> sum_{i<k} bi - sum_{i<k} bi*bk - sum_i bi*ba + (k-1)*bk*ba.

    One auxiliary; exactly one non-submodular quadratic term, (k-1)*bk*ba.
    The last variable of the monomial plays the asymmetric role.
    """
    vars, coeff, k = _inputs("ntr_abcg", coeff, mono, registry)
    head, bk = vars[:-1], vars[-1]
    ba = registry.add_auxiliary(Domain.BOOLEAN, "ntr_abcg")
    out = Polynomial.from_products(registry, [
        *(((v,), -coeff) for v in head),
        *(((v, bk), coeff) for v in head),
        *(((v, ba), coeff) for v in vars),
        ((bk, ba), (1 - k) * coeff),
    ])
    return _result("ntr_abcg", registry, out, [ba], Guarantee.POINTWISE_MIN, coeff, vars)


def ntr_abcg2(coeff, mono: Monomial, registry: VariableRegistry, scale_c=2) -> GadgetResult:
    """-b1..bk -> (C*k - 1)*ba - C*sum_i bi*ba for a constant C >= 1.

    The only non-submodular term is linear.  C = 1 reproduces ntr_kzfd
    exactly; the default C = 2 is the published form.
    """
    vars, coeff, k = _inputs("ntr_abcg2", coeff, mono, registry)
    scale_c = Fraction(scale_c)
    if scale_c < 1:
        raise InvalidParameter(f"C must be >= 1, got {scale_c}")
    ba = registry.add_auxiliary(Domain.BOOLEAN, "ntr_abcg2")
    out = Polynomial.from_products(registry, [
        ((ba,), (1 - scale_c * k) * coeff), *(((v, ba), scale_c * coeff) for v in vars)
    ])
    return _result("ntr_abcg2", registry, out, [ba], Guarantee.POINTWISE_MIN, coeff, vars)


def ntr_gbp(coeff, mono: Monomial, registry: VariableRegistry, pivot: int = 1) -> GadgetResult:
    """Asymmetric cubic reduction: with pivot p and the other two q, r,

        -bp*bq*br -> ba*(-bp + bq + br) - bp*bq - bp*br + bp
    """
    vars, coeff, _ = _inputs("ntr_gbp", coeff, mono, registry)
    if pivot not in (1, 2, 3):
        raise InvalidParameter("pivot must be 1, 2 or 3")
    p = vars[pivot - 1]
    q, r = (v for v in vars if v != p)
    ba = registry.add_auxiliary(Domain.BOOLEAN, "ntr_gbp")
    out = Polynomial.from_products(registry, [
        ((q, ba), -coeff), ((r, ba), -coeff), ((p, ba), coeff),
        ((p, q), coeff), ((p, r), coeff), ((p,), -coeff),
    ])
    return _result("ntr_gbp", registry, out, [ba], Guarantee.POINTWISE_MIN, coeff, vars)


def _rbl_square(registry: VariableRegistry, vars, ta: int) -> Polynomial:
    """(1 + 4*ta + sum_i zi)^2 - 1."""
    inner = Polynomial.from_products(registry, [((ta,), 4), ((), 1), *(((v,), 1) for v in vars)])
    return inner * inner - 1


def ntr_rbl(coeff, mono: Monomial, registry: VariableRegistry) -> GadgetResult:
    """-z1*z2*z3 -> (1 + 4*ta + z1 + z2 + z3)^2 - 1 with a ternary auxiliary.

    Only the ground-state manifold is reproduced; excited energies shift.
    """
    vars, coeff, _ = _inputs("ntr_rbl", coeff, mono, registry)
    ta = registry.add_auxiliary(Domain.TERNARY, "ntr_rbl")
    out = _rbl_square(registry, vars, ta).scale(-coeff)
    return _result("ntr_rbl", registry, out, [ta], Guarantee.GROUND_STATE, coeff, vars)


def ntr_kzfd_literals(coeff, pos_vars, neg_vars, registry: VariableRegistry) -> GadgetResult:
    """ntr_kzfd applied to a product of literals (some variables negated):

        -prod(bi, i in P) * prod(1-bj, j in N)
            -> (k-1)*ba - sum_P bi*ba - sum_N (1-bj)*ba,  k = |P| + |N|

    This is the generalized flipped form that keeps the output submodular in
    the flipped literals; the pipeline uses it for odd-degree split tails.
    """
    coeff = _check_sign(coeff, "negative")
    pos_vars, neg_vars = sorted(pos_vars), sorted(neg_vars)
    vars = pos_vars + neg_vars
    if len(set(vars)) != len(vars) or not vars:
        raise InvalidParameter("literal sets must be disjoint and nonempty")
    _require_boolean(registry, vars)
    k = len(vars)
    ba = registry.add_auxiliary(Domain.BOOLEAN, "ntr_kzfd")
    # Each -(1-bj)*ba adds bj*ba before -ba, so with no positive literal the
    # ba term cancels to zero and is added back last.
    out = Polynomial.from_products(registry, [
        ((ba,), (1 - k) * coeff),
        *(((v, ba), coeff) for v in pos_vars),
        *(term for v in neg_vars for term in (((v, ba), -coeff), ((ba,), coeff))),
    ])
    return _result("ntr_kzfd~", registry, out, [ba], Guarantee.POINTWISE_MIN, coeff, vars)


# ---------------------------------------------------------------------------
# Positive term reductions


def ptr_bg(coeff, mono: Monomial, registry: VariableRegistry) -> GadgetResult:
    """b1..bk -> sum_{i=1}^{k-2} ba_i*(k-i-1 + bi - sum_{j>i} bj) + b_{k-1}*b_k."""
    vars, coeff, k = _inputs("ptr_bg", coeff, mono, registry)
    aux = [registry.add_auxiliary(Domain.BOOLEAN, "ptr_bg") for _ in range(k - 2)]
    products = [(vars[-2:], coeff)]
    for i, ba in enumerate(aux, start=1):
        products += [((ba,), (k - i - 1) * coeff), ((vars[i - 1], ba), coeff)]
        products += [((v, ba), -coeff) for v in vars[i:]]
    out = Polynomial.from_products(registry, products)
    return _result("ptr_bg", registry, out, aux, Guarantee.POINTWISE_MIN, coeff, vars)


def ptr_ishikawa(coeff, mono: Monomial, registry: VariableRegistry) -> GadgetResult:
    """Symmetric-polynomial reduction of a positive monomial:

        b1..bk -> sum_{i=1}^{n_k} ba_i*(c_{i,k}*(-sum_j bj + 2i) - 1)
                  + sum_{i<j} bi*bj

    with n_k = floor((k-1)/2) auxiliaries and c_{i,k} = 1 when i = n_k and k
    is odd, else 2.  Reproduces the full spectrum; all k(k-1)/2 original-pair
    quadratics are non-submodular.
    """
    vars, coeff, k = _inputs("ptr_ishikawa", coeff, mono, registry)
    n_k = (k - 1) // 2
    aux = [registry.add_auxiliary(Domain.BOOLEAN, "ptr_ishikawa") for _ in range(n_k)]
    products = [(pair, coeff) for pair in combinations(vars, 2)]
    for i, ba in enumerate(aux, start=1):
        c_ik = 1 if (i == n_k and k % 2 == 1) else 2
        products += [((v, ba), -c_ik * coeff) for v in vars]
        products.append(((ba,), (2 * i * c_ik - 1) * coeff))
    out = Polynomial.from_products(registry, products)
    return _result("ptr_ishikawa", registry, out, aux, Guarantee.POINTWISE_MIN, coeff, vars)


def _log2_ceil(k: int) -> int:
    """ceil(log2 k) for k >= 1, and 0 for k <= 1."""
    return (k - 1).bit_length() if k >= 1 else 0


def _bcr3_m(k: int) -> int:
    # Smallest m whose auxiliary range [0, 2^m - 1] can represent
    # 2^m - k + sum(b) for every sum(b) in [0, k]; i.e. 2^m >= k.
    return max(1, _log2_ceil(k))


def _counter(registry: VariableRegistry, offset: int, vars, aux, first_weight: int):
    """offset + sum_i bi - sum_i first_weight*2^(i-1)*ba_i."""
    return Polynomial.from_products(registry, [
        ((), offset), *(((v,), 1) for v in vars),
        *(((ba,), -first_weight * 2**i) for i, ba in enumerate(aux)),
    ])


def ptr_bcr3(coeff, mono: Monomial, registry: VariableRegistry) -> GadgetResult:
    """b1..bk -> (2^m - k + sum_i bi - sum_{i=1}^m 2^{i-1}*ba_i)^2.

    Binary-counter reduction with m = ceil(log2 k) auxiliaries: when any bi is
    0 the auxiliaries can cancel the bracket exactly, and when all are 1 the
    best bracket value is 1.
    """
    vars, coeff, k = _inputs("ptr_bcr3", coeff, mono, registry)
    m = _bcr3_m(k)
    aux = [registry.add_auxiliary(Domain.BOOLEAN, "ptr_bcr3") for _ in range(m)]
    bracket = _counter(registry, 2**m - k, vars, aux, 1)
    out = (bracket * bracket).scale(coeff)
    return _result("ptr_bcr3", registry, out, aux, Guarantee.POINTWISE_MIN, coeff, vars)


def _bcr4_m(k: int) -> int:
    # Smallest m >= 1 with k <= 2^(m+1).
    return max(1, _log2_ceil(k) - 1)


def ptr_bcr4(coeff, mono: Monomial, registry: VariableRegistry) -> GadgetResult:
    """b1..bk -> (1/2)*(N + X)*(N + X - 1) with N = 2^(m+1) - k and
    X = sum_i bi - sum_{i=1}^m 2^i*ba_i, for the smallest m with k <= 2^(m+1).

    ceil(log2 k) - 1 auxiliaries: one fewer than ptr_bcr3 because the product
    of consecutive integers vanishes on {0, 1}, not just on {0}.
    """
    vars, coeff, k = _inputs("ptr_bcr4", coeff, mono, registry)
    m = _bcr4_m(k)
    aux = [registry.add_auxiliary(Domain.BOOLEAN, "ptr_bcr4") for _ in range(m)]
    bracket = _counter(registry, 2 ** (m + 1) - k, vars, aux, 2)
    out = (bracket * (bracket - 1)).scale(coeff / 2)
    return _result("ptr_bcr4", registry, out, aux, Guarantee.POINTWISE_MIN, coeff, vars)


def ptr_kz(coeff, mono: Monomial, registry: VariableRegistry) -> GadgetResult:
    """Minimum-selection reduction of a positive cubic:

        b1*b2*b3 -> 1 - (ba + b1 + b2 + b3) + ba*(b1 + b2 + b3)
                    + b1*b2 + b1*b3 + b2*b3

    All six possible quadratic terms appear and all are non-submodular.
    Negative cubics are the NTR family's job, so they are rejected here.
    """
    vars, coeff, _ = _inputs("ptr_kz", coeff, mono, registry)
    ba = registry.add_auxiliary(Domain.BOOLEAN, "ptr_kz")
    out = Polynomial.from_products(registry, [
        ((ba,), -coeff), *(((v,), -coeff) for v in vars), ((), coeff),
        *(((v, ba), coeff) for v in vars), *((pair, coeff) for pair in combinations(vars, 2)),
    ])
    return _result("ptr_kz", registry, out, [ba], Guarantee.POINTWISE_MIN, coeff, vars)


def ptr_gbp(coeff, mono: Monomial, registry: VariableRegistry, pivot: int = 1) -> GadgetResult:
    """Asymmetric positive cubic reduction: with pivot p and the others q, r,

        bp*bq*br -> ba - bq*ba - br*ba + bp*ba + bq*br
    """
    vars, coeff, _ = _inputs("ptr_gbp", coeff, mono, registry)
    if pivot not in (1, 2, 3):
        raise InvalidParameter("pivot must be 1, 2 or 3")
    p = vars[pivot - 1]
    q, r = (v for v in vars if v != p)
    ba = registry.add_auxiliary(Domain.BOOLEAN, "ptr_gbp")
    out = Polynomial.from_products(registry, [
        ((q, ba), -coeff), ((ba,), coeff), ((r, ba), -coeff), ((p, ba), coeff), ((q, r), coeff),
    ])
    return _result("ptr_gbp", registry, out, [ba], Guarantee.POINTWISE_MIN, coeff, vars)


# ---------------------------------------------------------------------------
# Experimental gadgets (formulas as printed in the source; oracle-gated)


def _x_ptr_bcr1(coeff, mono, registry):
    vars, coeff, k = _inputs("ptr_bcr1", coeff, mono, registry)
    if k % 2 == 0:
        raise WrongDegree("ptr_bcr1 is stated for odd k only")
    aux = [registry.add_auxiliary(Domain.BOOLEAN, "ptr_bcr1") for _ in range((k - 1) // 2)]
    products = [((v,), coeff) for v in vars] + [(pair, coeff) for pair in combinations(vars, 2)]
    for i, ba in enumerate(aux, start=1):
        products += [((v, ba), -coeff) for v in vars]
        products.append(((ba,), (4 * i - 3) * coeff))
    out = Polynomial.from_products(registry, products)
    return _result("ptr_bcr1", registry, out, aux, Guarantee.POINTWISE_MIN, coeff, vars)


def _x_ptr_bcr2(coeff, mono, registry):
    vars, coeff, _ = _inputs("ptr_bcr2", coeff, mono, registry)
    ba = registry.add_auxiliary(Domain.BOOLEAN, "ptr_bcr2")
    bracket = _counter(registry, 0, vars, [ba], 2)
    out = (bracket * (bracket - 1)).scale(coeff / 2)
    return _result("ptr_bcr2", registry, out, [ba], Guarantee.POINTWISE_MIN, coeff, vars)


def _x_ptr_kz_z(coeff, mono, registry):
    vars, coeff, _ = _inputs("ptr_kz_z", coeff, mono, registry)
    za = registry.add_auxiliary(Domain.SPIN, "ptr_kz_z")
    weight = abs(coeff)
    out = Polynomial.from_products(registry, [
        *(((v,), coeff) for v in vars), ((za,), coeff), ((), 3 * weight),
        *(((v, za), 2 * weight) for v in vars),
        *((pair, weight) for pair in combinations(vars, 2)),
    ])
    return _result("ptr_kz_z", registry, out, [za], Guarantee.POINTWISE_MIN, coeff, vars)


def _x_ptr_rbl_3to2(coeff, mono, registry):
    vars, coeff, _ = _inputs("ptr_rbl_3to2", coeff, mono, registry)
    ta = registry.add_auxiliary(Domain.TERNARY, "ptr_rbl_3to2")
    out = _rbl_square(registry, vars, ta).scale(coeff)
    return _result("ptr_rbl_3to2", registry, out, [ta], Guarantee.GROUND_STATE, coeff, vars)


def _ternary_quartic(registry, vars, ta, weights, coeff) -> Polynomial:
    """coeff * (w0*ta^2 + w1*ta*sum_i vi + w2*sum_{i<j} vi*vj + w3)."""
    square, linear, pair, const = (w * coeff for w in weights)
    return Polynomial.from_products(registry, [
        ((ta, ta), square), *(((v, ta), linear) for v in vars),
        *((uv, pair) for uv in combinations(vars, 2)), ((), const),
    ])


def _x_ptr_rbl_4to2(coeff, mono, registry):
    vars, coeff, _ = _inputs("ptr_rbl_4to2", coeff, mono, registry)
    ta = registry.add_auxiliary(Domain.TERNARY, "ptr_rbl_4to2")
    out = _ternary_quartic(registry, vars, ta, (16, 4, 2, 4), coeff)
    return _result("ptr_rbl_4to2", registry, out, [ta], Guarantee.GROUND_STATE, coeff, vars)


def _x_ntr_lhz(coeff, mono, registry):
    # The printed form couples a ternary auxiliary to the {0,1} images of the
    # spins, so the output lives over the boolean twins of the input.
    vars, coeff, _ = _inputs("ntr_lhz", coeff, mono, registry)
    twins = [registry.twin(v, Domain.BOOLEAN) for v in vars]
    ta = registry.add_auxiliary(Domain.TERNARY, "ntr_lhz")
    out = _ternary_quartic(registry, twins, ta, (16, 8, 8, 16), -coeff)
    return _result("ntr_lhz", registry, out, [ta], Guarantee.GROUND_STATE, coeff, vars)


def _x_ntr_lhz_z(coeff, mono, registry):
    vars, coeff, _ = _inputs("ntr_lhz_z", coeff, mono, registry)
    ta = registry.add_auxiliary(Domain.TERNARY, "ntr_lhz_z")
    out = _ternary_quartic(registry, vars, ta, (16, 4, 2, 4), -coeff)
    return _result("ntr_lhz_z", registry, out, [ta], Guarantee.GROUND_STATE, coeff, vars)


def evaluate_experimental(
    name: str,
    coeff,
    mono: Monomial,
    registry: VariableRegistry,
    max_states: int = DEFAULT_STATE_CAP,
):
    """Build an experimental gadget and run its claimed-guarantee check.

    Returns (GadgetResult, VerificationReport) without raising on failure, so
    callers can record the verdict.
    """
    if name not in GADGETS or GADGETS[name].status != EXPERIMENTAL:
        raise UnknownGadget(f"no experimental gadget named {name!r}")
    result = GADGETS[name].apply(coeff, mono, registry)
    target = Polynomial(registry, {mono: Fraction(coeff)})
    return result, check_claim(result.guarantee, target, result.output, result.aux, max_states)


def experimental_single_term(
    name: str,
    coeff,
    mono: Monomial,
    registry: VariableRegistry,
    max_states: int = DEFAULT_STATE_CAP,
) -> GadgetResult:
    """Apply an experimental gadget, exposing the result only if the oracle
    confirms its claimed guarantee; otherwise VerificationFailed carries the
    counterexample report."""
    result, report = evaluate_experimental(name, coeff, mono, registry, max_states)
    if not report.passed:
        raise VerificationFailed(
            f"experimental gadget {name!r} failed its {report.mode} check", report
        )
    return result


# ---------------------------------------------------------------------------
# Catalog registration


def _register_all():
    B, Z = Domain.BOOLEAN, Domain.SPIN
    POINTWISE, GROUND = Guarantee.POINTWISE_MIN, Guarantee.GROUND_STATE
    entries = [
        # applier, name, sign, domain, k-range, aux(k), guarantee, status, summary
        (ntr_kzfd, "ntr_kzfd", "negative", B, 1, None, lambda k: 1, POINTWISE,
         MUST_PASS, "single aux, fully submodular output"),
        (ntr_abcg, "ntr_abcg", "negative", B, 3, None, lambda k: 1, POINTWISE,
         MUST_PASS, "single aux, one non-submodular quadratic"),
        (ntr_abcg2, "ntr_abcg2", "negative", B, 3, None, lambda k: 1, POINTWISE,
         MUST_PASS, "single aux, non-submodular part is linear"),
        (ntr_gbp, "ntr_gbp", "negative", B, 3, 3, lambda k: 1, POINTWISE,
         MUST_PASS, "asymmetric cubic variant"),
        (ntr_rbl, "ntr_rbl", "negative", Z, 3, 3, lambda k: 1, GROUND,
         MUST_PASS, "spin cubic via one ternary aux"),
        (ptr_bg, "ptr_bg", "positive", B, 3, None, lambda k: k - 2, POINTWISE,
         MUST_PASS, "negated-literal recursion, k-2 aux"),
        (ptr_ishikawa, "ptr_ishikawa", "positive", B, 3, None, lambda k: (k - 1) // 2,
         POINTWISE, MUST_PASS, "symmetric-polynomial reduction, floor((k-1)/2) aux"),
        (ptr_bcr3, "ptr_bcr3", "positive", B, 3, None, _bcr3_m, POINTWISE,
         MUST_PASS, "squared binary counter, ceil(log2 k) aux"),
        (ptr_bcr4, "ptr_bcr4", "positive", B, 3, None, _bcr4_m, POINTWISE,
         MUST_PASS, "halved product counter, ceil(log2 k)-1 aux"),
        (ptr_kz, "ptr_kz", "positive", B, 3, 3, lambda k: 1, POINTWISE,
         MUST_PASS, "minimum selection, all 6 quadratics"),
        (ptr_gbp, "ptr_gbp", "positive", B, 3, 3, lambda k: 1, POINTWISE,
         MUST_PASS, "asymmetric positive cubic"),
        (_x_ptr_bcr1, "ptr_bcr1", "positive", B, 3, None, lambda k: (k - 1) // 2, POINTWISE,
         EXPERIMENTAL, "odd-k counter variant as printed"),
        (_x_ptr_bcr2, "ptr_bcr2", "positive", B, 4, 4, lambda k: 1, POINTWISE,
         EXPERIMENTAL, "quartic single-aux instance"),
        (_x_ptr_kz_z, "ptr_kz_z", "any", Z, 3, 3, lambda k: 1, POINTWISE,
         EXPERIMENTAL, "spin form of minimum selection as printed"),
        (_x_ptr_rbl_3to2, "ptr_rbl_3to2", "positive", Z, 3, 3, lambda k: 1, GROUND,
         EXPERIMENTAL, "ternary-aux spin cubic as printed"),
        (_x_ptr_rbl_4to2, "ptr_rbl_4to2", "positive", Z, 4, 4, lambda k: 1, GROUND,
         EXPERIMENTAL, "ternary-aux spin quartic as printed"),
        (_x_ntr_lhz, "ntr_lhz", "negative", Z, 4, 4, lambda k: 1, GROUND,
         EXPERIMENTAL, "parity gadget, printed {0,1} form"),
        (_x_ntr_lhz_z, "ntr_lhz_z", "negative", Z, 4, 4, lambda k: 1, GROUND,
         EXPERIMENTAL, "parity gadget, printed spin form"),
    ]
    for applier, *fields in entries:
        GADGETS[fields[0]] = GadgetDescriptor(*fields, apply=applier)


_register_all()


def apply_gadget(
    name: str,
    coeff,
    mono: Monomial,
    registry: VariableRegistry,
    max_states: int = DEFAULT_STATE_CAP,
) -> GadgetResult:
    """Apply a cataloged single-term gadget by name.

    Terms of degree <= 2 are returned unchanged with zero auxiliaries (the
    identity is the only safe rewrite there).  Experimental gadgets are
    oracle-gated on the spot.
    """
    if name not in GADGETS:
        raise UnknownGadget(f"no gadget named {name!r}")
    if monomial_degree(mono) <= 2:
        return GadgetResult(
            output=Polynomial(registry, {mono: Fraction(coeff)}),
            aux=(),
            guarantee=Guarantee.POINTWISE_MIN,
            trace=f"identity (degree {monomial_degree(mono)} <= 2)",
        )
    if GADGETS[name].status == EXPERIMENTAL:
        return experimental_single_term(name, coeff, mono, registry, max_states)
    return GADGETS[name].apply(coeff, mono, registry)
