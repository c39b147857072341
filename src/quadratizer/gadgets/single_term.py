"""Quadratization gadgets for a single monomial.

Negative-term reductions (ntr_*) rewrite one monomial with a negative
coefficient; positive-term reductions (ptr_*) handle positive coefficients.
Every formula below is stated for a unit coefficient.  Each gadget multiplies
each output term's coefficient by |coeff| once (a bracket form scales its one
product), which is sound because min_a(s*g) = s*min_a(g) for s > 0.

Each gadget is one `_gadget` catalog row over a function that holds only its
closed form.  The row's applier checks each term against the row: wrong-sign
inputs raise WrongSign rather than being converted silently, since sign
routing belongs to the pipeline.

Gadgets whose printed source formulas could not be confirmed in advance are
registered as experimental: applying one runs the exhaustive oracle on the
spot and the result is only returned when its claimed guarantee holds.
"""

from __future__ import annotations

from itertools import combinations

from ..errors import InvalidParameter, UnknownGadget, WrongDegree, WrongSign
from ..poly import Domain, Monomial, Polynomial, VariableRegistry, _require_boolean, format_fraction
from ..poly import _as_fraction, monomial_degree
from ..verify import DEFAULT_STATE_CAP, check_claim
from .base import EXPERIMENTAL, GADGETS, MUST_PASS, GadgetDescriptor, GadgetResult, Guarantee

B, Z, T = Domain.BOOLEAN, Domain.SPIN, Domain.TERNARY
POINTWISE, GROUND = Guarantee.POINTWISE_MIN, Guarantee.GROUND_STATE


def _inputs(name: str, coeff, mono: Monomial, registry: VariableRegistry):
    """Raise the named gadget's catalog rejection of the term, if any, and
    return (sorted variables, coefficient, degree)."""
    error = GADGETS[name].rejection(coeff, mono, registry)
    if error is not None:
        raise error
    return sorted(var for var, _ in mono), _as_fraction(coeff), len(mono)


def _result(name, registry, output, aux, guarantee, coeff, vars) -> GadgetResult:
    labels = ",".join(registry.display_name(a) for a in aux)
    body = "".join(registry.display_name(v) for v in vars)
    trace = f"{name}({format_fraction(coeff)}*{body})" + (f" aux={labels}" if labels else "")
    return GadgetResult(output=output, aux=tuple(aux), guarantee=guarantee, trace=trace)


def _gadget(*fields, odd_only=False):
    """Catalog the decorated closed form as a row (`fields`: the
    GadgetDescriptor fields from sign to summary) named after the form, less
    the `_x_` that keeps an experimental one private, and return the row's
    applier `(coeff, mono, registry, *params)`.  That checks the term against
    the row and calls `form(registry, vars, coeff, new, *params)`, where
    `new(domain)` allocates and returns the row's aux_count(k) auxiliaries,
    tagged with its name; so a form checks its parameters before calling it.
    The form's (variables, coefficient) pairs, or Polynomial, are labelled
    with the row's guarantee.
    """

    def register(form):
        name = form.__name__.removeprefix("_x_")

        def apply(coeff, mono: Monomial, registry: VariableRegistry, *params, **named):
            vars, coeff, k = _inputs(name, coeff, mono, registry)
            aux = []

            def new(domain: Domain) -> list:
                aux.extend(registry.add_auxiliary(domain, name) for _ in range(row.aux_count(k)))
                return aux

            out = form(registry, vars, coeff, new, *params, **named)
            if not isinstance(out, Polynomial):
                out = Polynomial.from_products(registry, out)
            return _result(name, registry, out, aux, row.guarantee, coeff, vars)

        row = GADGETS[name] = GadgetDescriptor(name, *fields, apply=apply, odd_only=odd_only)
        apply.__name__ = apply.__qualname__ = form.__name__
        apply.__doc__ = form.__doc__
        return apply

    return register


# ---------------------------------------------------------------------------
# Negative term reductions


def _kzfd_terms(ba, pos_vars, neg_vars, coeff, scale_c=1):
    """(C*k - 1)*ba - C*sum_P bi*ba - sum_N (1-bj)*ba, k = |P| + |N|, times
    -coeff.  Each -(1-bj)*ba adds bj*ba before -ba, so with no positive
    literal the ba term cancels to zero and is added back last."""
    k, weight = len(pos_vars) + len(neg_vars), scale_c * coeff
    return [
        ((ba,), (1 - scale_c * k) * coeff),
        *(((v, ba), weight) for v in pos_vars),
        *(term for v in neg_vars for term in (((v, ba), -coeff), ((ba,), coeff))),
    ]


@_gadget("negative", B, 1, None, lambda k: 1, POINTWISE, MUST_PASS,
         "single aux, fully submodular output")
def ntr_kzfd(registry, vars, coeff, new):
    """-b1..bk -> (k-1)*ba - sum_i bi*ba, one auxiliary, full spectrum.

    Every quadratic term in the output has a negative coefficient, so the
    result is entirely submodular.  Valid for any k >= 1.
    """
    [ba] = new(B)
    return _kzfd_terms(ba, vars, (), coeff)


@_gadget("negative", B, 3, None, lambda k: 1, POINTWISE, MUST_PASS,
         "single aux, one non-submodular quadratic")
def ntr_abcg(registry, vars, coeff, new):
    """-b1..bk -> sum_{i<k} bi - sum_{i<k} bi*bk - sum_i bi*ba + (k-1)*bk*ba.

    One auxiliary; exactly one non-submodular quadratic term, (k-1)*bk*ba.
    The last variable of the monomial plays the asymmetric role.
    """
    head, bk = vars[:-1], vars[-1]
    [ba] = new(B)
    return [
        *(((v,), -coeff) for v in head),
        *(((v, bk), coeff) for v in head),
        *(((v, ba), coeff) for v in vars),
        ((bk, ba), (1 - len(vars)) * coeff),
    ]


@_gadget("negative", B, 3, None, lambda k: 1, POINTWISE, MUST_PASS,
         "single aux, non-submodular part is linear")
def ntr_abcg2(registry, vars, coeff, new, scale_c=2):
    """-b1..bk -> (C*k - 1)*ba - C*sum_i bi*ba for a constant C >= 1.

    The only non-submodular term is linear.  C = 1 reproduces ntr_kzfd
    exactly; the default C = 2 is the published form.
    """
    scale_c = _as_fraction(scale_c)
    if scale_c < 1:
        raise InvalidParameter(f"C must be >= 1, got {format_fraction(scale_c)}")
    [ba] = new(B)
    return _kzfd_terms(ba, vars, (), coeff, scale_c)


def _pivot(vars, pivot):
    """(p, q, r): the pivot variable of a cubic, then the other two."""
    if pivot not in (1, 2, 3):
        raise InvalidParameter("pivot must be 1, 2 or 3")
    p = vars[pivot - 1]
    q, r = (v for v in vars if v != p)
    return p, q, r


@_gadget("negative", B, 3, 3, lambda k: 1, POINTWISE, MUST_PASS, "asymmetric cubic variant")
def ntr_gbp(registry, vars, coeff, new, pivot=1):
    """Asymmetric cubic reduction: with pivot p and the other two q, r,

        -bp*bq*br -> ba*(-bp + bq + br) - bp*bq - bp*br + bp
    """
    p, q, r = _pivot(vars, pivot)
    [ba] = new(B)
    return [
        ((q, ba), -coeff), ((r, ba), -coeff), ((p, ba), coeff),
        ((p, q), coeff), ((p, r), coeff), ((p,), -coeff),
    ]


def _rbl_square(registry: VariableRegistry, vars, ta: int) -> Polynomial:
    """(1 + 4*ta + sum_i zi)^2 - 1."""
    inner = Polynomial.from_products(registry, [((ta,), 4), ((), 1), *(((v,), 1) for v in vars)])
    return inner * inner - 1


@_gadget("negative", Z, 3, 3, lambda k: 1, GROUND, MUST_PASS, "spin cubic via one ternary aux")
def ntr_rbl(registry, vars, coeff, new):
    """-z1*z2*z3 -> (1 + 4*ta + z1 + z2 + z3)^2 - 1 with a ternary auxiliary.

    Only the ground-state manifold is reproduced; excited energies shift.
    """
    [ta] = new(T)
    return _rbl_square(registry, vars, ta).scale(-coeff)


def ntr_kzfd_literals(coeff, pos_vars, neg_vars, registry: VariableRegistry) -> GadgetResult:
    """ntr_kzfd applied to a product of literals (some variables negated):

        -prod(bi, i in P) * prod(1-bj, j in N)
            -> (k-1)*ba - sum_P bi*ba - sum_N (1-bj)*ba,  k = |P| + |N|

    This is the generalized flipped form that keeps the output submodular in
    the flipped literals; the pipeline uses it for odd-degree split tails.
    """
    error = GADGETS["ntr_kzfd"].sign_error(coeff)
    if error:
        raise WrongSign(error)
    coeff = _as_fraction(coeff)
    pos_vars, neg_vars = sorted(pos_vars), sorted(neg_vars)
    vars = pos_vars + neg_vars
    if len(set(vars)) != len(vars) or not vars:
        raise InvalidParameter("literal sets must be disjoint and nonempty")
    _require_boolean(registry, vars)
    ba = registry.add_auxiliary(B, "ntr_kzfd")
    out = Polynomial.from_products(registry, _kzfd_terms(ba, pos_vars, neg_vars, coeff))
    return _result("ntr_kzfd~", registry, out, [ba], POINTWISE, coeff, vars)


# ---------------------------------------------------------------------------
# Positive term reductions


@_gadget("positive", B, 3, None, lambda k: k - 2, POINTWISE, MUST_PASS,
         "negated-literal recursion, k-2 aux")
def ptr_bg(registry, vars, coeff, new):
    """b1..bk -> sum_{i=1}^{k-2} ba_i*(k-i-1 + bi - sum_{j>i} bj) + b_{k-1}*b_k."""
    k = len(vars)
    products = [(vars[-2:], coeff)]
    for i, ba in enumerate(new(B), start=1):
        products += [((ba,), (k - i - 1) * coeff), ((vars[i - 1], ba), coeff)]
        products += [((v, ba), -coeff) for v in vars[i:]]
    return products


@_gadget("positive", B, 3, None, lambda k: (k - 1) // 2, POINTWISE, MUST_PASS,
         "symmetric-polynomial reduction, floor((k-1)/2) aux")
def ptr_ishikawa(registry, vars, coeff, new):
    """Symmetric-polynomial reduction of a positive monomial:

        b1..bk -> sum_{i=1}^{n_k} ba_i*(c_{i,k}*(-sum_j bj + 2i) - 1)
                  + sum_{i<j} bi*bj

    with n_k = floor((k-1)/2) auxiliaries and c_{i,k} = 1 when i = n_k and k
    is odd, else 2.  Reproduces the full spectrum; all k(k-1)/2 original-pair
    quadratics are non-submodular.
    """
    aux = new(B)
    products = [(pair, coeff) for pair in combinations(vars, 2)]
    for i, ba in enumerate(aux, start=1):
        c_ik = 1 if (i == len(aux) and len(vars) % 2 == 1) else 2
        products += [((v, ba), -c_ik * coeff) for v in vars]
        products.append(((ba,), (2 * i * c_ik - 1) * coeff))
    return products


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


@_gadget("positive", B, 3, None, _bcr3_m, POINTWISE, MUST_PASS,
         "squared binary counter, ceil(log2 k) aux")
def ptr_bcr3(registry, vars, coeff, new):
    """b1..bk -> (2^m - k + sum_i bi - sum_{i=1}^m 2^{i-1}*ba_i)^2.

    Binary-counter reduction with m = ceil(log2 k) auxiliaries: when any bi is
    0 the auxiliaries can cancel the bracket exactly, and when all are 1 the
    best bracket value is 1.
    """
    aux = new(B)
    bracket = _counter(registry, 2 ** len(aux) - len(vars), vars, aux, 1)
    return (bracket * bracket).scale(coeff)


def _bcr4_m(k: int) -> int:
    # Smallest m >= 1 with k <= 2^(m+1).
    return max(1, _log2_ceil(k) - 1)


@_gadget("positive", B, 3, None, _bcr4_m, POINTWISE, MUST_PASS,
         "halved product counter, ceil(log2 k)-1 aux")
def ptr_bcr4(registry, vars, coeff, new):
    """b1..bk -> (1/2)*(N + X)*(N + X - 1) with N = 2^(m+1) - k and
    X = sum_i bi - sum_{i=1}^m 2^i*ba_i, for the smallest m with k <= 2^(m+1).

    ceil(log2 k) - 1 auxiliaries: one fewer than ptr_bcr3 because the product
    of consecutive integers vanishes on {0, 1}, not just on {0}.
    """
    aux = new(B)
    bracket = _counter(registry, 2 ** (len(aux) + 1) - len(vars), vars, aux, 2)
    return (bracket * (bracket - 1)).scale(coeff / 2)


@_gadget("positive", B, 3, 3, lambda k: 1, POINTWISE, MUST_PASS,
         "minimum selection, all 6 quadratics")
def ptr_kz(registry, vars, coeff, new):
    """Minimum-selection reduction of a positive cubic:

        b1*b2*b3 -> 1 - (ba + b1 + b2 + b3) + ba*(b1 + b2 + b3)
                    + b1*b2 + b1*b3 + b2*b3

    All six possible quadratic terms appear and all are non-submodular.
    Negative cubics are the NTR family's job, so they are rejected here.
    """
    [ba] = new(B)
    return [
        ((ba,), -coeff), *(((v,), -coeff) for v in vars), ((), coeff),
        *(((v, ba), coeff) for v in vars), *((pair, coeff) for pair in combinations(vars, 2)),
    ]


@_gadget("positive", B, 3, 3, lambda k: 1, POINTWISE, MUST_PASS, "asymmetric positive cubic")
def ptr_gbp(registry, vars, coeff, new, pivot=1):
    """Asymmetric positive cubic reduction: with pivot p and the others q, r,

        bp*bq*br -> ba - bq*ba - br*ba + bp*ba + bq*br
    """
    p, q, r = _pivot(vars, pivot)
    [ba] = new(B)
    return [((q, ba), -coeff), ((ba,), coeff), ((r, ba), -coeff), ((p, ba), coeff), ((q, r), coeff)]


# ---------------------------------------------------------------------------
# Experimental gadgets (formulas as printed in the source; oracle-gated)


@_gadget("positive", B, 3, None, lambda k: (k - 1) // 2, POINTWISE, EXPERIMENTAL,
         "odd-k counter variant as printed", odd_only=True)
def _x_ptr_bcr1(registry, vars, coeff, new):
    products = [((v,), coeff) for v in vars] + [(pair, coeff) for pair in combinations(vars, 2)]
    for i, ba in enumerate(new(B), start=1):
        products += [((v, ba), -coeff) for v in vars]
        products.append(((ba,), (4 * i - 3) * coeff))
    return products


@_gadget("positive", B, 4, 4, lambda k: 1, POINTWISE, EXPERIMENTAL, "quartic single-aux instance")
def _x_ptr_bcr2(registry, vars, coeff, new):
    bracket = _counter(registry, 0, vars, new(B), 2)
    return (bracket * (bracket - 1)).scale(coeff / 2)


@_gadget("any", Z, 3, 3, lambda k: 1, POINTWISE, EXPERIMENTAL,
         "spin form of minimum selection as printed")
def _x_ptr_kz_z(registry, vars, coeff, new):
    [za] = new(Z)
    weight = abs(coeff)
    return [
        *(((v,), coeff) for v in vars), ((za,), coeff), ((), 3 * weight),
        *(((v, za), 2 * weight) for v in vars),
        *((pair, weight) for pair in combinations(vars, 2)),
    ]


@_gadget("positive", Z, 3, 3, lambda k: 1, GROUND, EXPERIMENTAL,
         "ternary-aux spin cubic as printed")
def _x_ptr_rbl_3to2(registry, vars, coeff, new):
    [ta] = new(T)
    return _rbl_square(registry, vars, ta).scale(coeff)


def _ternary_quartic(vars, ta, weights, coeff):
    """coeff * (w0*ta^2 + w1*ta*sum_i vi + w2*sum_{i<j} vi*vj + w3)."""
    square, linear, pair, const = (w * coeff for w in weights)
    return [
        ((ta, ta), square), *(((v, ta), linear) for v in vars),
        *((uv, pair) for uv in combinations(vars, 2)), ((), const),
    ]


@_gadget("positive", Z, 4, 4, lambda k: 1, GROUND, EXPERIMENTAL,
         "ternary-aux spin quartic as printed")
def _x_ptr_rbl_4to2(registry, vars, coeff, new):
    [ta] = new(T)
    return _ternary_quartic(vars, ta, (16, 4, 2, 4), coeff)


@_gadget("negative", Z, 4, 4, lambda k: 1, GROUND, EXPERIMENTAL,
         "parity gadget, printed {0,1} form")
def _x_ntr_lhz(registry, vars, coeff, new):
    # The printed form couples a ternary auxiliary to the {0,1} images of the
    # spins, so the output lives over the boolean twins of the input.
    twins = [registry.twin(v, B) for v in vars]
    [ta] = new(T)
    return _ternary_quartic(twins, ta, (16, 8, 8, 16), -coeff)


@_gadget("negative", Z, 4, 4, lambda k: 1, GROUND, EXPERIMENTAL,
         "parity gadget, printed spin form")
def _x_ntr_lhz_z(registry, vars, coeff, new):
    [ta] = new(T)
    return _ternary_quartic(vars, ta, (16, 4, 2, 4), -coeff)


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
    target = Polynomial(registry, {mono: coeff})
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
    report.require(f"experimental gadget {name!r} failed its {report.mode} check")
    return result


def apply_gadget(
    name: str,
    coeff,
    mono: Monomial,
    registry: VariableRegistry,
    max_states: int = DEFAULT_STATE_CAP,
) -> GadgetResult:
    """Apply a cataloged single-term gadget by name.

    Terms of degree <= 2 are returned unchanged with zero auxiliaries (the
    identity is the only safe rewrite there), once the row accepts all but
    their degree.  Experimental gadgets are oracle-gated on the spot.
    """
    if name not in GADGETS:
        raise UnknownGadget(f"no gadget named {name!r}")
    if monomial_degree(mono) <= 2:
        error = GADGETS[name].rejection(coeff, mono, registry)
        if error is not None and not isinstance(error, WrongDegree):
            raise error
        return GadgetResult(
            output=Polynomial(registry, {mono: coeff}),
            aux=(),
            guarantee=POINTWISE,
            trace=f"identity (degree {monomial_degree(mono)} <= 2)",
        )
    if GADGETS[name].status == EXPERIMENTAL:
        return experimental_single_term(name, coeff, mono, registry, max_states)
    return GADGETS[name].apply(coeff, mono, registry)
