"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py -v` to see the lines live.
Every tolerance here is exact (rational equality); the only numeric budgets
are the wall-clock limits, asserted per criterion.
"""

import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from types import SimpleNamespace

import pytest

from quadratizer.cli import STRATEGY_PRESETS, _build_strategy
from quadratizer.cli import main as cli_main
from quadratizer.gadgets import (
    ExactCSpec,
    choose_rosenberg_pair,
    exact_c_indicator,
    experimental_reports,
    rosenberg_pair,
    sfr_aux_count,
    sfr_bcr,
)
from quadratizer.gadgets.base import GADGETS, MUST_PASS, Guarantee
from quadratizer.gadgets.single_term import apply_gadget
from quadratizer.pipeline import DEFAULT_STRATEGY, Strategy, quadratize
from quadratizer.poly import Domain, Polynomial, VariableRegistry
from quadratizer.rewrites import (
    Deduction,
    apply_deduc_reduc,
    apply_elc,
    solve_by_splitting,
)
from quadratizer.textio import (
    format_polynomial,
    parse_polynomial,
    polynomial_from_json,
    polynomial_to_json,
)
from quadratizer.verify import (
    DEFAULT_STATE_CAP,
    check_conditional,
    check_groundstate,
    check_pointwise,
    enumerate_min,
)

from conftest import (
    CUBIC_OBJECTIVE,
    DEDUC_INSTANCE,
    DEDUC_REDUCED,
    QUADRATIC_OBJECTIVE,
    SPLIT_INSTANCE,
    brute_force_min,
)


@contextmanager
def criterion(number, label, seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {label}: FAIL", file=sys.stderr)
        raise
    elapsed = time.perf_counter() - start
    verdict = "PASS" if elapsed < seconds else "FAIL (too slow)"
    print(f"ACCEPTANCE {number:02d} {label}: {verdict} ({elapsed:.2f}s < {seconds}s)")
    assert elapsed < seconds


def test_criterion_01_intro_reproduction():
    with criterion(1, "intro reproduction", 1.0):
        for text in (CUBIC_OBJECTIVE, QUADRATIC_OBJECTIVE):
            p = parse_polynomial(text)
            minimum, minimizers = enumerate_min(p)
            assert minimum == Fraction(-2)
            assert minimizers == [{0: 1, 1: 1, 2: 1, 3: 0}]


def test_criterion_02_elc_reproduction():
    with criterion(2, "excludable-configuration reproduction", 1.0):
        p = parse_polynomial(CUBIC_OBJECTIVE)
        result = apply_elc(p, {0: 1, 1: 0, 2: 0}, alpha=4)
        expected = parse_polynomial(QUADRATIC_OBJECTIVE, p.registry)
        assert result.output == expected
        _, argmin_before = enumerate_min(p)
        _, argmin_after = enumerate_min(result.output)
        assert argmin_before == argmin_after


def test_criterion_03_deduction_reproduction():
    with criterion(3, "deduction-reduction reproduction", 1.0):
        p = parse_polynomial(DEDUC_INSTANCE)
        deduction = Deduction(((0, 1), (1, 1)))
        result = apply_deduc_reduc(p, deduction)
        assert result.output == parse_polynomial(DEDUC_REDUCED, p.registry)
        report = check_conditional(p, result.output)
        assert report.passed


def test_criterion_04_gadget_guarantee_suite():
    with criterion(4, "must-pass gadget suite (k<=6, rational coefficients)", 30.0):
        magnitudes = (Fraction(1), Fraction(3), Fraction(7, 2))
        for name in sorted(d.name for d in GADGETS.values() if d.status == MUST_PASS):
            descriptor = GADGETS[name]
            coefficients = [
                sign * m
                for m in magnitudes
                for sign in ((-1,) if descriptor.sign == "negative" else (1,))
            ]
            checker = (
                check_pointwise
                if descriptor.guarantee == Guarantee.POINTWISE_MIN
                else check_groundstate  # the spin-cubic gadget claims ground state only
            )
            for k in descriptor.degrees_up_to(6):
                if k < 3:
                    continue
                for coeff in coefficients:
                    registry = VariableRegistry()
                    ids = [registry.add_variable(descriptor.domain) for _ in range(k)]
                    mono = tuple((v, 1) for v in ids)
                    result = apply_gadget(name, coeff, mono, registry)
                    original = Polynomial(registry, {mono: coeff})
                    report = checker(original, result.output, result.aux)
                    assert report.passed, (name, k, coeff)


def test_criterion_05_aux_count_ledger():
    with criterion(5, "auxiliary-count ledger (k=3..10)", 1.0):
        import math

        formulas = {
            "ntr_kzfd": lambda k: 1,
            "ntr_abcg": lambda k: 1,
            "ntr_abcg2": lambda k: 1,
            "ptr_bg": lambda k: k - 2,
            "ptr_ishikawa": lambda k: (k - 1) // 2,
            "ptr_bcr4": lambda k: math.ceil(math.log2(k)) - 1,
            "ptr_bcr3": lambda k: math.ceil(math.log2(k)),
        }
        for name, formula in formulas.items():
            descriptor = GADGETS[name]
            for k in range(3, 11):
                registry = VariableRegistry()
                ids = [registry.add_variable(Domain.BOOLEAN) for _ in range(k)]
                mono = tuple((v, 1) for v in ids)
                coeff = Fraction(-1 if descriptor.sign == "negative" else 1)
                result = apply_gadget(name, coeff, mono, registry)
                assert len(result.aux) == formula(k)
        for variant in (1, 2, 3, 4):
            for n in range(1, 11):
                for c in range(0, n + 1):
                    spec = ExactCSpec(n, c)
                    if variant in (1, 3) and not (1 <= c and n <= 2 * c):
                        continue
                    if variant in (2, 4) and not 2 * c <= n:
                        continue
                    registry = VariableRegistry()
                    ids = [registry.add_variable(Domain.BOOLEAN) for _ in range(n)]
                    result = sfr_bcr(variant, spec, ids, registry)
                    assert len(result.aux) == sfr_aux_count(variant, spec)


def test_criterion_06_submodularity_claims():
    with criterion(6, "submodularity claims (k<=10)", 1.0):
        for k in range(3, 11):
            registry = VariableRegistry()
            ids = [registry.add_variable(Domain.BOOLEAN) for _ in range(k)]
            mono = tuple((v, 1) for v in ids)
            kzfd = apply_gadget("ntr_kzfd", Fraction(-1), mono, registry)
            assert kzfd.output.quadratic_profile().non_submodular == 0
            registry = VariableRegistry()
            ids = [registry.add_variable(Domain.BOOLEAN) for _ in range(k)]
            mono = tuple((v, 1) for v in ids)
            abcg = apply_gadget("ntr_abcg", Fraction(-1), mono, registry)
            assert abcg.output.quadratic_profile().non_submodular == 1


def test_criterion_07_exact_c_indicators():
    with criterion(7, "exact-c indicator family (n<=6)", 10.0):
        for variant in (1, 2, 3, 4):
            for n in range(1, 7):
                for c in range(0, n + 1):
                    if variant in (1, 3) and not (1 <= c and n <= 2 * c):
                        continue
                    if variant in (2, 4) and not 2 * c <= n:
                        continue
                    for gamma in (Fraction(1), Fraction(3), Fraction(5, 2)):
                        registry = VariableRegistry()
                        ids = [registry.add_variable(Domain.BOOLEAN) for _ in range(n)]
                        spec = ExactCSpec(n, c, gamma)
                        result = sfr_bcr(variant, spec, ids, registry)
                        target = exact_c_indicator(spec, ids, registry)
                        assert check_pointwise(target, result.output, result.aux).passed
        # the printed n=4, c=2 closed forms, structurally
        registry = VariableRegistry()
        ids = [registry.add_variable(Domain.BOOLEAN) for _ in range(4)]
        body = sum((Polynomial.variable(registry, v) for v in ids), Polynomial.zero(registry))
        v1 = sfr_bcr(1, ExactCSpec(4, 2), ids, registry)
        a1, a2 = (Polynomial.variable(registry, a) for a in v1.aux)
        assert v1.output == (body - 3 - a1 + 3 * a2) * (body - 3 - a1 + 3 * a2)
        v2 = sfr_bcr(2, ExactCSpec(4, 2), ids, registry)
        b1, b2 = (Polynomial.variable(registry, a) for a in v2.aux)
        assert v2.output == (1 - body - b1 + 3 * b2) * (1 - body - b1 + 3 * b2)
        v3 = sfr_bcr(3, ExactCSpec(4, 2), ids, registry)
        c1 = Polynomial.variable(registry, v3.aux[0])
        bracket = body - 3 + 3 * c1
        assert v3.output == (bracket * (bracket - 1)).scale(Fraction(1, 2))
        v4 = sfr_bcr(4, ExactCSpec(4, 2), ids, registry)
        d1 = Polynomial.variable(registry, v4.aux[0])
        bracket = 1 - body + 3 * d1
        assert v4.output == (bracket * (bracket - 1)).scale(Fraction(1, 2))


def _random_polynomial(rng, max_vars, max_degree, n_terms, ensure_high=True):
    registry = VariableRegistry()
    n = rng.randint(4, max_vars)
    ids = [registry.add_variable(Domain.BOOLEAN, f"b{i + 1}") for i in range(n)]
    terms = {}
    for index in range(n_terms):
        low = max_degree if ensure_high and index == 0 else 1
        size = rng.randint(min(low, n), min(max_degree, n))
        subset = tuple(sorted(rng.sample(ids, size)))
        mono = tuple((v, 1) for v in subset)
        numerator = rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])
        denominator = rng.choice([1, 1, 2])
        terms[mono] = terms.get(mono, Fraction(0)) + Fraction(numerator, denominator)
    p = Polynomial(registry, {m: c for m, c in terms.items() if c})
    if ensure_high and p.degree() < 3:
        return _random_polynomial(rng, max_vars, max_degree, n_terms, ensure_high)
    return p


def test_criterion_08_rosenberg_spectrum_preservation():
    with criterion(8, "substitution penalty preserves the spectrum (50 runs)", 30.0):
        rng = random.Random(20240801)
        checked = 0
        while checked < 50:
            p = _random_polynomial(rng, max_vars=8, max_degree=4, n_terms=rng.randint(2, 6))
            pair = choose_rosenberg_pair(p)
            if pair is None:
                continue
            result = rosenberg_pair(p, *pair, penalty="auto")
            assert check_pointwise(p, result.output, result.aux).passed
            checked += 1
        assert checked == 50


def test_criterion_09_pipeline_end_to_end():
    with criterion(9, "pipeline end-to-end (100 seeded instances)", 120.0):
        rng = random.Random(42)
        strategy = Strategy(verify_after=True)
        checked = 0
        while checked < 100:
            p = _random_polynomial(
                rng, max_vars=10, max_degree=5, n_terms=rng.randint(2, 5)
            )
            # keep the verification space inside 2^15 states for speed: the
            # default routes pay 1 aux per negative and (k-1)//2 per positive
            budget = len(p.variables()) + sum(
                (1 if c < 0 else (sum(e for _, e in m) - 1) // 2)
                for m, c in p.terms.items()
                if sum(e for _, e in m) >= 3
            )
            if budget > 15:
                continue
            result = quadratize(p, strategy)
            assert result.output.degree() <= 2
            assert result.report is not None and result.report.passed
            if result.guarantee == Guarantee.POINTWISE_MIN:
                assert result.report.mode == "pointwise"
            checked += 1
        assert checked == 100


def test_criterion_10_split_reduction():
    with criterion(10, "split reduction into three quadratic problems", 1.0):
        p = parse_polynomial(SPLIT_INSTANCE)
        result = solve_by_splitting(p)
        assert len(result.subproblems) == 3
        assert all(q.degree() <= 2 for q in result.subproblems)
        want_min, _ = brute_force_min(p)
        assert result.minimum == want_min
        assert p.evaluate(result.argmin) == want_min


def test_criterion_11_experimental_gate(tmp_path):
    with criterion(11, "experimental gadget gate", 30.0):
        reports = experimental_reports()
        for required in (
            "ptr_kz_z",
            "ptr_rbl_3to2",
            "ptr_rbl_4to2",
            "ntr_lhz",
            "ptr_bcr1",
            "ptr_bcr2",
            "czw_count4",
            "ternary_to_binary",
        ):
            assert required in reports
            assert reports[required] is not None
            if not reports[required].passed:
                assert reports[required].counterexample is not None
        # the default pipeline and every CLI preset never route to experimental gadgets
        presets = [
            _build_strategy(SimpleNamespace(strategy=preset, route=None, verify=False,
                                            max_states=DEFAULT_STATE_CAP))
            for preset in STRATEGY_PRESETS
        ]
        for strategy in (DEFAULT_STRATEGY, *presets):
            for name in tuple(strategy.negative_route) + tuple(strategy.positive_route):
                assert GADGETS[name].status == MUST_PASS, (strategy, name)
        # a route naming a failing experimental gadget meets the oracle gate
        from quadratizer.errors import VerificationFailed

        registry = VariableRegistry()
        zs = [registry.add_variable(Domain.SPIN) for _ in range(3)]
        q = Polynomial.product(registry, zs)
        with pytest.raises(VerificationFailed) as excinfo:
            quadratize(q, Strategy(positive_route=("ptr_rbl_3to2",)))
        assert excinfo.value.report.counterexample is not None
        # so does the same route through the CLI, which exits 1
        spin_file = tmp_path / "spin.txt"
        spin_file.write_text("z1 z2 z3\n")
        rc = cli_main(["quadratize", "--in", str(spin_file), "--route", "positive=ptr_rbl_3to2"])
        assert rc == 1


def test_criterion_12_round_trips():
    with criterion(12, "conversion and serialization round trips", 5.0):
        rng = random.Random(777)
        for index in range(100):
            n = rng.randint(1, 5)
            used = set()
            pieces = []
            for _ in range(rng.randint(1, 6)):
                subset = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, min(3, n)))))
                if subset in used:
                    continue
                used.add(subset)
                coeff = rng.choice(["", "2 ", "3 ", "7/2 ", "1/3 "])
                body = " ".join(f"b{v}" for v in subset)
                if not body and not coeff:
                    coeff = "1"
                pieces.append(rng.choice(["+", "-"]) + " " + (coeff + body).strip())
            text = " ".join(pieces)
            p = parse_polynomial(text)
            # text round trip
            assert parse_polynomial(format_polynomial(p)) == p
            # JSON round trip
            assert polynomial_from_json(polynomial_to_json(p)) == p
            # spin/boolean round trip
            assert p.to_spin().to_boolean() == p
