"""Seeded instance families and one timed pass per workload.

Every instance is generated here from the workload seed as grammar text (or
plain numbers), so the library receives only generated inputs and each pass
parses into a fresh VariableRegistry: auxiliary numbering, and therefore every
output byte, depends on the seed alone.

Library calls go through module attributes (``pipeline.quadratize``, not a
name imported into this file) so that the traced run's wrappers see them.

Each pass returns a list of Item records: one per operation attempted, with
its wall time and what it produced.  The correctness checks in checks.py read
the produced values after the timed window closes.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from quadratizer import cli, pipeline, rewrites, textio, verify
from quadratizer.errors import NoApplicableGadget
from quadratizer.gadgets import single_term, structured
from quadratizer.gadgets.base import GADGETS, MUST_PASS, Guarantee
from quadratizer.poly import Domain, Polynomial, VariableRegistry

WORKLOADS = ("route_large", "group_and_flip", "oracle_small", "oracle_wide")

ROUTE_SIZES = (250, 500, 1000)
GROUP_SIZES = (100, 200, 400)
GROUP_STRATEGIES = (
    pipeline.Strategy(multi_term="rosenberg"),
    pipeline.Strategy(multi_term="fgbz"),
)
VERIFY = pipeline.Strategy(verify_after=True)
WIDE_DIGITS = 30


@dataclass
class Item:
    """One operation of a pass: its name, wall time and outcome.

    ``value`` is whatever the operation returned (kept for the checks);
    ``error`` is the exception it raised, if any; ``expected_failure`` marks
    the spin slice, whose NoApplicableGadget is a known defect that is
    counted as a failure, never hidden.
    """

    kind: str
    name: str
    seconds: float
    value: object = None
    error: BaseException = None
    expected_failure: bool = False
    text: str = None


@dataclass
class Instances:
    workload: str
    seed: int
    data: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Generation


def _coefficient(rng) -> Fraction:
    return Fraction(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)), rng.choice((1, 2)))


def _wide_rational(rng) -> Fraction:
    low, high = 10 ** (WIDE_DIGITS - 1), 10**WIDE_DIGITS - 1
    return Fraction(rng.randint(low, high), rng.randint(low, high))


def _term_text(coeff: Fraction, names) -> str:
    sign = "-" if coeff < 0 else "+"
    magnitude = abs(coeff)
    number = (
        str(magnitude.numerator)
        if magnitude.denominator == 1
        else f"{magnitude.numerator}/{magnitude.denominator}"
    )
    return f"{sign} {number} {' '.join(names)}".rstrip()


def _text(terms) -> str:
    """Grammar text for [(coefficient, [variable names]), ...]."""
    return " ".join(_term_text(c, names) for c, names in terms)


def _boolean_terms(rng, n_vars, n_terms, degrees):
    """n_terms random terms in which every degree in ``degrees`` occurs
    equally often, half with each sign (in shuffled order), so that totals
    vary little by seed; the seed draws the variables and the magnitudes."""
    plan = [
        (degrees[i % len(degrees)], 1 if (i // len(degrees)) % 2 else -1)
        for i in range(n_terms)
    ]
    rng.shuffle(plan)
    terms = []
    for size, sign in plan:
        vars = sorted(rng.sample(range(1, n_vars + 1), size))
        terms.append((abs(_coefficient(rng)) * sign, [f"b{v}" for v in vars]))
    return terms


def _acceptance_instance(rng, index):
    """Acceptance-09 style: 4..10 {0,1} variables, 2..5 terms, the first of
    degree 5; the verification space (variables plus the default routes'
    auxiliaries) stays within 2^16 states.  Instance ``index`` fixes the
    variable and term counts, the term degrees and the signs, cycling
    through them, so that totals over the 200 instances vary little by seed;
    the seed draws the variables and the magnitudes."""
    n, n_terms = 4 + index % 7, 2 + index % 4
    while True:
        terms = {}
        for j in range(n_terms):
            size = 5 if j == 0 else 1 + (index + j) % 5
            mono = tuple(sorted(rng.sample(range(1, n + 1), min(size, n))))
            coeff = abs(_coefficient(rng)) * (1 if (index + j) % 2 else -1)
            terms[mono] = terms.get(mono, Fraction(0)) + coeff
        terms = {m: c for m, c in terms.items() if c}
        if max((len(m) for m in terms), default=0) < 3:
            continue
        used = {v for m in terms for v in m}
        aux = sum(1 if c < 0 else (len(m) - 1) // 2 for m, c in terms.items() if len(m) >= 3)
        if len(used) + aux <= 16:
            return [(c, [f"b{v}" for v in m]) for m, c in sorted(terms.items())]


def _spin_cubic(rng):
    """``+-z_i z_j z_k`` plus spin quadratics over 4..6 spins."""
    n = rng.randint(4, 6)
    cubic = sorted(rng.sample(range(1, n + 1), 3))
    terms = [(Fraction(rng.choice((-1, 1))), [f"z{v}" for v in cubic])]
    for _ in range(rng.randint(1, 4)):
        pair = sorted(rng.sample(range(1, n + 1), 2))
        terms.append((_coefficient(rng), [f"z{v}" for v in pair]))
    return terms


def _dense_instance(rng, tag, n, n_terms, max_degree):
    """Random objective over exactly n variables of domain ``tag``."""
    names = [f"{tag}{v}" for v in range(1, n + 1)]
    terms = [(_coefficient(rng), [name]) for name in names]
    for _ in range(n_terms):
        size = rng.randint(2, max_degree)
        terms.append((_coefficient(rng), sorted(rng.sample(names, size), key=lambda s: int(s[1:]))))
    return terms


def generate(workload: str, seed: int) -> Instances:
    """All inputs of one workload, as a pure function of (workload, seed)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    inst = Instances(workload, seed)
    if workload == "route_large":
        rng = random.Random(f"route_large/{seed}")
        inst.data["route"] = {
            t: _text(_boolean_terms(rng, 60, t, (1, 2, 3, 4, 5))) for t in ROUTE_SIZES
        }
        return inst
    if workload == "group_and_flip":
        rng = random.Random(f"group_and_flip/{seed}")
        inst.data["group"] = {
            t: _text(_boolean_terms(rng, 24, t, (3, 4))) for t in GROUP_SIZES
        }
        inst.data["flip"] = [
            _text(_boolean_terms(rng, 40, 150, (2,))) for _ in range(2)
        ]
        return inst

    # oracle_small and oracle_wide share instances, seed and calls; the wide
    # variant scales every coefficient by a seeded 30-digit rational.
    rng = random.Random(f"oracle/{seed}")
    wide_rng = random.Random(f"oracle_wide/{seed}")
    wide = workload == "oracle_wide"

    def scale() -> Fraction:
        return _wide_rational(wide_rng) if wide else Fraction(1)

    def scaled(terms):
        factor = scale()
        return [(c * factor, names) for c, names in terms]

    inst.data["pipeline"] = [_text(scaled(_acceptance_instance(rng, i))) for i in range(200)]
    inst.data["spin"] = [_text(scaled(_spin_cubic(rng))) for _ in range(20)]
    enum = []
    for tag, sizes in (("b", (14, 16, 18)), ("z", (10, 11, 12, 13)), ("t", (6, 7, 8))):
        for n in sizes:
            enum.append((f"{tag}{n}", _text(scaled(_dense_instance(rng, tag, n, 2 * n, 3)))))
    inst.data["enumerate"] = enum
    gadgets = []
    for name in sorted(GADGETS):
        descriptor = GADGETS[name]
        if descriptor.status != MUST_PASS:
            continue
        sign = -1 if descriptor.sign == "negative" else 1
        for k in descriptor.degrees_up_to(6):
            if k < 3:
                continue
            coeff = sign * abs(_coefficient(rng)) * scale()
            gadgets.append((name, k, coeff))
    inst.data["gadgets"] = gadgets
    inst.data["rewrites"] = [
        _text(scaled(_dense_instance(rng, "b", rng.randint(8, 10), 10, 4))) for _ in range(6)
    ]
    sfr = []
    for n in (6, 7, 8):
        for variant in (1, 2, 3, 4):
            c = rng.randint((n + 1) // 2, n) if variant in (1, 3) else rng.randint(1, n // 2)
            gamma = abs(_coefficient(rng)) * scale()
            sfr.append((variant, n, c, gamma))
    inst.data["sfr"] = sfr
    inst.data["cli"] = [inst.data["pipeline"][i] for i in range(0, 200, 10)]
    return inst


# ---------------------------------------------------------------------------
# Passes


class Pass:
    """Runs the operations of one pass, timing each, and keeps their Items.

    With a tracer, each operation runs inside a ``bench.op`` span that tags
    the library's spans with the operation's id."""

    def __init__(self, tracer=None):
        self.items: list[Item] = []
        self.tracer = tracer

    def run(self, kind, name, fn, expected=None, text=None):
        scope = (
            self.tracer.span("bench.op", f"{kind}.{name}")
            if self.tracer is not None
            else contextlib.nullcontext()
        )
        with scope:
            start = time.perf_counter()
            try:
                value = fn()
            except Exception as error:  # every exception is a failed operation
                seconds = time.perf_counter() - start
                self.items.append(Item(
                    kind, name, seconds, error=error, text=text,
                    expected_failure=expected is not None and isinstance(error, expected),
                ))
                return
            seconds = time.perf_counter() - start
        self.items.append(Item(kind, name, seconds, value=value, text=text))


def _route_large(inst, run):
    for t, text in inst.data["route"].items():

        def op(text=text):
            result = pipeline.quadratize(textio.parse_polynomial(text))
            return result, textio.qubo_to_json(result.output, result.aux_map, result.guarantee)

        run("route", f"T{t}", op, text=text)


def _group_and_flip(inst, run):
    for t, text in inst.data["group"].items():
        run(
            "group", f"T{t}",
            lambda text=text: pipeline.compare_strategies(
                textio.parse_polynomial(text), GROUP_STRATEGIES
            ),
            text=text,
        )
    for index, text in enumerate(inst.data["flip"]):
        run(
            "flip", str(index),
            lambda text=text: pipeline.flip_to_submodular(textio.parse_polynomial(text)),
            text=text,
        )


def _parsed(text, call):
    p = textio.parse_polynomial(text)
    return p, call(p)


def _gadget_check(name, k, coeff):
    descriptor = GADGETS[name]
    registry = VariableRegistry()
    vars = [registry.add_variable(descriptor.domain) for _ in range(k)]
    mono = tuple((v, 1) for v in vars)
    result = single_term.apply_gadget(name, coeff, mono, registry)
    original = Polynomial(registry, {mono: coeff})
    check = (
        verify.check_pointwise
        if result.guarantee == Guarantee.POINTWISE_MIN
        else verify.check_groundstate
    )
    return original, result, check(original, result.output, result.aux)


def _rewrites(text):
    p = textio.parse_polynomial(text)
    deductions = rewrites.find_zero_deductions(p, 2)
    elcs = rewrites.find_elcs(p, p.variables()[:3])
    elc = rewrites.apply_elc(p, elcs[0], alpha="auto") if elcs else None
    return p, deductions, elcs, elc, rewrites.solve_by_splitting(p)


def _sfr(variant, n, c, gamma):
    registry = VariableRegistry()
    vars = [registry.add_variable(Domain.BOOLEAN) for _ in range(n)]
    spec = structured.ExactCSpec(n=n, c=c, gamma=gamma)
    result = structured.sfr_bcr(variant, spec, vars, registry)
    target = structured.exact_c_indicator(spec, vars, registry)
    return target, result, verify.check_pointwise(target, result.output, result.aux)


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _oracle(inst, run):
    for index, text in enumerate(inst.data["pipeline"]):
        run(
            "pipeline", str(index),
            lambda text=text: _parsed(text, lambda p: pipeline.quadratize(p, VERIFY)),
            text=text,
        )
    for index, text in enumerate(inst.data["spin"]):
        run(
            "spin", str(index),
            lambda text=text: _parsed(text, lambda p: pipeline.quadratize(p, VERIFY)),
            expected=NoApplicableGadget, text=text,
        )
    for name, text in inst.data["enumerate"]:
        run(
            "enumerate", name,
            lambda text=text: _parsed(text, verify.enumerate_min), text=text,
        )
    for name, k, coeff in inst.data["gadgets"]:
        run("gadget", f"{name}.k{k}", lambda a=(name, k, coeff): _gadget_check(*a))
    for index, text in enumerate(inst.data["rewrites"]):
        run("rewrites", str(index), lambda text=text: _rewrites(text), text=text)
    for variant, n, c, gamma in inst.data["sfr"]:
        run(
            "sfr", f"v{variant}.n{n}.c{c}",
            lambda a=(variant, n, c, gamma): _sfr(*a),
        )
    for index, (path, text) in enumerate(zip(inst.data["cli_files"], inst.data["cli"])):
        out = path + ".qubo.json"
        run(
            "cli", str(index),
            lambda path=path, out=out: (
                _cli(["quadratize", "--in", path, "--verify", "--out", out]),
                _read(out),
            ),
            text=text,
        )
    run("list_gadgets", "verdicts", list_gadgets)


def list_gadgets():
    """(exit code, stdout) of ``list-gadgets --verdicts``."""
    return _cli(["list-gadgets", "--verdicts"])


def _read(path):
    with open(path, encoding="utf-8") as handle:
        return handle.read()


PASSES = {
    "route_large": _route_large,
    "group_and_flip": _group_and_flip,
    "oracle_small": _oracle,
    "oracle_wide": _oracle,
}


def prepare(inst: Instances, work_dir: str):
    """Write the files the CLI operations read (oracle workloads only)."""
    if "cli" not in inst.data:
        return
    paths = []
    for index, text in enumerate(inst.data["cli"]):
        path = os.path.join(work_dir, f"{inst.workload}-seed{inst.seed}-{index}.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        paths.append(path)
    inst.data["cli_files"] = paths


def run_pass(inst: Instances, tracer=None) -> list:
    """One pass over the workload's instance list, as a list of Items."""
    recorder = Pass(tracer)
    PASSES[inst.workload](inst, recorder.run)
    return recorder.items


def warm_up():
    """First calls through parse, routing, the oracle and export on a tiny
    instance, so that no pass pays for first-use work."""
    p = textio.parse_polynomial("b1 b2 b3 - 2 b1 b2 b3 b4 + b2 b4")
    result = pipeline.quadratize(p, VERIFY)
    textio.qubo_to_json(result.output, result.aux_map, result.guarantee)
