"""Spans around the library's public functions, installed only for the
traced passes.

``installed(tracer)`` wraps every function listed in TARGETS and, so that
calls between layers are seen too, replaces each original wherever a
quadratizer module holds it under a name (``pipeline.apply_gadget`` is
``single_term.apply_gadget`` imported by name).  Every replaced attribute is
restored when the block exits, so untraced passes never run wrapped code.

A span is ``[name, start, end, parent index, instance id]``.  Spans stay in
memory and are written out once, by run.py, when the run ends.  Counts are
kept at the same wrappers.
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

from quadratizer import cli, errors, gadgets, pipeline, poly, rewrites, textio, verify
from quadratizer.gadgets import multi_term, single_term, structured


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.counts: Counter = Counter()
        self.instance = None

    def wrap(self, name, fn, hook=None):
        """``fn`` inside a span; ``hook(tracer, span, args, result, error)``
        runs inside the span to rename it or add counts.  A hook with a
        ``before`` attribute gets ``before(tracer)``, taken when the span
        opens, as an extra last element of ``span``, which it must pop."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        before = getattr(hook, "before", None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.instance]
            if before is not None:
                span.append(before(self))
            index = len(spans)
            spans.append(span)
            stack.append(index)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as raised:
                error = raised
                raise
            finally:
                if hook is not None:
                    hook(self, span, args, result, error)
                stack.pop()
                span[2] = clock()

        return traced

    @contextlib.contextmanager
    def span(self, name, instance=None):
        """A span opened by the benchmark itself (one per operation)."""
        self.instance = instance
        span = [name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1, instance]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            self.stack.pop()
            span[2] = time.perf_counter()


# ---------------------------------------------------------------------------
# Hooks: counts recorded where the work happens


def _domain(*polys) -> str:
    """The widest domain among the variables: a call counts as ternary if any
    variable is ternary, else spin if any is spin, else {0,1}."""
    tags = {p.registry.domain(v).tag for p in polys for v in p.variables()}
    return "t" if "t" in tags else "z" if "z" in tags else "b"


def _count_add(tracer, span, args, result, error):
    tracer.counts["poly.add_calls"] += 1
    tracer.counts["poly.add_terms_copied"] += len(args[0].terms)


def _counter(key):
    def hook(tracer, span, args, result, error):
        tracer.counts[key] += 1

    return hook


def _verify_hook(tracer, span, args, result, error):
    polys = [a for a in args[:2] if isinstance(a, poly.Polynomial)]
    domain = _domain(*polys)
    span[0] = f"{span[0]}[{domain}]"
    tracer.counts[f"verify.calls.{domain}"] += 1
    if isinstance(error, errors.EnumerationCapExceeded):
        tracer.counts["verify.cap_exceeded"] += 1
    elif result is not None:
        if isinstance(result, verify.VerificationReport):
            states = result.stats.states_enumerated
        else:
            p = args[0]
            states = math.prod(len(p.registry.domain(v).values) for v in p.variables())
        tracer.counts[f"verify.states.{domain}"] += states


def _apply_hook(tracer, span, args, result, error):
    tracer.counts["single_term.apply_calls"] += 1
    if result is not None:
        tracer.counts["single_term.aux_created"] += len(result.aux)


def _discover_hook(tracer, span, args, result, error):
    tracer.counts["multi_term.discover_groups_calls"] += 1
    tracer.counts["multi_term.groups_discovered"] += len(result or ())


def _flip_hook(tracer, span, args, result, error):
    # each round of flip_to_submodular tries one flip per variable and, if
    # one improves, applies it; the last round improves nothing.  With n
    # variables: flips = rounds * n + kept and rounds = kept + 1.
    flips = tracer.counts["poly.flip_calls"] - span.pop()
    n = len(args[0].variables())
    kept = (flips - n) // (n + 1)
    tracer.counts["pipeline.flip_accepted"] += kept
    tracer.counts["pipeline.flip_candidates"] += flips - kept


_flip_hook.before = lambda tracer: tracer.counts["poly.flip_calls"]


def _qubo_hook(tracer, span, args, result, error):
    if result is not None:
        tracer.counts["textio.qubo_json_bytes"] += len(result.encode())


def _parse_hook(tracer, span, args, result, error):
    if result is not None:
        tracer.counts["textio.parsed_terms"] += len(result.terms)


def _split_hook(tracer, span, args, result, error):
    if result is not None:
        tracer.counts["rewrites.split_subproblems"] += len(result.subproblems)


# (module or class, attribute names, span name prefix, hook)
TARGETS = [
    (textio, ("parse_polynomial", "load_polynomial", "polynomial_from_json", "qubo_from_json"),
     "textio.parse", _parse_hook),
    (textio, ("format_polynomial", "polynomial_to_json"), "textio.format", None),
    (textio, ("qubo_to_json",), "textio.qubo_json", _qubo_hook),
    (poly.Polynomial, ("__add__",), "poly.arith", _count_add),
    (poly.Polynomial, ("__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__", "scale"),
     "poly.arith", None),
    (poly.Polynomial, ("substitute",), "poly.substitute", _counter("poly.substitute_calls")),
    (poly.Polynomial, ("flip",), "poly.substitute", _counter("poly.flip_calls")),
    (poly.Polynomial, ("evaluate",), "poly.evaluate", _counter("poly.evaluate_calls")),
    (poly.Polynomial, ("quadratic_profile",), "poly.profile", _counter("poly.profile_calls")),
    (single_term, ("apply_gadget",), "single_term.apply", _apply_hook),
    (single_term, ("ntr_kzfd", "ntr_abcg", "ntr_abcg2", "ntr_gbp", "ntr_rbl", "ntr_kzfd_literals",
                   "ptr_bg", "ptr_ishikawa", "ptr_bcr3", "ptr_bcr4", "ptr_kz", "ptr_gbp"),
     "single_term.apply", None),
    (single_term, ("evaluate_experimental", "experimental_single_term"),
     "single_term.experimental", None),
    (multi_term, ("choose_rosenberg_pair",), "multi_term.choose_pair",
     _counter("multi_term.choose_pair_calls")),
    (multi_term, ("rosenberg_pair", "rosenberg_auto_penalty"), "multi_term.rosenberg_pair", None),
    (multi_term, ("discover_fgbz_groups",), "multi_term.discover_groups", _discover_hook),
    (multi_term, ("fgbz_negative", "fgbz_positive"), "multi_term.fgbz_apply",
     _counter("multi_term.groups_applied")),
    (multi_term, ("scm_split", "sym_antisym_split"), "multi_term.split", None),
    (structured, ("sfr_bcr",), "structured.sfr_bcr", None),
    (structured, ("exact_c_indicator", "czw_count4", "czw_counting_hamiltonian",
                  "ternary_to_binary", "check_ternary_encoding"), "structured.other", None),
    (gadgets, ("experimental_reports",), "structured.experimental_reports", None),
    (rewrites, ("find_zero_deductions", "apply_deduc_reduc"), "rewrites.deductions", None),
    (rewrites, ("find_elcs", "apply_elc", "elc_cancel"), "rewrites.elc", None),
    (rewrites, ("solve_by_splitting",), "rewrites.split", _split_hook),
    (rewrites, ("split", "most_connected_variable"), "rewrites.split", None),
    (verify, ("enumerate_min", "check_pointwise", "check_groundstate", "check_spectrum",
              "check_conditional"), "verify.kernel", _verify_hook),
    (verify, ("cost_report",), "verify.cost_report", None),
    (pipeline, ("quadratize",), "pipeline.quadratize",
     _counter("pipeline.quadratize_calls")),
    (pipeline, ("compare_strategies",), "pipeline.quadratize", None),
    (pipeline, ("flip_to_submodular",), "pipeline.flip", _flip_hook),
    (cli, ("main",), "cli.main", None),
]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every target for the duration of the block, then restore."""
    replacements = {}
    for owner, names, span_name, hook in TARGETS:
        for name in names:
            original = owner.__dict__[name]
            replacements[id(original)] = (original, tracer.wrap(span_name, original, hook))

    owners = [m for n, m in sys.modules.items() if n == "quadratizer" or n.startswith("quadratizer.")]
    owners.append(poly.Polynomial)
    patched = []
    try:
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                entry = replacements.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(owner, attr, entry[1])
                    patched.append((owner, attr, value))
        yield tracer
    finally:
        for owner, attr, value in reversed(patched):
            setattr(owner, attr, value)


# ---------------------------------------------------------------------------
# Span arithmetic


def self_times(spans) -> list:
    """Each span's duration minus the durations of its direct children.

    One thread runs everything, so children nest inside their parent and
    never overlap: the part of the parent they cover is their summed
    duration."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def self_by_name(spans) -> dict:
    totals: dict = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        totals[span[0]] += own
    return dict(totals)


@dataclass
class TracedPass:
    """What one traced pass leaves for the per-layer metrics."""

    seconds: float  # wall time of the pass
    self_seconds: dict  # span name -> summed self time
    library_seconds: float  # self time inside the library's spans
    experimental_seconds: float  # inclusive time of experimental_reports
    counts: Counter


def summarise(tracer: Tracer, seconds: float) -> TracedPass:
    own = self_by_name(tracer.spans)
    return TracedPass(
        seconds=seconds,
        self_seconds=own,
        library_seconds=sum(v for n, v in own.items() if not n.startswith("bench.")),
        experimental_seconds=sum(
            end - start for name, start, end, _, _ in tracer.spans
            if name == "structured.experimental_reports"
        ),
        counts=Counter(tracer.counts),
    )
