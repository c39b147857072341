"""Correctness checks on one pass's outputs, run after the timed window.

Every check that fails adds a message to ``failures``; run.py counts each
message as one failed operation and exits non-zero.  The spin slice's
NoApplicableGadget is the one expected failure: it is counted in ``failed``
but is not a check failure.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

import naive
from quadratizer import pipeline, textio
from workloads import GROUP_STRATEGIES
from quadratizer.poly import Domain

RECORDED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "recorded.json")


def load_recorded(path: str = RECORDED_PATH) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


@dataclass
class Outcome:
    """What the checks found in one pass."""

    digest: str
    failures: list = field(default_factory=list)


def output_counts(p, aux) -> dict:
    """Auxiliaries, positive {0,1} quadratic coefficients and stored terms of
    one output, counted from its term dictionary."""
    non_submodular = sum(
        1
        for mono, coeff in p.terms.items()
        if coeff > 0
        and sum(e for _, e in mono) == 2
        and all(p.registry.domain(v) is Domain.BOOLEAN for v, _ in mono)
    )
    return {"aux_count": len(aux), "non_submodular": non_submodular, "qubo_terms": len(p.terms)}


def _degree(p) -> int:
    return max((sum(e for _, e in mono) for mono in p.terms), default=0)


def _add(total: dict, counts: dict):
    for key, value in counts.items():
        total[key] = total.get(key, 0) + value


def pass_counts(items) -> dict:
    """The three exact output counts of one pass (the spin slice excluded, so
    that fixing it does not read as a regression)."""
    total = {"aux_count": 0, "non_submodular": 0, "qubo_terms": 0}
    for item in items:
        if item.error is not None:
            continue
        if item.kind == "route":
            result, _ = item.value
            _add(total, output_counts(result.output, result.aux))
        elif item.kind == "group":
            for row in item.value:
                if row.ok:
                    _add(total, {
                        "aux_count": row.cost.aux_count,
                        "non_submodular": row.cost.non_submodular,
                        "qubo_terms": row.cost.term_count,
                    })
        elif item.kind == "flip":
            _add(total, output_counts(item.value[0], ()))
        elif item.kind == "pipeline":
            result = item.value[1]
            _add(total, output_counts(result.output, result.aux))
        elif item.kind in ("gadget", "sfr"):
            result = item.value[1]
            _add(total, output_counts(result.output, result.aux))
    return total


def _qubo(result) -> str:
    return textio.qubo_to_json(result.output, result.aux_map, result.guarantee)


def _check_verdict(failures, name, mode, report, original, transformed, aux):
    """Compare the library's verdict and minima with the naive evaluator
    wherever the space is small enough."""
    vars = original.variables() + sorted(aux)
    if naive.space(transformed, vars) > naive.MAX_STATES:
        return
    passed, low_original, low_transformed = naive.verdict(mode, original, transformed, aux)
    if passed != report.passed:
        failures.append(f"{name}: verdict {report.passed}, naive evaluator says {passed}")
    if report.stats.min_original != low_original or report.stats.min_transformed != low_transformed:
        failures.append(f"{name}: minima differ from the naive evaluator")


def _mode(guarantee: str) -> str:
    return "pointwise" if guarantee == "pointwise-min" else "groundstate"


def _canonical(item) -> str:
    """The text whose sha256 enters the pass digest, and the item checks."""
    kind, value = item.kind, item.value
    if kind == "route":
        return value[1]
    if kind == "group":
        return json.dumps([
            [row.ok, row.guarantee, row.error]
            + ([] if row.cost is None else [
                row.cost.aux_count, row.cost.non_submodular,
                str(row.cost.max_abs_coefficient), row.cost.term_count,
            ])
            for row in value
        ])
    if kind == "flip":
        flipped, mask = value
        return textio.format_polynomial(flipped) + " | " + ",".join(map(str, sorted(mask)))
    if kind == "pipeline":
        return _qubo(value[1])
    if kind == "enumerate":
        _, (low, minimizers) = value
        return f"{low} | " + json.dumps([sorted(m.items()) for m in minimizers])
    if kind in ("gadget", "sfr"):
        _, result, report = value
        return f"{textio.format_polynomial(result.output)} | {report}"
    if kind == "rewrites":
        _, deductions, elcs, elc, split = value
        return json.dumps([
            [list(d.monomial) for d in deductions],
            [sorted(e.items()) for e in elcs],
            None if elc is None else textio.format_polynomial(elc.output),
            str(split.minimum), sorted(split.argmin.items()), len(split.subproblems),
        ])
    if kind == "cli":
        (code, _), text = value
        return f"{code} | {text}"
    if kind == "list_gadgets":
        return f"{value[0]} | {value[1]}"
    raise ValueError(f"no canonical form for {kind!r}")


def _check_item(item, failures, recorded_verdicts, pipeline_qubo):
    kind, value, name = item.kind, item.value, f"{item.kind} {item.name}"
    if kind == "route":
        result, _ = value
        if _degree(result.output) > 2:
            failures.append(f"{name}: output degree {_degree(result.output)}")
    elif kind == "flip":
        flipped, _ = value
        if _degree(flipped) > 2:
            failures.append(f"{name}: flipped output degree {_degree(flipped)}")
    elif kind == "pipeline":
        original, result = value
        if _degree(result.output) > 2:
            failures.append(f"{name}: output degree {_degree(result.output)}")
        if result.report is None or not result.report.passed:
            failures.append(f"{name}: missing or failed verification report")
        else:
            _check_verdict(failures, name, _mode(result.guarantee), result.report,
                           original, result.output, result.aux)
    elif kind == "enumerate":
        p, (low, minimizers) = value
        if naive.space(p, p.variables()) <= naive.MAX_STATES:
            want_low, want_set = naive.minimum(p)
            got_set = {tuple(sorted(m.items())) for m in minimizers}
            if (low, got_set) != (want_low, want_set):
                failures.append(f"{name}: minimum or minimizers differ from the naive evaluator")
    elif kind in ("gadget", "sfr"):
        original, result, report = value
        if not report.passed:
            failures.append(f"{name}: must-pass construction failed its check")
        _check_verdict(failures, name, _mode(result.guarantee), report,
                       original, result.output, result.aux)
    elif kind == "rewrites":
        p, deductions, elcs, elc, split = value
        low, minimizers = naive.minimum(p)
        if split.minimum != low:
            failures.append(f"{name}: split minimum {split.minimum}, naive {low}")
        for deduction in deductions:
            vars = [v for v, _ in deduction.monomial]
            if any(all(dict(m)[v] == 1 for v in vars) for m in minimizers):
                failures.append(f"{name}: deduction {vars} fails at a minimizer")
        for config in elcs:
            if any(all(dict(m).get(v, x) == x for v, x in config.items()) for m in minimizers):
                failures.append(f"{name}: excluded configuration {config} extends a minimizer")
    elif kind == "cli":
        (code, _), text = value
        if code != 0:
            failures.append(f"{name}: exit code {code}")
        elif pipeline_qubo.get(item.text) not in (None, text.rstrip("\n")):
            failures.append(f"{name}: CLI output differs from the in-process quadratize output")
    elif kind == "list_gadgets":
        code, text = value
        verdicts = experimental_verdicts(text)
        if code != 0 or verdicts != recorded_verdicts:
            failures.append(f"{name}: experimental verdicts {verdicts} != recorded {recorded_verdicts}")


def experimental_verdicts(listing: str) -> dict:
    """{gadget name: "passed" | "failed"} from ``list-gadgets --verdicts``."""
    return {row["name"]: row["oracle_verdict"] for row in json.loads(listing)
            if "oracle_verdict" in row}


def _check_group_outputs(item, failures):
    """compare_strategies reports costs only: re-run each strategy on a fresh
    parse, in compare_strategies' order on one registry, and check that the
    outputs are quadratic and match the reported costs."""
    p = textio.parse_polynomial(item.text)
    texts = []
    for strategy, row in zip(GROUP_STRATEGIES, item.value):
        if not row.ok:
            failures.append(f"group {item.name}: {row.error}")
            continue
        result = pipeline.quadratize(p, strategy)
        if _degree(result.output) > 2:
            failures.append(f"group {item.name}: output degree {_degree(result.output)}")
        counts = output_counts(result.output, result.aux)
        reported = {
            "aux_count": row.cost.aux_count,
            "non_submodular": row.cost.non_submodular,
            "qubo_terms": row.cost.term_count,
        }
        if counts != reported:
            failures.append(f"group {item.name}: cost {reported} != output counts {counts}")
        texts.append(_qubo(result))
    return texts


def unexpected_errors(items) -> list:
    return [
        f"{item.kind} {item.name}: {type(item.error).__name__}: {item.error}"
        for item in items
        if item.error is not None and not item.expected_failure
    ]


def check_pass(items, recorded_verdicts) -> Outcome:
    """Run every check on one pass and fold its outputs into one digest."""
    failures = unexpected_errors(items)
    pipeline_qubo = {}
    digest = hashlib.sha256()
    for item in items:
        if item.error is not None:
            continue
        if item.kind == "spin":
            continue  # a fixed spin slice changes its outcome, not a regression
        text = _canonical(item)
        if item.kind == "pipeline":
            pipeline_qubo[item.text] = text
        if item.kind == "group":
            text += "".join(_check_group_outputs(item, failures))
        _check_item(item, failures, recorded_verdicts, pipeline_qubo)
        digest.update(f"{item.kind}/{item.name}\n{text}\n".encode())
    return Outcome(digest.hexdigest(), failures)
