"""Tests of the benchmark itself: seeded generation, span arithmetic, the
correctness checks under injected faults, and output identity under the
tracer.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from quadratizer import pipeline, poly  # noqa: E402
from quadratizer.gadgets import single_term  # noqa: E402


@pytest.fixture(scope="module")
def recorded():
    return checks.load_recorded()


@pytest.fixture(scope="module")
def oracle_pass(tmp_path_factory):
    inst = workloads.generate("oracle_small", 0)
    workloads.prepare(inst, str(tmp_path_factory.mktemp("oracle")))
    return workloads.run_pass(inst)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generation_is_a_function_of_the_seed(name):
    assert workloads.generate(name, 3).data == workloads.generate(name, 3).data
    assert workloads.generate(name, 3).data != workloads.generate(name, 4).data


def test_wide_instances_scale_the_small_ones():
    small = workloads.generate("oracle_small", 5).data
    wide = workloads.generate("oracle_wide", 5).data
    assert len(small["pipeline"]) == len(wide["pipeline"]) == 200
    assert all(len(s) < len(w) for s, w in zip(small["pipeline"], wide["pipeline"]))


def test_self_times_on_a_hand_built_tree():
    spans = [
        ["root", 0.0, 10.0, -1, "a"],
        ["child", 1.0, 4.0, 0, "a"],
        ["leaf", 2.0, 3.0, 1, "a"],
        ["child", 5.0, 9.0, 0, "a"],
        ["root", 20.0, 21.5, -1, "b"],
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.5]
    assert tracing.self_by_name(spans) == {"root": 4.5, "child": 6.0, "leaf": 1.0}


def _main(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    return code, json.loads(out.getvalue().splitlines()[-1])


def test_perturbed_digest_fails_the_run(monkeypatch, recorded):
    bad = json.loads(json.dumps(recorded))
    digest = bad["digests"]["route_large"]["0"]
    bad["digests"]["route_large"]["0"] = ("0" if digest[0] != "0" else "1") + digest[1:]
    monkeypatch.setattr(checks, "load_recorded", lambda: bad)
    code, result = _main(["--workload", "route_large", "--seed", "0", "--seconds", "0"])
    assert code != 0
    assert not result["correct"] and result["failed"] > 0


def test_flipped_recorded_verdict_fails_the_run(monkeypatch, recorded):
    bad = json.loads(json.dumps(recorded))
    bad["verdicts"]["ptr_bcr2"] = "failed" if bad["verdicts"]["ptr_bcr2"] == "passed" else "passed"
    monkeypatch.setattr(checks, "load_recorded", lambda: bad)
    code, result = _main(["--workload", "oracle_small", "--seed", "0", "--seconds", "0"])
    assert code != 0
    assert not result["correct"] and result["failed"] > 0


def test_flipped_library_verdict_is_caught(oracle_pass, recorded):
    items = oracle_pass
    assert checks.check_pass(items, recorded["verdicts"]).failures == []
    index = next(i for i, item in enumerate(items) if item.kind == "gadget")
    original, result, report = items[index].value
    flipped = dataclasses.replace(report, passed=not report.passed)
    broken = list(items)
    broken[index] = dataclasses.replace(items[index], value=(original, result, flipped))
    assert checks.check_pass(broken, recorded["verdicts"]).failures


@pytest.mark.parametrize("name", ["route_large", "oracle_small"])
def test_tracing_leaves_outputs_identical(name, tmp_path, recorded):
    inst = workloads.generate(name, 0)
    workloads.prepare(inst, str(tmp_path))
    plain = checks.check_pass(workloads.run_pass(inst), recorded["verdicts"])
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced = checks.check_pass(workloads.run_pass(inst, tracer), recorded["verdicts"])
    assert traced.digest == plain.digest == recorded["digests"][name]["0"]
    assert traced.failures == plain.failures == []
    assert tracer.counts["pipeline.quadratize_calls"] > 0


def test_wrappers_are_removed_after_the_block():
    originals = (pipeline.apply_gadget, single_term.apply_gadget, poly.Polynomial.__add__,
                 poly.Polynomial.__radd__, pipeline.quadratize)
    with tracing.installed(tracing.Tracer()):
        assert pipeline.apply_gadget is not originals[0]
        assert poly.Polynomial.__add__ is not originals[2]
    assert (pipeline.apply_gadget, single_term.apply_gadget, poly.Polynomial.__add__,
            poly.Polynomial.__radd__, pipeline.quadratize) == originals
