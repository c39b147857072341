#!/usr/bin/env python3
"""Run one benchmark workload (or all four) and print its metrics.

    python3 bench/run.py --workload route_large --seed 1 --seconds 10 --trace 0

Run from the repository root; the library is imported from ./src.  Passes
over the workload's instance list run back to back on one thread (a closed
loop with one client) until --seconds have elapsed.  With --trace 0 the
last line of output is a JSON object with the end-to-end metrics of
BENCHMARK.json; with --trace 1 it has the per-layer metrics, taken from
passes run under the tracer, alternated with untraced passes.  The lines
before it are a human-readable report that also gives the metrics that
exist only on some workloads.  ``--workload all`` runs the four workloads
one after another in this process.

Correctness is checked after the timed window; any failed check or
unexpected exception makes the exit code 1.  Run records and the last traced
pass's spans are written under .bench_out/.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

SETUP_REPEATS = 5
COLD_CLI_REPEATS = 5
REFERENCE_SEED = 0
IMPORT_PROBE = (
    "import time; start = time.perf_counter(); import quadratizer, quadratizer.cli; "
    "print(time.perf_counter() - start)"
)

# The metrics of BENCHMARK.json's end_to_end list.  Pass times are printed
# but not listed: on a shared 2-vCPU host they swing by 1.5-2x for minutes at
# a time, wider than the largest bound a listed metric may have.
END_TO_END_UNITS = {
    "setup_s": "s",
    "aux_count": "count",
    "non_submodular": "count",
    "qubo_terms": "count",
    "peak_rss_mb": "MB",
}


def _import_library():
    """Import quadratizer from this checkout's src/ and nowhere else."""
    package = os.path.join(SRC, "quadratizer", "__init__.py")
    if not os.path.isfile(package):
        sys.exit(f"bench: {package} not found; run from a full checkout")
    sys.path[:0] = [SRC, HERE]
    import quadratizer

    if os.path.dirname(os.path.dirname(os.path.abspath(quadratizer.__file__))) != SRC:
        sys.exit(f"bench: imported quadratizer from {quadratizer.__file__}, not {SRC}")


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _environment(seed: int) -> dict:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = "not installed"
    return {
        "python": platform.python_version(),
        "numpy": numpy,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "seed": seed,
        "loadavg_start": os.getloadavg(),
    }


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# ---------------------------------------------------------------------------
# One workload


def _setup(name, seed, work_dir):
    """Set-up, repeated: the import of quadratizer and quadratizer.cli as
    timed inside a fresh interpreter, then instance generation and warm-up
    here; returns (instances, set-up seconds per repeat, import seconds)."""
    import workloads

    setup, imports = [], []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=_child_env(), cwd=ROOT,
            capture_output=True, text=True, timeout=120, check=True,
        )
        imports.append(float(child.stdout.strip()))
        start = time.perf_counter()
        inst = workloads.generate(name, seed)
        workloads.prepare(inst, work_dir)
        workloads.warm_up()
        setup.append(imports[-1] + time.perf_counter() - start)
    return inst, setup, imports


def _cold_cli(inst, work_dir):
    """Wall time of `python -m quadratizer quadratize --verify` in a fresh
    process, one at a time, and the output it wrote."""
    path = inst.data["cli_files"][0]
    out = os.path.join(work_dir, "cold.qubo.json")
    times = []
    for _ in range(COLD_CLI_REPEATS):
        start = time.perf_counter()
        child = subprocess.run(
            [sys.executable, "-m", "quadratizer", "quadratize", "--in", path, "--verify",
             "--out", out],
            env=_child_env(), cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        times.append(time.perf_counter() - start)
        if child.returncode != 0:
            return times, None
    with open(out, encoding="utf-8") as handle:
        return times, handle.read()


def _digest_failures(name, seed, outcome, recorded, work_dir):
    """Compare the pass digest with the one recorded for this seed; for a
    seed with no record, also run and check the reference seed."""
    import checks
    import workloads

    failures = []
    digests = recorded["digests"][name]
    if str(seed) in digests:
        if outcome.digest != digests[str(seed)]:
            failures.append(f"output digest {outcome.digest} != recorded {digests[str(seed)]}")
        return failures
    reference = workloads.generate(name, REFERENCE_SEED)
    workloads.prepare(reference, work_dir)
    ref = checks.check_pass(workloads.run_pass(reference), recorded["verdicts"])
    failures += [f"seed {REFERENCE_SEED}: {f}" for f in ref.failures]
    if ref.digest != digests[str(REFERENCE_SEED)]:
        failures.append(
            f"seed {REFERENCE_SEED} output digest {ref.digest} != recorded "
            f"{digests[str(REFERENCE_SEED)]}"
        )
    return failures


def run_workload(name: str, seed: int, seconds: float, traced: bool, recorded: dict) -> dict:
    import checks
    import tracing
    import workloads

    env = _environment(seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        inst, setup, imports = _setup(name, seed, work_dir)

        plain, traced_runs = [], []  # per pass: (seconds, {(kind, name): seconds}) / TracedPass
        first_items = counts = tracer = None
        failures = []
        attempted = expected_failures = 0
        start = time.perf_counter()
        while True:
            for under_trace in ((False, True) if traced else (False,)):
                tracer = tracing.Tracer() if under_trace else None
                began = time.perf_counter()
                if tracer is None:
                    items = workloads.run_pass(inst)
                else:
                    with tracing.installed(tracer):
                        items = workloads.run_pass(inst, tracer)
                elapsed = time.perf_counter() - began
                attempted += len(items)
                expected_failures += sum(1 for item in items if item.expected_failure)
                pass_counts = checks.pass_counts(items)
                if counts is None:
                    counts, first_items = pass_counts, items
                else:
                    failures += checks.unexpected_errors(items)
                    if pass_counts != counts:
                        failures.append(f"output counts {pass_counts} != first pass {counts}")
                if tracer is None:
                    plain.append((elapsed, {(i.kind, i.name): i.seconds for i in items}))
                else:
                    traced_runs.append(tracing.summarise(tracer, elapsed))
                del items
            if time.perf_counter() - start >= seconds:
                break
        # peak memory of the workload itself, before the checks allocate
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        outcome = checks.check_pass(first_items, recorded["verdicts"])
        failures += outcome.failures
        failures += _digest_failures(name, seed, outcome, recorded, work_dir)

        extra = {"pass_s": (statistics.median(s for s, _ in plain), "s"),
                 **_workload_metrics(name, plain)}
        if "cli_files" in inst.data:
            cold, cold_text = _cold_cli(inst, work_dir)
            extra["cli_cold_ms"] = (statistics.median(cold) * 1e3, "ms")
            cli_text = next(i for i in first_items if i.kind == "cli").value[1]
            if cold_text != cli_text:
                failures.append("fresh-process CLI output differs from the in-process CLI output")
        first_items = None

        metrics = {
            "setup_s": statistics.median(setup),
            **counts,
            "peak_rss_mb": peak_rss_mb,
        }
        if traced:
            layer, self_seconds, rates = _layer_metrics(traced_runs, plain, imports, failures)
            _write_spans(name, seed, env, tracer)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failed = min(attempted, expected_failures + len(failures))
    env["loadavg_end"] = os.getloadavg()
    result = {
        "workload": name,
        "env": env,
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "passes": len(plain),
        "pass_seconds": [seconds for seconds, _ in plain],
        "end_to_end": {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()},
        "extra": {**extra, "failed_ratio": (failed / attempted, f"{failed}/{attempted}")},
    }
    if traced:
        result.update(per_layer=layer, self_seconds=self_seconds, rates=rates)
    return result


def _workload_metrics(name, plain) -> dict:
    """The end-to-end metrics that exist only on some workloads."""
    by_kind = {}
    for _, timings in plain:
        for key, seconds in timings.items():
            by_kind.setdefault(key, []).append(seconds)
    extra = {}
    if name == "route_large":
        for t in (250, 500, 1000):
            extra[f"quadratize_s.T{t}"] = (statistics.median(by_kind[("route", f"T{t}")]), "s")
    if name.startswith("oracle"):
        latencies = [
            s * 1e3 for (kind, _), times in by_kind.items() if kind == "pipeline" for s in times
        ]
        extra["latency_p50_ms"] = (statistics.median(latencies), f"ms, n={len(latencies)}")
        extra["latency_p90_ms"] = (_percentile(latencies, 0.9), f"ms, n={len(latencies)}")
        cli = [s * 1e3 for (kind, _), times in by_kind.items() if kind == "cli" for s in times]
        extra["cli_ms"] = (statistics.median(cli), "ms")
    return extra


def _slope(points) -> float:
    """Least-squares slope of log(time) against log(size)."""
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


# per-layer share metric -> span names whose self time it sums
SHARES = {
    "pipeline.self_share": ("pipeline.quadratize",),
    "pipeline.flip_self_share": ("pipeline.flip",),
    "poly.arith_self_share": ("poly.arith",),
    "poly.substitute_self_share": ("poly.substitute",),
    "poly.evaluate_self_share": ("poly.evaluate",),
    "poly.profile_self_share": ("poly.profile",),
    "single_term.apply_self_share": ("single_term.apply",),
    "multi_term.choose_pair_self_share": ("multi_term.choose_pair",),
    "multi_term.rosenberg_pair_self_share": ("multi_term.rosenberg_pair",),
    "multi_term.discover_groups_self_share": ("multi_term.discover_groups",),
    "multi_term.fgbz_apply_self_share": ("multi_term.fgbz_apply",),
    "structured.sfr_bcr_self_share": ("structured.sfr_bcr",),
    "rewrites.deductions_self_share": ("rewrites.deductions",),
    "rewrites.elc_self_share": ("rewrites.elc",),
    "rewrites.split_self_share": ("rewrites.split",),
    "verify.self_share.b": ("verify.kernel[b]",),
    "verify.self_share.z": ("verify.kernel[z]",),
    "verify.self_share.t": ("verify.kernel[t]",),
    "verify.cost_report_self_share": ("verify.cost_report",),
    "textio.parse_share": ("textio.parse",),
    "textio.format_share": ("textio.format",),
    "textio.qubo_json_share": ("textio.qubo_json",),
    "cli.main_self_share": ("cli.main",),
}

COUNTS = (
    "pipeline.quadratize_calls", "pipeline.flip_candidates", "poly.add_calls",
    "poly.add_terms_copied", "poly.substitute_calls", "poly.evaluate_calls", "poly.profile_calls",
    "single_term.apply_calls", "single_term.aux_created", "multi_term.choose_pair_calls",
    "multi_term.discover_groups_calls", "rewrites.split_subproblems",
    "verify.calls.b", "verify.calls.z", "verify.calls.t",
    "verify.states.b", "verify.states.z", "verify.states.t", "verify.cap_exceeded",
)


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def _layer_metrics(traced_runs, plain, imports, failures):
    """(per-layer metrics, median self seconds per span name, rates)."""
    shares = {key: [] for key in SHARES}
    seconds = {}
    for run in traced_runs:
        for key, names in SHARES.items():
            shares[key].append(sum(run.self_seconds.get(n, 0.0) for n in names) / run.seconds)
        for span_name, value in run.self_seconds.items():
            seconds.setdefault(span_name, []).append(value)
    counts = traced_runs[0].counts
    if any(run.counts != counts for run in traced_runs[1:]):
        failures.append("per-layer counts differ between traced passes")

    metrics = {key: (statistics.median(v), "ratio") for key, v in shares.items()}
    metrics["structured.experimental_reports_share"] = (
        statistics.median(r.experimental_seconds / r.seconds for r in traced_runs), "ratio")
    metrics.update({key: (counts[key], "count") for key in COUNTS})
    metrics["textio.qubo_json_bytes"] = (counts["textio.qubo_json_bytes"], "bytes")
    metrics["pipeline.flip_accept_ratio"] = (
        _ratio(counts["pipeline.flip_accepted"], counts["pipeline.flip_candidates"]), "ratio")
    metrics["multi_term.groups_used_ratio"] = (
        _ratio(counts["multi_term.groups_applied"], counts["multi_term.groups_discovered"]),
        "ratio")
    sizes = {}  # term count -> seconds, over route_large's or group_and_flip's sizes
    for _, timings in plain:
        for (kind, item), value in timings.items():
            if kind in ("route", "group"):
                sizes.setdefault(int(item[1:]), []).append(value)
    points = [(t, statistics.median(v)) for t, v in sorted(sizes.items())]
    metrics["pipeline.time_vs_T_exponent"] = (_slope(points) if points else 0.0, "1")
    untraced = statistics.median(s for s, _ in plain)
    traced_s = statistics.median(r.seconds for r in traced_runs)
    metrics["trace.pass_s"] = (traced_s, "s")
    metrics["trace_overhead_ratio"] = (traced_s / untraced, "ratio")
    metrics["trace.span_coverage"] = (
        statistics.median(r.library_seconds / r.seconds for r in traced_runs), "ratio")
    metrics["cli.import_ms"] = (statistics.median(imports) * 1e3, "ms")
    self_seconds = {k: statistics.median(v) for k, v in sorted(seconds.items())}
    rates = {
        "textio.parse_terms_per_s": _ratio(
            counts["textio.parsed_terms"], self_seconds.get("textio.parse", 0.0)),
        **{
            f"verify.states_per_s.{d}": _ratio(
                counts[f"verify.states.{d}"], self_seconds.get(f"verify.kernel[{d}]", 0.0))
            for d in "bzt"
        },
    }
    return metrics, self_seconds, rates


def _write_spans(name, seed, env, tracer):
    path = os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({
            "env": env,
            "columns": ["name", "start", "end", "parent", "instance"],
            "spans": tracer.spans,
        }, handle)


# ---------------------------------------------------------------------------
# Reporting


def _report(result: dict, traced: bool):
    print(f"== {result['workload']}  ({result['passes']} untraced passes)")
    print("env " + json.dumps(result["env"], sort_keys=True))
    rows = dict(result["end_to_end"])
    rows.update(result["extra"])
    if traced:
        rows.update(result["per_layer"])
        rows.update({f"self_s {k}": (v, "s") for k, v in result["self_seconds"].items()})
        rows.update({k: (v, "1/s") for k, v in result["rates"].items()})
    for key, (value, unit) in rows.items():
        print(f"  {key:40s} {value:>16.6g}  {unit}")
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")


def _metrics_json(result: dict, traced: bool) -> dict:
    source = result["per_layer"] if traced else result["end_to_end"]
    return {key: {"value": value, "unit": unit} for key, (value, unit) in source.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_library()
    import checks
    import workloads

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        if name not in workloads.WORKLOADS:
            parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)} or all")
    recorded = checks.load_recorded()
    traced = bool(args.trace)
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, traced, recorded)
        _report(result, traced)
        record = os.path.join(OUT_DIR, f"{name}-seed{args.seed}-trace{args.trace}.json")
        with open(record, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=1, default=str)
        results.append(result)

    if len(results) == 1:
        metrics = _metrics_json(results[0], traced)
    else:
        metrics = {
            f"{r['workload']}/{key}": value
            for r in results for key, value in _metrics_json(r, traced).items()
        }
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
