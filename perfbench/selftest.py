"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the repository's default test run;
the exact-count tests run two check workloads and take about half a minute.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

import corpus
import spans
import workload
from spans import Tracer, percentile, self_times

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

fm = workload.import_freemono()
import freemono.cli  # noqa: E402,F401


# --------------------------------------------------------------------------
# Self time on synthetic span trees: (name, thread, start, end).

def test_self_time_nested():
    got = self_times([("c", 1, 2, 5), ("d", 1, 3, 4), ("e", 1, 6, 9), ("a", 1, 0, 10)])
    # a covers c and e directly; d is inside c and counts against c only
    assert got == {"a": 10 - 3 - 3, "c": 3 - 1, "d": 1, "e": 3}


def test_self_time_back_to_back():
    got = self_times([("a", 1, 0, 5), ("b", 1, 5, 9), ("c", 1, 9, 9)])
    assert got == {"a": 5, "b": 4, "c": 0}


def test_self_time_two_threads():
    # a thread-2 span inside a thread-1 span in time is not its child
    got = self_times([("w", 2, 2, 6), ("x", 2, 3, 4), ("a", 1, 0, 10), ("b", 1, 1, 2)])
    assert got == {"a": 9, "b": 1, "w": 3, "x": 1}


def test_self_time_same_interval_later_span_is_parent():
    got = self_times([("inner", 1, 0, 4), ("outer", 1, 0, 4)])
    assert got == {"inner": 4, "outer": 0}


def test_self_time_repeated_names_sum():
    got = self_times([("f", 1, 1, 2), ("f", 1, 3, 5), ("g", 1, 0, 6)])
    assert got == {"f": 3, "g": 3}


# --------------------------------------------------------------------------
# The percentile rule: at least ten samples beyond the reported percentile.

def test_percentile_nearest_rank():
    xs = list(range(1, 101))
    assert percentile(xs, 50) == 50
    assert percentile(reversed(xs), 50) == 50
    assert percentile(range(1, 1001), 99) == 990


def test_percentile_needs_ten_beyond():
    with pytest.raises(ValueError):
        percentile(range(1, 101), 99)
    with pytest.raises(ValueError):
        percentile(range(1, 1000), 99)  # rank 990 of 999 leaves 9 beyond
    assert percentile(range(1, 1011), 99) == 1000  # rank 1000 leaves 10 beyond


def test_iteration_time_sums_each_parts_fastest_or_slowest():
    parts = [[i, 100 - i] for i in range(1, 11)]
    assert workload.iteration_time(parts) == 1 + 90
    assert workload.iteration_time(parts, slowest=True) == 10 + 99
    assert workload.iteration_time([[0.5]]) == 0.5
    with pytest.raises(ValueError):
        workload.iteration_time([[1, 2], [1]])


def test_timed_check_call_times_each_top_level_check():
    body = workload.CheckWorkload(fm, "schur-equiv", 5, trials="1")
    original = fm.cli.equivalence_report
    wall, _, _, _, parts = body.iteration()
    assert fm.cli.equivalence_report is original
    assert len(parts) == 2 and abs(sum(parts) - wall) < 1e-9 and min(parts) >= 0
    assert len(workload.CheckWorkload(fm, "schur-equiv", 5).iteration()[4]) == 1


# --------------------------------------------------------------------------
# Names and the benchmark definition.

def _synthetic_metrics(trace: bool) -> set:
    if trace:
        summary = {n: {"calls": 1, "self_s": 0.0, "raised": 0, "true": 0}
                   for n in spans.SPAN_NAMES}
        return set(workload.layer_metrics(summary, 1, None, 0.0))
    return {"setup_s", "iter_ms", "ops_per_s", "peak_rss_mb"}


def test_names_are_well_formed():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    names += [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert len(names) == len(set(names))


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workload.WORKLOADS)
    assert {m["name"] for m in BENCHMARK["end_to_end"]} == _synthetic_metrics(False)
    assert {m["name"] for m in BENCHMARK["per_layer"]} == _synthetic_metrics(True)


# --------------------------------------------------------------------------
# Tracer rebinding.

def test_tracer_rebinds_every_namespace_and_restores():
    original = fm.kernels.op_norm
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = fm.kernels.op_norm
        assert wrapped is not original
        for mod in (fm, fm.opsys, fm.verifiers):
            assert mod.op_norm is wrapped
        for mod in (fm.verifiers, fm.loewner1d):
            assert mod.scaled_min_eig is fm.kernels.scaled_min_eig
            assert hasattr(mod.scaled_min_eig, "__wrapped__")
        assert hasattr(fm.paths.CommutingPath.point, "__wrapped__")
        f = fm.catalog("schur_complement")
        p = fm.sample_halfplane(f.in_system, 2, fm.Rng(1))
        fm.halfplane_margin(f, p)
    finally:
        tracer.uninstall()
    assert fm.kernels.op_norm is original and fm.verifiers.op_norm is original
    counts = {n: e["calls"] for n, e in tracer.summary().items() if e["calls"]}
    assert counts["freeexpr.catalog"] == 1
    assert counts["verifiers.halfplane_margin"] == 1
    assert counts["freeexpr.eval_function"] == 1
    assert counts["kernels.safe_inv"] == 1


def _traced_iteration(name: str):
    body = workload.CheckWorkload(fm, name, 42)
    untraced = body.iteration()[3]
    tracer = Tracer()
    tracer.install()
    try:
        traced = body.iteration()[3]
    finally:
        tracer.uninstall()
    assert traced == untraced, "tracing changed the report bytes"
    assert body.problems == []
    return {n: e["calls"] for n, e in tracer.summary().items()}


def test_exact_counts_schur_equiv():
    calls = _traced_iteration("schur-equiv")
    assert calls["freeexpr.eval_function"] == 6000
    assert calls["opsys.sample_ordered_pair"] == 2000
    assert calls["cli.main"] == 1


def test_exact_counts_gmean_equiv():
    calls = _traced_iteration("gmean-equiv")
    assert calls["freeexpr.eval_function"] == 4000
    assert calls["kernels.principal_sqrt"] == 20000
    assert calls["kernels.safe_inv"] == 8000


# --------------------------------------------------------------------------
# Correctness gates have teeth.

def test_replay_matches_reference_and_catches_a_wrong_margin():
    body = workload.ReplayWorkload(fm, 7)
    _, ops, failed, _, _ = body.iteration()
    assert ops == len(body.records) == 4 * 4 * 2 * corpus.PER_GROUP
    assert failed == 0 and body.problems == []
    body.functions["square"] = fm.catalog("identity")
    _, _, failed, _, _ = body.iteration()
    assert failed == 4 * 2 * corpus.PER_GROUP and body.problems  # every square record


def test_replay_pass_is_timed_in_batches_and_compared_with_the_first_replay():
    body = workload.ReplayWorkload(fm, 7)
    assert body.warm_up() == (workload.REPLAY_BATCH, 0)
    wall, ops, failed, _, parts = body.iteration()
    assert len(parts) == len(body.records) // workload.REPLAY_BATCH and sum(parts) == wall
    assert ops == len(body.records) and failed == 0 and body.problems == []
    body.margins[5] += 1e-12  # within the reference tolerance, not equal to the first
    _, _, failed, _, _ = body.iteration()
    assert failed == 1 and "first replay" in body.problems[0]


def test_corpus_is_a_function_of_the_seed():
    assert corpus.build(3) == corpus.build(3)
    assert corpus.build(3) != corpus.build(4)


def test_check_gates_flag_unexpected_verdicts():
    doc = {"numerical_failures": [], "reports": [
        {"check": "monotone", "function": "schur_complement", "failures": 0,
         "verdict": "pass", "trials": 5, "levels": [1, 2]}],
        "equivalence": [{"check": "equivalence", "function": "schur_complement",
                         "sides": {"monotone": "pass"}, "consistent": True}]}
    assert workload.check_gates("schur-equiv", 0, doc) == []
    assert workload.check_ops(doc) == 10
    assert workload.check_gates("schur-equiv", 1, doc)
    doc["reports"][0].update(failures=1, verdict="fail")
    assert workload.check_gates("schur-equiv", 0, doc)
    assert workload.check_gates("suite-all", 1, doc)
