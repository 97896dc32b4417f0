"""Tests of the end-to-end benchmark itself: inputs, statistics, tracing,
the comparison rule, and (slow) a smoke run of every workload."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import compare
import launch
import run
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def test_metric_and_workload_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_same_seed_gives_same_requests_and_fresh_hashes():
    circuits = workloads.catalogue("hot-mix", smoke=True)

    def draw(seed):
        sequence = workloads.request_sequence("hot-mix", seed, 60, circuits,
                                              smoke=True)
        fresh = [c.aig.structural_hash()
                 for c in sequence[workloads.HOT_FRESH_EVERY - 1::
                                   workloads.HOT_FRESH_EVERY]]
        return [c.key for c in sequence], fresh

    keys, fresh = draw(3)
    assert draw(3) == (keys, fresh)
    assert draw(4) != (keys, fresh)
    catalogue_hashes = {c.aig.structural_hash() for c in circuits}
    assert len(set(fresh)) == 3 and not set(fresh) & catalogue_hashes


def test_cold_large_periods_hold_each_circuit_once():
    circuits = workloads.catalogue("cold-large", smoke=True)
    sequence = workloads.request_sequence("cold-large", 5, 30, circuits)
    period = workloads.PERIOD["cold-large"]
    for start in range(0, len(sequence), period):
        assert sorted(c.key for c in sequence[start:start + period]) == \
            sorted(c.key for c in circuits)


@pytest.mark.parametrize("count, q", [
    (12, 0.5), (19, 0.5), (20, 0.5), (40, 0.75), (100, 0.9), (1000, 0.99),
    (1100, 1 - 10 / 1100),
])
def test_tail_quantile_keeps_ten_samples_beyond(count, q):
    assert run.tail_quantile(count) == pytest.approx(q)


@pytest.mark.parametrize("count, tail_ms, beyond", [
    (100, 90.0, 10),  # 11th largest: exactly 10 samples beyond
    (1100, 1090.0, 10),
    (12, 6.0, 6),  # too few samples: the nearest-rank median
    (5, 3.0, 2),
])
def test_latency_summary_tail_is_the_eleventh_largest(count, tail_ms, beyond):
    summary = run.latency_summary([i / 1000 for i in range(count, 0, -1)])
    assert summary["latency_tail_ms"] == pytest.approx(tail_ms)
    assert summary["tail_samples_beyond"] == beyond
    assert summary["latency_p50_ms"] == pytest.approx((count + 1) / 2)


def _span(name, start, end, span_id, parent=None, tid=1):
    return {"name": name, "tid": tid, "start": start, "end": end,
            "id": span_id, "parent": parent}


def test_self_time_subtracts_children_only():
    spans = [
        _span("root", 0.0, 10.0, 1),
        _span("child", 1.0, 4.0, 2, parent=1),
        _span("leaf", 2.0, 3.0, 3, parent=2),
        _span("child", 5.0, 9.0, 4, parent=1),
        _span("root", 0.0, 5.0, 5, tid=2),  # another thread: no children
        _span("leaf", 6.0, 7.0, 6, parent=99),  # parent not recorded: a root
    ]
    table = launch.self_times(spans)
    assert table["root"] == {"calls": 2, "total_s": 15.0, "self_s": 8.0}
    assert table["child"] == {"calls": 2, "total_s": 7.0, "self_s": 6.0}
    assert table["leaf"] == {"calls": 2, "total_s": 2.0, "self_s": 2.0}


def test_tracer_spans_nest_through_chrome_events():
    tracer = launch.Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.002))
    outer = tracer.wrap("outer", lambda: (inner(), inner()))
    outer()
    table = launch.self_times(launch.spans_from_events(tracer.events()))
    assert table["inner"]["calls"] == 2 and table["outer"]["calls"] == 1
    assert table["outer"]["self_s"] == pytest.approx(
        table["outer"]["total_s"] - table["inner"]["total_s"])


_PARENT = [100.0 + i for i in range(10)]


@pytest.mark.parametrize("change, verdict", [
    ([90.0 + i for i in range(10)], "gain"),
    # 8 of 10 pairs won: not enough for a gain.
    ([90.0 + i for i in range(8)] + [110.0, 111.0], "same"),
    ([v * 1.2 for v in _PARENT], "regressed"),
    ([v * 1.05 for v in _PARENT], "same"),
    ([50.0, 150.0] * 5, "unresolved"),
])
def test_comparison_rule(change, verdict):
    assert compare.judge(_PARENT, change, "lower", 0.1)["verdict"] == verdict


def test_comparison_rule_needs_ten_pairs_and_no_new_failures():
    faster = [90.0 + i for i in range(10)]
    assert compare.judge(_PARENT[:9], faster[:9], "lower", 0.1)["verdict"] \
        == "same"
    assert compare.judge(_PARENT, faster, "lower", 0.1,
                         more_failures=True)["verdict"] == "same"
    # Higher-is-better metrics mirror the rule.
    assert compare.judge(faster, _PARENT, "higher", 0.1)["verdict"] == "gain"


def test_refuses_to_run_without_the_program(tmp_path):
    copy = tmp_path / "benchmarks" / "e2e"
    shutil.copytree(HERE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "hot-mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


@pytest.mark.slow
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_metric(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all",
         "--seed", "0", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    names = run.PER_LAYER if trace else run.END_TO_END
    assert set(result["metrics"]) == {
        f"{workload}.{name}" for workload in workloads.WORKLOADS
        for name in names
    }
    assert result["failed"] == 0 and result["correct"]
