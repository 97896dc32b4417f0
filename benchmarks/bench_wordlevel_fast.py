"""Array-native detection→word-level pipeline vs the legacy dict path.

PR 3 vectorized the cut sweep and PR 4 the FA/HA pairing, but the serving
path still stitched the stages together through ``XorMajDetection`` dict
builds and walked the extracted tree with per-adder Python loops to
produce the word-level report (the paper's Sec. II-B payoff).  This series
measures the whole post-GNN path — ``extract_from_predictions`` straight
through ``analyze_adder_tree`` (candidate arrays end to end, zero
detection dicts, Kahn-wavefront ranks) against the legacy baseline kept in
``tests/oracles/`` (per-node cut re-derivation, dict pairing, per-adder
report walk), on growing CSA multipliers.  Run from the repo root so
``tests`` imports.

Labels are the exact ground truth — deterministic, model-free, and on
multipliers essentially identical to what a trained Gamora predicts — so
the comparison isolates the reason→report serving path itself.

Claims asserted:

* ≥ 2x on the 64-bit CSA multiplier (the PR's acceptance bar);
* ≥ 1.5x on a small (16-bit) multiplier — the CI perf-smoke lane
  (``-k smoke``) runs just this quick check on every push;
* fast and legacy produce bit-identical adder trees *and* word-level
  reports while doing it.

Each run appends a machine-readable record to
``benchmarks/results/BENCH_wordlevel.json`` (the trajectory artifact,
uploaded by CI alongside ``BENCH_pairing.json``).
"""

from __future__ import annotations

import pytest

from common import (
    FULL,
    bench_multiplier,
    emit,
    emit_json,
    format_table,
    keep_under_benchmark_only,
)
from repro.core.postprocess import extract_from_predictions
from repro.reasoning import analyze_adder_tree
from repro.reasoning.adder_tree import ground_truth_labels
from repro.utils.timing import Timer, format_seconds
from tests import oracles

WIDTHS = (16, 32, 64, 96) if FULL else (16, 32, 64)


def _labels_for(width: int):
    gen = bench_multiplier(width)
    return gen.aig, ground_truth_labels(gen.aig)


def _run(aig, labels, extract, analyze):
    """One reason→report pass: post-processing + word-level analysis."""
    extraction = extract(aig, labels)
    return extraction, analyze(aig, extraction.tree)


def _time_engines(aig, labels, rounds: int = 2):
    """Best-of-N for *both* engines: symmetric protocol, so one-time
    warmup (NPN lru_cache population, allocator) is charged to neither."""
    legacy_seconds = []
    for _ in range(rounds):
        with Timer() as legacy_timer:
            legacy, legacy_report = _run(aig, labels,
                                         oracles.extract_from_predictions,
                                         oracles.analyze_adder_tree)
        legacy_seconds.append(legacy_timer.elapsed)
    fast_seconds = []
    for _ in range(rounds):
        with Timer() as fast_timer:
            fast, fast_report = _run(aig, labels, extract_from_predictions,
                                     analyze_adder_tree)
        fast_seconds.append(fast_timer.elapsed)
    assert fast.tree.adders == legacy.tree.adders
    assert fast_report == legacy_report
    return min(legacy_seconds), min(fast_seconds), fast_report


@pytest.fixture(scope="module")
def wordlevel_series():
    rows = []
    for width in WIDTHS:
        aig, labels = _labels_for(width)
        # The 64-bit legacy pass costs seconds; one round there keeps the
        # default sweep around a minute without changing the verdict.
        rounds = 2 if width < 64 else 1
        legacy_seconds, fast_seconds, report = _time_engines(
            aig, labels, rounds=rounds)
        rows.append(
            {
                "width": width,
                "nodes": aig.num_vars,
                "legacy": legacy_seconds,
                "fast": fast_seconds,
                "speedup": legacy_seconds / max(fast_seconds, 1e-9),
                "adders": report.num_adders,
                "depth": report.depth,
            }
        )
    emit_json(
        "BENCH_wordlevel",
        {
            "benchmark": "wordlevel_fast",
            "full": FULL,
            "series": [
                {key: row[key] for key in
                 ("width", "nodes", "legacy", "fast", "speedup")}
                for row in rows
            ],
        },
    )
    return rows


def test_wordlevel_fast_series(wordlevel_series, benchmark):
    keep_under_benchmark_only(benchmark)
    table = [
        [
            f"{r['width']}-bit",
            f"{r['nodes']}",
            format_seconds(r["legacy"]),
            format_seconds(r["fast"]),
            f"{r['speedup']:.1f}x",
            f"{r['adders']}",
            f"{r['depth']}",
        ]
        for r in wordlevel_series
    ]
    emit(
        "wordlevel_fast",
        format_table(
            "Array-native vs legacy reason→word-level-report, CSA multipliers",
            ["design", "|V|", "legacy", "fast", "speedup", "adders", "depth"],
            table,
        ),
    )


def test_wordlevel_fast_speedup_64bit(wordlevel_series, benchmark):
    """The PR's acceptance bar: ≥2x on the 64-bit CSA multiplier."""
    keep_under_benchmark_only(benchmark)
    row = next(r for r in wordlevel_series if r["width"] == 64)
    assert row["speedup"] >= 2.0, (
        f"64-bit: expected >=2x over the dict/per-adder path, "
        f"got {row['speedup']:.2f}x"
    )


def test_wordlevel_fast_speedup_grows_with_size(wordlevel_series, benchmark):
    """The dict path pays per node and per adder; the array passes
    amortize.  The gap must not collapse as designs grow."""
    keep_under_benchmark_only(benchmark)
    assert wordlevel_series[-1]["speedup"] > 0.5 * wordlevel_series[0]["speedup"]


def test_smoke_fast_wordlevel_speedup(benchmark):
    """CI perf-smoke lane: a 16-bit multiplier must stay >=1.5x, quickly.

    Regression guard for the array-native serving path itself — if a
    change reintroduces dict round-trips or per-adder walks, this fails
    in minutes.
    """
    aig, labels = _labels_for(16)
    legacy_seconds, fast_seconds, _ = _time_engines(aig, labels)
    keep_under_benchmark_only(benchmark)
    speedup = legacy_seconds / max(fast_seconds, 1e-9)
    emit_json(
        "BENCH_wordlevel",
        {
            "benchmark": "wordlevel_fast_smoke",
            "series": [{"width": 16, "nodes": aig.num_vars,
                        "legacy": legacy_seconds, "fast": fast_seconds,
                        "speedup": speedup}],
        },
    )
    assert speedup >= 1.5, (
        f"16-bit: array-native pipeline regressed below 1.5x ({speedup:.2f}x)"
    )


def test_wordlevel_fast_kernel(benchmark):
    aig, labels = _labels_for(WIDTHS[-1])
    benchmark.pedantic(
        lambda: _run(aig, labels, extract_from_predictions,
                     analyze_adder_tree),
        rounds=3, iterations=1,
    )
