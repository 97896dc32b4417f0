"""Vectorized post-processing vs the legacy per-node cut path.

Post-processing (cut verification + adder-tree extraction) is the ~30:1
dominant serving cost; PR 2 parallelized it, this PR makes it faster.  The
series measures :func:`repro.core.postprocess.extract_from_predictions`
(one vectorized whole-graph cut sweep shared by LSB repair and candidate
verification) against the legacy baseline kept in ``tests/oracles/``
(per-node ``node_cuts`` re-derivation around every flagged candidate), on
growing CSA multipliers.  Run from the repo root so ``tests`` imports.

Labels are the exact ground truth — deterministic, model-free, and on
multipliers essentially identical to what a trained Gamora predicts — so
the comparison isolates the post-processing stage itself.

Claims asserted:

* ≥ 5x on the 32-bit CSA multiplier (the PR's acceptance bar);
* ≥ 2x on a small (16-bit) multiplier — the CI perf-smoke lane
  (``-k smoke``) runs just this quick check on every push;
* fast and legacy recover identical adder trees while doing it.
"""

from __future__ import annotations

import pytest

from common import FULL, bench_multiplier, emit, format_table, keep_under_benchmark_only
from repro.core.postprocess import extract_from_predictions
from repro.reasoning.adder_tree import ground_truth_labels
from repro.utils.timing import Timer, format_seconds
from tests import oracles

WIDTHS = (8, 16, 32, 48) if FULL else (8, 16, 32)


def _labels_for(width: int):
    gen = bench_multiplier(width)
    return gen.aig, ground_truth_labels(gen.aig)


def _time_engines(aig, labels, rounds: int = 2):
    """Best-of-N for *both* engines: symmetric protocol, so one-time
    warmup (NPN lru_cache population, allocator) is charged to neither."""
    legacy_seconds = []
    for _ in range(rounds):
        with Timer() as legacy_timer:
            legacy = oracles.extract_from_predictions(aig, labels)
        legacy_seconds.append(legacy_timer.elapsed)
    fast_seconds = []
    for _ in range(rounds):
        with Timer() as fast_timer:
            fast = extract_from_predictions(aig, labels)
        fast_seconds.append(fast_timer.elapsed)
    assert fast.tree.adders == legacy.tree.adders
    assert fast.num_mismatches == legacy.num_mismatches
    return min(legacy_seconds), min(fast_seconds), fast


@pytest.fixture(scope="module")
def speedup_series():
    rows = []
    for width in WIDTHS:
        aig, labels = _labels_for(width)
        legacy_seconds, fast_seconds, fast = _time_engines(aig, labels)
        rows.append(
            {
                "width": width,
                "nodes": aig.num_vars,
                "legacy": legacy_seconds,
                "fast": fast_seconds,
                "speedup": legacy_seconds / max(fast_seconds, 1e-9),
                "full_adders": fast.tree.num_full_adders,
            }
        )
    return rows


def test_postprocess_fast_series(speedup_series, benchmark):
    keep_under_benchmark_only(benchmark)
    table = [
        [
            f"{r['width']}-bit",
            f"{r['nodes']}",
            format_seconds(r["legacy"]),
            format_seconds(r["fast"]),
            f"{r['speedup']:.1f}x",
            f"{r['full_adders']}",
        ]
        for r in speedup_series
    ]
    emit(
        "postprocess_fast",
        format_table(
            "Vectorized vs legacy extract_from_predictions, CSA multipliers",
            ["design", "|V|", "legacy", "fast", "speedup", "FA"],
            table,
        ),
    )


def test_postprocess_fast_speedup_32bit(speedup_series, benchmark):
    """The PR's acceptance bar: ≥5x on the 32-bit CSA multiplier."""
    keep_under_benchmark_only(benchmark)
    row = next(r for r in speedup_series if r["width"] == 32)
    assert row["speedup"] >= 5.0, (
        f"32-bit: expected >=5x over the legacy per-node path, "
        f"got {row['speedup']:.2f}x"
    )


def test_postprocess_fast_speedup_grows_with_size(speedup_series, benchmark):
    """The per-node path pays per flagged candidate; the sweep amortizes.
    The gap must not collapse as designs grow."""
    keep_under_benchmark_only(benchmark)
    assert speedup_series[-1]["speedup"] > 0.5 * speedup_series[0]["speedup"]


def test_smoke_fast_engine_speedup(benchmark):
    """CI perf-smoke lane: a 16-bit multiplier must stay >=2x, quickly.

    Regression guard for the vectorized path itself — if a change drags the
    fast engine back toward per-node Python costs, this fails in minutes.
    """
    aig, labels = _labels_for(16)
    legacy_seconds, fast_seconds, _ = _time_engines(aig, labels)
    keep_under_benchmark_only(benchmark)
    speedup = legacy_seconds / max(fast_seconds, 1e-9)
    assert speedup >= 2.0, (
        f"16-bit: vectorized engine regressed below 2x ({speedup:.2f}x)"
    )


def test_postprocess_fast_kernel(benchmark):
    aig, labels = _labels_for(WIDTHS[-1])
    benchmark.pedantic(
        lambda: extract_from_predictions(aig, labels),
        rounds=3, iterations=1,
    )
