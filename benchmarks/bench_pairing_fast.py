"""Array-shaped FA/HA pairing vs the legacy per-root extraction loop.

PR 3 vectorized cut enumeration and NPN matching, which left
``extract_adder_tree`` — bipartite matching, per-adder ``cone_between``
DFS, per-call carry-pool rebuild — as the dominant per-root Python loop on
the post-processing hot path.  This series isolates exactly that stage:
``extract_adder_tree`` and the legacy per-root loop kept in
``tests/oracles/`` receive the *same* precomputed detection (the fast cut
sweep, bit-identical to legacy), so the timings compare pairing
implementations, nothing else, on growing CSA multipliers.  Run from the
repo root so ``tests`` imports.

Claims asserted:

* ≥ 3x on the 64-bit CSA multiplier (the PR's acceptance bar);
* ≥ 1.5x on a small (16-bit) multiplier — the CI perf-smoke lane
  (``-k smoke``) runs just this quick check on every push;
* fast and legacy recover bit-identical adder trees while doing it.

Each run also appends a machine-readable record to
``benchmarks/results/BENCH_pairing.json`` (the trajectory artifact), so
speedup history survives across runs.
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
from repro.reasoning import detect_xor_maj, extract_adder_tree
from repro.utils.timing import Timer, format_seconds
from tests import oracles

WIDTHS = (16, 32, 64, 96) if FULL else (16, 32, 64)


def _prepared(width: int):
    """Multiplier plus a shared detection: pairing input for both engines."""
    gen = bench_multiplier(width)
    return gen.aig, detect_xor_maj(gen.aig)


def _time_engines(aig, detection, rounds: int = 3):
    """Best-of-N for *both* engines: symmetric protocol, so one-time costs
    (levels array, the cached carry pool, allocator warmup) are charged to
    neither."""
    legacy_seconds = []
    for _ in range(rounds):
        with Timer() as legacy_timer:
            legacy = oracles.extract_adder_tree(aig, detection)
        legacy_seconds.append(legacy_timer.elapsed)
    fast_seconds = []
    for _ in range(rounds):
        with Timer() as fast_timer:
            fast = extract_adder_tree(aig, detection)
        fast_seconds.append(fast_timer.elapsed)
    assert fast.adders == legacy.adders
    assert fast.consumed == legacy.consumed
    return min(legacy_seconds), min(fast_seconds), fast


@pytest.fixture(scope="module")
def pairing_series():
    rows = []
    for width in WIDTHS:
        aig, detection = _prepared(width)
        legacy_seconds, fast_seconds, fast = _time_engines(aig, detection)
        rows.append(
            {
                "width": width,
                "nodes": aig.num_vars,
                "legacy": legacy_seconds,
                "fast": fast_seconds,
                "speedup": legacy_seconds / max(fast_seconds, 1e-9),
                "full_adders": fast.num_full_adders,
                "half_adders": fast.num_half_adders,
            }
        )
    emit_json(
        "BENCH_pairing",
        {
            "benchmark": "pairing_fast",
            "full": FULL,
            "series": [
                {key: row[key] for key in
                 ("width", "nodes", "legacy", "fast", "speedup")}
                for row in rows
            ],
        },
    )
    return rows


def test_pairing_fast_series(pairing_series, benchmark):
    keep_under_benchmark_only(benchmark)
    table = [
        [
            f"{r['width']}-bit",
            f"{r['nodes']}",
            format_seconds(r["legacy"]),
            format_seconds(r["fast"]),
            f"{r['speedup']:.1f}x",
            f"{r['full_adders']}",
            f"{r['half_adders']}",
        ]
        for r in pairing_series
    ]
    emit(
        "pairing_fast",
        format_table(
            "Array-shaped vs per-root extract_adder_tree, CSA multipliers",
            ["design", "|V|", "legacy", "fast", "speedup", "FA", "HA"],
            table,
        ),
    )


def test_pairing_fast_speedup_64bit(pairing_series, benchmark):
    """The PR's acceptance bar: ≥3x on the 64-bit CSA multiplier."""
    keep_under_benchmark_only(benchmark)
    row = next(r for r in pairing_series if r["width"] == 64)
    assert row["speedup"] >= 3.0, (
        f"64-bit: expected >=3x over the per-root pairing loop, "
        f"got {row['speedup']:.2f}x"
    )


def test_pairing_fast_speedup_grows_with_size(pairing_series, benchmark):
    """The per-root loop pays per adder; the array passes amortize.  The
    gap must not collapse as designs grow."""
    keep_under_benchmark_only(benchmark)
    assert pairing_series[-1]["speedup"] > 0.5 * pairing_series[0]["speedup"]


def test_smoke_fast_pairing_speedup(benchmark):
    """CI perf-smoke lane: a 16-bit multiplier must stay >=1.5x, quickly.

    Regression guard for the array-shaped pairing itself — if a change
    drags it back toward per-root Python costs, this fails in minutes.
    """
    aig, detection = _prepared(16)
    legacy_seconds, fast_seconds, _ = _time_engines(aig, detection)
    keep_under_benchmark_only(benchmark)
    speedup = legacy_seconds / max(fast_seconds, 1e-9)
    emit_json(
        "BENCH_pairing",
        {
            "benchmark": "pairing_fast_smoke",
            "series": [{"width": 16, "nodes": aig.num_vars,
                        "legacy": legacy_seconds, "fast": fast_seconds,
                        "speedup": speedup}],
        },
    )
    assert speedup >= 1.5, (
        f"16-bit: array pairing regressed below 1.5x ({speedup:.2f}x)"
    )


def test_pairing_fast_kernel(benchmark):
    aig, detection = _prepared(WIDTHS[-1])
    benchmark.pedantic(
        lambda: extract_adder_tree(aig, detection),
        rounds=3, iterations=1,
    )
