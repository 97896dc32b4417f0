"""Sharded serving vs the monolithic batched path.

End-to-end throughput of ``ReasoningService.reason_many`` on a mixed
request stream — 16 8–16-bit multipliers, cold caches — comparing:

* the **monolithic** path: one block-diagonal mega-pass
  (``max_window_bytes=None``);
* the **sharded** path: forward passes bounded by a ``max_window_bytes``
  budget (~total/4, so the stream genuinely splits).

Both extract every circuit in process, with the caches off so every
call pays the whole cold path.  Each service first makes one untimed
call (first-call costs, and the answers compared below), then the two
paths are timed over alternating rounds.  Reported per path: median
wall time, speed ratio, per-stage breakdown, and the peak estimated
shard memory against the configured budget.  Asserted: every executed
shard stays within the budget, both paths produce identical adder
trees, and the sharded path's median costs at most 1.35x the monolithic
median (bounded overhead: sharding trades peak memory for a few more,
smaller passes).
"""

from __future__ import annotations

import statistics

import pytest

from common import keep_under_benchmark_only, bench_multiplier, emit, format_table, trained_gamora
from repro.learn import estimate_batch_memory
from repro.serve import ReasoningService
from repro.utils.timing import format_seconds

# 16 requests, 9 unique structures: repeats exercise the dedup path.
STREAM_WIDTHS = (16, 8, 12, 14, 16, 10, 12, 8, 15, 11, 16, 13, 9, 14, 10, 12)
# Largest allowed sharded / monolithic wall-time ratio, on medians.
MAX_OVERHEAD = 1.35
# Timed rounds per path, alternating which path goes first.
ROUNDS = 5


@pytest.fixture(scope="module")
def sharded_comparison():
    gamora = trained_gamora(train_widths=(8,))
    circuits = [bench_multiplier(w) for w in STREAM_WIDTHS]

    # Budget ~ a quarter of the full mega-batch (but never below the largest
    # single design, so no circuit streams).  Derived through
    # throwaway services so both measured services start cold.
    planner = ReasoningService(gamora)
    total_bytes = planner.plan(circuits).peak_shard_bytes
    standalone = [
        estimate_batch_memory(gamora.inference_kernel(), [planner.encode(c)])
        for c in circuits
    ]
    budget = max(max(standalone), total_bytes // 4)
    plan = ReasoningService(gamora, max_window_bytes=budget).plan(circuits)

    services = {
        path: ReasoningService(gamora, graph_cache_size=0,
                               result_cache_size=0, max_window_bytes=limit)
        for path, limit in (("monolithic", None), ("sharded", budget))
    }
    # Untimed warm-up call per service.  The budget must not change answers.
    monolithic, sharded = (services[path].reason_many(circuits)
                           for path in ("monolithic", "sharded"))
    for left, right in zip(monolithic, sharded):
        assert left.tree.num_full_adders == right.tree.num_full_adders
        assert left.tree.num_half_adders == right.tree.num_half_adders
        assert left.num_mismatches == right.num_mismatches

    stats = {}
    seconds = {path: [] for path in services}
    for round_index in range(ROUNDS):
        order = sorted(services, reverse=bool(round_index % 2))
        for path in order:
            stats[path] = services[path].reason_many(circuits).stats
            seconds[path].append(stats[path].total_seconds)

    return {
        "budget": budget,
        "plan": plan,
        "monolithic": stats["monolithic"],
        "sharded": stats["sharded"],
        "median_seconds": {path: statistics.median(times)
                           for path, times in seconds.items()},
    }


def test_sharded_memory_stays_under_budget(sharded_comparison, benchmark):
    """Every planned and executed shard fits the configured byte budget."""
    keep_under_benchmark_only(benchmark)
    budget = sharded_comparison["budget"]
    plan = sharded_comparison["plan"]
    assert len(plan) > 1, "budget must genuinely split this stream"
    assert plan.num_streamed == 0
    for step in plan:
        assert step.window_plan.peak_window_bytes <= budget
    executed = sharded_comparison["sharded"]
    assert executed.num_shards == len(plan)
    assert 0 < executed.peak_shard_bytes <= budget
    # The monolithic pass really needed more than one shard's worth.
    assert sharded_comparison["monolithic"].peak_shard_bytes > budget


def test_sharded_overhead_is_bounded(sharded_comparison, benchmark):
    """End-to-end: the sharded median stays within 1.35x of monolithic."""
    keep_under_benchmark_only(benchmark)
    monolithic = sharded_comparison["monolithic"]
    sharded = sharded_comparison["sharded"]
    budget = sharded_comparison["budget"]
    medians = sharded_comparison["median_seconds"]
    speedup = medians["monolithic"] / max(medians["sharded"], 1e-12)
    emit(
        "sharded_serve",
        format_table(
            f"Sharded serving vs monolithic "
            f"({len(STREAM_WIDTHS)} mixed multipliers, "
            f"budget {budget / 1024 ** 2:.1f}MiB, median of {ROUNDS})",
            ["path", "total", "speedup", "peak shard", "detail (last round)"],
            [
                ["monolithic", format_seconds(medians["monolithic"]),
                 "1.00x", f"{monolithic.peak_shard_bytes / 1024 ** 2:.1f}MiB",
                 monolithic.summary()],
                ["sharded", format_seconds(medians["sharded"]),
                 f"{speedup:.2f}x", f"{sharded.peak_shard_bytes / 1024 ** 2:.1f}MiB",
                 sharded.summary()],
            ],
        ),
    )
    assert speedup >= 1 / MAX_OVERHEAD, (
        f"sharded median {medians['sharded']:.3f}s is "
        f"{1 / max(speedup, 1e-12):.2f}x the monolithic median "
        f"{medians['monolithic']:.3f}s (bound {MAX_OVERHEAD}x)"
    )


def test_sharded_serve_kernel(benchmark):
    """The representative kernel: one sharded batch."""
    gamora = trained_gamora(train_widths=(8,))
    circuits = [bench_multiplier(w) for w in (8, 10, 12, 8)]
    encoder = ReasoningService(gamora)
    budget = max(
        estimate_batch_memory(gamora.inference_kernel(), [encoder.encode(c)])
        for c in circuits
    )

    def run():
        service = ReasoningService(gamora, max_window_bytes=budget)
        return service.reason_many(circuits)

    benchmark.pedantic(run, rounds=3, iterations=1)
