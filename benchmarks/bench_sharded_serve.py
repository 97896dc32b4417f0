"""Sharded + parallel serving vs the monolithic batched path (PR 1).

End-to-end throughput of ``ReasoningService.reason_many`` on a
post-processing-heavy request stream — 16 mixed 8–16-bit multipliers, cold
caches — comparing:

* the **monolithic** path: one block-diagonal mega-pass, in-process
  extraction (exactly the PR 1 behavior, ``max_window_bytes=None``,
  ``postprocess_workers=0``);
* the **sharded + parallel** path: forward passes bounded by a
  ``max_window_bytes`` budget (~total/4, so the stream genuinely splits)
  and extraction fanned out to worker processes overlapped with the next
  shard's inference.

Reported per path: total wall time, speedup, per-stage breakdown, and the
peak estimated shard memory against the configured budget.  Asserted
always: every executed shard stays within the budget, and both paths
produce identical adder trees.  The >=1.5x end-to-end speedup claim is
asserted on parallel hardware (>= 2 CPUs, e.g. CI runners); on a single
CPU there is nothing for the workers to run on, so only a bounded-overhead
claim holds — the documented deviation, mirroring the CPU-backend notes on
the Fig. 8 benchmark.
"""

from __future__ import annotations

import os

import pytest

from common import keep_under_benchmark_only, bench_multiplier, emit, format_table, trained_gamora
from repro.learn import estimate_batch_memory
from repro.serve import ReasoningService
from repro.utils.timing import format_seconds

# 16 requests, 9 unique structures: wide enough that post-processing
# dominates (~30:1 over inference) and repeats exercise the dedup path.
STREAM_WIDTHS = (16, 8, 12, 14, 16, 10, 12, 8, 15, 11, 16, 13, 9, 14, 10, 12)
NUM_CPUS = os.cpu_count() or 1
WORKERS = min(4, max(2, NUM_CPUS))
PARALLEL_HARDWARE = NUM_CPUS >= 2


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

    monolithic_service = ReasoningService(gamora)
    monolithic = monolithic_service.reason_many(circuits)

    sharded_service = ReasoningService(
        gamora, max_window_bytes=budget, postprocess_workers=WORKERS
    )
    sharded = sharded_service.reason_many(circuits)

    # The scaling knobs must not change answers.
    for left, right in zip(monolithic, sharded):
        assert left.tree.num_full_adders == right.tree.num_full_adders
        assert left.tree.num_half_adders == right.tree.num_half_adders
        assert left.num_mismatches == right.num_mismatches

    return {
        "budget": budget,
        "plan": plan,
        "monolithic": monolithic.stats,
        "sharded": sharded.stats,
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


def test_sharded_parallel_throughput(sharded_comparison, benchmark):
    """End-to-end: sharded + parallel >= 1.5x over the monolithic PR 1 path.

    The speedup comes from fanning the dominant stage (per-circuit
    extraction) across worker processes while the next shard's forward
    pass runs.  It requires hardware parallelism: on >= 2 CPUs the 1.5x
    floor is asserted; on a single CPU the same configuration must instead
    stay within 1.35x of the monolithic path (fork + pickle overhead with
    no cores to spend it on — the documented deviation).
    """
    keep_under_benchmark_only(benchmark)
    monolithic = sharded_comparison["monolithic"]
    sharded = sharded_comparison["sharded"]
    budget = sharded_comparison["budget"]
    speedup = monolithic.total_seconds / max(sharded.total_seconds, 1e-12)
    emit(
        "sharded_serve",
        format_table(
            f"Sharded + parallel serving vs monolithic "
            f"({len(STREAM_WIDTHS)} mixed multipliers, "
            f"budget {budget / 1024 ** 2:.1f}MiB, "
            f"{WORKERS} workers on {NUM_CPUS} CPU(s))",
            ["path", "total", "speedup", "peak shard", "detail"],
            [
                ["monolithic (PR 1)", format_seconds(monolithic.total_seconds),
                 "1.00x", f"{monolithic.peak_shard_bytes / 1024 ** 2:.1f}MiB",
                 monolithic.summary()],
                ["sharded + parallel", format_seconds(sharded.total_seconds),
                 f"{speedup:.2f}x", f"{sharded.peak_shard_bytes / 1024 ** 2:.1f}MiB",
                 sharded.summary()],
            ],
        ),
    )
    assert sharded.postprocess_fallbacks == 0
    if PARALLEL_HARDWARE:
        assert speedup >= 1.5, (
            f"sharded+parallel {sharded.total_seconds:.3f}s vs monolithic "
            f"{monolithic.total_seconds:.3f}s — only {speedup:.2f}x on "
            f"{NUM_CPUS} CPUs"
        )
    else:
        assert speedup >= 1 / 1.35, (
            f"single-CPU overhead too high: {1 / max(speedup, 1e-12):.2f}x "
            f"slower than monolithic"
        )


def test_sharded_serve_kernel(benchmark):
    """The representative kernel: one sharded, worker-backed batch."""
    gamora = trained_gamora(train_widths=(8,))
    circuits = [bench_multiplier(w) for w in (8, 10, 12, 8)]
    encoder = ReasoningService(gamora)
    budget = max(
        estimate_batch_memory(gamora.inference_kernel(), [encoder.encode(c)])
        for c in circuits
    )

    def run():
        service = ReasoningService(
            gamora, max_window_bytes=budget, postprocess_workers=WORKERS
        )
        return service.reason_many(circuits)

    benchmark.pedantic(run, rounds=3, iterations=1)
