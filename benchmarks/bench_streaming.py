"""Streaming level-windowed inference: peak memory vs the full-graph pass.

The streamed forward pass exists so that circuits larger than any shard
budget still run: each level window materializes only its targets plus the
K-hop fan-in halo.  This benchmark measures *actual* peak allocation
(tracemalloc, which tracks NumPy buffers) of the full-graph pass against
the streamed pass at a matching window budget on wide multipliers, and
asserts the tentpole claims:

* the streamed pass is bit-identical to the full-graph pass (labels and
  logits agree exactly — not approximately);
* at a ``full/8`` window budget, measured peak memory on the 256-bit
  multiplier drops by >= 4x;
* the planner's analytic per-window estimate actually bounds what runs
  (``peak_window_bytes <= budget``);
* the one-sweep window planner returns exactly the plan of the bisection
  planner it replaced (``tests.oracles.window_plan_bisect``), and on the
  ``c`` kernel backend plans >= 5x faster than it.

Weights are untrained: activation *footprint* is weight-independent, and
bit-identity must hold for any weights, so training would only slow the
lane down.  Appends one record per run to ``BENCH_streaming.json``.
"""

from __future__ import annotations

import time
import tracemalloc

import numpy as np
import pytest

from common import (
    FULL,
    bench_multiplier,
    emit,
    emit_json,
    format_table,
    keep_under_benchmark_only,
)
from repro.core import Gamora
from repro.kernels import active_backend
from repro.learn import estimate_inference_memory
from tests.oracles import window_plan_bisect

WIDTHS = (256, 512) if FULL else (256,)
SMOKE_WIDTH = 64
BUDGET_DIV = 8  # window budget = full-graph estimate / BUDGET_DIV
PLAN_REPEATS = 3
C_PLAN_MIN_SPEEDUP = 5.0  # CI smoke bar: one-sweep planner vs bisection


def measure_peak(fn):
    """Run ``fn`` and return ``(result, peak_new_bytes)`` via tracemalloc."""
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    result = fn()
    peak = tracemalloc.get_traced_memory()[1] - base
    tracemalloc.stop()
    return result, peak


def best_ms(fn):
    """``(result, best-of-PLAN_REPEATS wall clock in ms)`` of ``fn()``."""
    best, result = float("inf"), None
    for _ in range(PLAN_REPEATS):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return result, best * 1e3


def plan_timings(gamora: Gamora, width: int) -> dict:
    """Time the window planner against the bisection oracle at full/8;
    the two plans must be identical."""
    kernel = gamora.inference_kernel()
    data = gamora.prepare(bench_multiplier(width), with_labels=False)
    budget = estimate_inference_memory(
        kernel, data.num_nodes, data.num_edges) // BUDGET_DIV
    plan, plan_ms = best_ms(lambda: data.window_plan(budget, kernel))
    oracle, oracle_ms = best_ms(
        lambda: window_plan_bisect(data, budget, kernel))
    assert plan.num_windows == oracle.num_windows
    for got, want in zip(plan.windows, oracle.windows):
        np.testing.assert_array_equal(got.targets, want.targets)
        assert (got.block_sizes, got.block_edges, got.estimated_bytes) == \
            (want.block_sizes, want.block_edges, want.estimated_bytes)
    return {"kernel_backend": active_backend(), "plan_ms": plan_ms,
            "oracle_plan_ms": oracle_ms}


def streaming_row(gamora: Gamora, width: int) -> dict:
    """Measure one width: full vs streamed peak at a matching budget."""
    kernel = gamora.inference_kernel()
    data = gamora.prepare(bench_multiplier(width), with_labels=False)
    full_estimate = estimate_inference_memory(
        kernel, data.num_nodes, data.num_edges
    )
    budget = full_estimate // BUDGET_DIV
    plan = data.window_plan(budget, kernel)

    full_labels, full_peak = measure_peak(
        lambda: kernel.predict(data.features, data.adjacency)
    )
    streamed_labels, streamed_peak = measure_peak(
        lambda: kernel.predict_streamed(data.features, data.adjacency, plan)
    )
    for task in full_labels:
        np.testing.assert_array_equal(
            full_labels[task], streamed_labels[task],
            err_msg=f"width {width}: streamed labels diverged on {task!r}",
        )
    return {
        "width": width,
        "num_nodes": data.num_nodes,
        "num_windows": plan.num_windows,
        "budget_bytes": int(budget),
        "peak_window_bytes": int(plan.peak_window_bytes),
        "within_budget": plan.within_budget,
        "full_peak_bytes": int(full_peak),
        "streamed_peak_bytes": int(streamed_peak),
        "reduction": full_peak / max(streamed_peak, 1),
    }


@pytest.fixture(scope="module")
def gamora() -> Gamora:
    return Gamora(model="shallow")


@pytest.fixture(scope="module")
def series(gamora):
    return [streaming_row(gamora, width) for width in WIDTHS]


def test_streaming_memory_series(benchmark, series, gamora):
    rows = [
        [r["width"], r["num_nodes"], r["num_windows"],
         f"{r['budget_bytes'] / 2**20:.1f}",
         f"{r['full_peak_bytes'] / 2**20:.1f}",
         f"{r['streamed_peak_bytes'] / 2**20:.1f}",
         f"{r['reduction']:.1f}x"]
        for r in series
    ]
    emit("streaming_memory", format_table(
        f"Streaming vs full-graph peak memory (budget = full/{BUDGET_DIV})",
        ["width", "nodes", "windows", "budget MiB", "full MiB",
         "streamed MiB", "reduction"],
        rows,
    ))
    emit_json("BENCH_streaming", {
        "budget_divisor": BUDGET_DIV,
        "series": series,
    })
    for record in series:
        # The analytic plan honors its budget, and the measured pass
        # delivers the paper-level memory claim on the 256-bit multiplier.
        assert record["within_budget"], record
        assert record["peak_window_bytes"] <= record["budget_bytes"], record
        assert record["reduction"] >= 4.0, (
            f"width {record['width']}: streamed peak only "
            f"{record['reduction']:.2f}x below full-graph (need >= 4x)"
        )

    data = gamora.prepare(bench_multiplier(WIDTHS[0]), with_labels=False)
    kernel = gamora.inference_kernel()
    plan = data.window_plan(
        estimate_inference_memory(kernel, data.num_nodes, data.num_edges)
        // BUDGET_DIV,
        kernel,
    )
    benchmark.pedantic(
        lambda: kernel.predict_streamed(data.features, data.adjacency, plan),
        rounds=3, iterations=1,
    )


def test_streaming_smoke(benchmark, gamora):
    """CI-lane guard at 64 bits: budget honored, bits identical, planner
    equal to (and on c >= 5x faster than) the bisection oracle, record
    appended to the BENCH_streaming.json trajectory."""
    record = streaming_row(gamora, SMOKE_WIDTH)
    assert record["within_budget"], record
    assert record["num_windows"] > 1, record
    assert record["streamed_peak_bytes"] < record["full_peak_bytes"], record
    record.update(plan_timings(gamora, SMOKE_WIDTH))
    emit_json("BENCH_streaming", {"smoke": True, **record})
    if record["kernel_backend"] == "c":
        speedup = record["oracle_plan_ms"] / record["plan_ms"]
        assert speedup >= C_PLAN_MIN_SPEEDUP, (
            f"window_plan only {speedup:.1f}x faster than bisection "
            f"(need >= {C_PLAN_MIN_SPEEDUP}x)"
        )
    keep_under_benchmark_only(benchmark)
