"""Figure 8 — batched reasoning: runtime per design and memory vs batch size.

Reproduces the paper's Fig. 8 through the real batched serving path
(:class:`repro.serve.ReasoningService`): multiple designs are merged into
one block-diagonal graph and inferred in a single pass.  Two series are
reported:

* the classic Fig. 8 sweep — average runtime per design for batch sizes
  1–32 and the (analytic) memory footprint against the paper's 40 GB A100
  budget line: each batch is one ``timed_inference`` over
  ``batch_graphs(chunk)``, split back per design with
  ``unbatch_predictions``;
* an end-to-end serving comparison — a request stream of mixed 8–16-bit
  multipliers (with repeated designs, as under real traffic) pushed through
  ``ReasoningService.reason_many`` versus a sequential ``Gamora.reason``
  loop, with per-stage timings and the structural-hash cache counters.
"""

from __future__ import annotations

import pytest

from common import keep_under_benchmark_only, FULL, bench_multiplier, emit, format_table, trained_gamora
from repro.learn import (
    A100_MEMORY_BYTES,
    batch_graphs,
    compile_inference,
    estimate_inference_memory,
    timed_inference,
    unbatch_predictions,
)
from repro.serve import ReasoningService
from repro.utils.timing import Timer, format_seconds

BATCH_SIZES = (1, 2, 4, 8, 16, 32) if FULL else (1, 2, 4, 8)
DESIGN_WIDTH = 64 if FULL else 32
NUM_DESIGNS = max(BATCH_SIZES)

# The serving comparison: a batch-size-8 request stream over mixed
# 8-16-bit multipliers in which popular designs repeat (3 unique
# structures), the workload the structural-hash dedup/cache targets.
SERVE_STREAM_WIDTHS = (16, 8, 12, 16, 8, 12, 16, 16)


@pytest.fixture(scope="module")
def batch_series():
    gamora = trained_gamora(train_widths=(8,))
    base = gamora.prepare(bench_multiplier(DESIGN_WIDTH), with_labels=False)
    graphs = [base] * NUM_DESIGNS
    kernel = compile_inference(gamora.net)
    rows = []
    for batch_size in BATCH_SIZES:
        # Batch assembly is preprocessing, excluded from the timing as data
        # loading is in the paper.
        total_seconds = 0.0
        for start in range(0, NUM_DESIGNS, batch_size):
            chunk = graphs[start:start + batch_size]
            result = timed_inference(kernel, batch_graphs(chunk))
            split = unbatch_predictions(result.predictions,
                                        [g.num_nodes for g in chunk])
            assert len(split) == len(chunk)
            total_seconds += result.seconds
        per_design = total_seconds / NUM_DESIGNS
        memory = estimate_inference_memory(
            gamora.net,
            base.num_nodes * batch_size,
            base.num_edges * batch_size,
        )
        rows.append(
            {
                "batch": batch_size,
                "per_design": per_design,
                "memory": memory,
            }
        )
    return rows


@pytest.fixture(scope="module")
def serve_comparison():
    gamora = trained_gamora(train_widths=(8,))
    circuits = [bench_multiplier(w) for w in SERVE_STREAM_WIDTHS]

    with Timer() as sequential_timer:
        sequential = [gamora.reason(circuit) for circuit in circuits]

    service = ReasoningService(gamora)
    cold = service.reason_many(circuits)  # fresh caches: within-batch dedup only
    warm = service.reason_many(circuits)  # steady state: result-LRU hits

    # The invariant that makes batching safe: identical trees per circuit.
    for left, right in zip(sequential, cold):
        assert left.tree.num_full_adders == right.tree.num_full_adders
        assert left.tree.num_half_adders == right.tree.num_half_adders

    return {
        "sequential_seconds": sequential_timer.elapsed,
        "cold": cold.stats,
        "warm": warm.stats,
        "cache": service.cache_stats(),
    }


def test_fig8_series(batch_series, benchmark):
    keep_under_benchmark_only(benchmark)
    table = [
        [
            f"bs={r['batch']}",
            format_seconds(r["per_design"]),
            f"{r['memory'] / 1024 ** 3:.3f} GiB",
            f"{100.0 * r['memory'] / A100_MEMORY_BYTES:.2f}%",
        ]
        for r in batch_series
    ]
    emit(
        "fig8_batch",
        format_table(
            f"Fig.8: batched reasoning over {NUM_DESIGNS} x "
            f"{DESIGN_WIDTH}-bit CSA multipliers",
            ["batch size", "runtime/design", "est. memory", "of A100 40GB"],
            table,
        ),
    )


def test_fig8_batching_stays_bounded(batch_series, benchmark):
    """Per-design runtime must stay within a small factor across batches.

    On the paper's A100, batching *shrinks* per-design time (kernel-launch
    amortization).  Our CPU backend has no launch overhead to amortize, so
    the reproducible part of Fig. 8 is the bounded per-design cost and the
    linear memory growth; see EXPERIMENTS.md for this documented deviation.
    """
    keep_under_benchmark_only(benchmark)
    solo = batch_series[0]["per_design"]
    batched = batch_series[-1]["per_design"]
    assert batched <= solo * 5.0, (
        f"batched per-design runtime {batched:.4f}s vs solo {solo:.4f}s"
    )


def test_fig8_memory_scales_linearly(batch_series, benchmark):
    keep_under_benchmark_only(benchmark)
    first, last = batch_series[0], batch_series[-1]
    ratio = last["memory"] / first["memory"]
    expected = last["batch"] / first["batch"]
    assert 0.8 * expected <= ratio <= 1.2 * expected


def test_fig8_memory_under_gpu_budget(batch_series, benchmark):
    """At CPU-bench sizes every batch fits the paper's A100 budget; the
    full sweep shows the same saturation trend the paper reports."""
    keep_under_benchmark_only(benchmark)
    assert batch_series[0]["memory"] < A100_MEMORY_BYTES


def test_fig8_service_speedup(serve_comparison, benchmark):
    """End-to-end serving throughput: batched path >= 2x sequential reason.

    At batch size 8 over mixed 8-16-bit multipliers with repeated designs,
    the service's structural-hash dedup computes each unique structure once
    per batch while the sequential loop re-reasons every request, so the
    batched path must clear 2x; the steady-state (warm result-LRU) pass is
    reported alongside.
    """
    keep_under_benchmark_only(benchmark)
    sequential = serve_comparison["sequential_seconds"]
    cold = serve_comparison["cold"]
    warm = serve_comparison["warm"]
    cold_speedup = sequential / cold.total_seconds
    warm_speedup = sequential / max(warm.total_seconds, 1e-12)
    emit(
        "fig8_service",
        format_table(
            f"Batched serving vs sequential reason "
            f"(stream widths {SERVE_STREAM_WIDTHS})",
            ["path", "total", "speedup", "detail"],
            [
                ["sequential", format_seconds(sequential), "1.00x",
                 f"{len(SERVE_STREAM_WIDTHS)} full reason() calls"],
                ["batched cold", format_seconds(cold.total_seconds),
                 f"{cold_speedup:.2f}x", cold.summary()],
                ["batched warm", format_seconds(warm.total_seconds),
                 f"{warm_speedup:.2f}x", warm.summary()],
            ],
        ),
    )
    assert cold.unique_circuits == len(set(SERVE_STREAM_WIDTHS))
    assert warm.result_hits == len(SERVE_STREAM_WIDTHS)
    assert cold_speedup >= 2.0, (
        f"batched path {cold.total_seconds:.3f}s vs sequential "
        f"{sequential:.3f}s — only {cold_speedup:.2f}x"
    )


def test_fig8_batch_kernel(benchmark):
    gamora = trained_gamora(train_widths=(8,))
    base = gamora.prepare(bench_multiplier(DESIGN_WIDTH), with_labels=False)
    graphs = [base] * 4
    kernel = compile_inference(gamora.net)
    benchmark.pedantic(
        lambda: timed_inference(kernel, batch_graphs(graphs)),
        rounds=3,
        iterations=1,
    )
