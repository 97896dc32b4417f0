"""Windowed minibatch training: peak memory vs the full-batch epoch.

The windowed trainer exists so that training memory follows the byte
budget, not the circuit: each window backpropagates through its K-hop halo
only, and gradient accumulation across windows reproduces the full-batch
gradient.  This benchmark measures *actual* peak allocation (tracemalloc,
which tracks NumPy buffers) of one full-batch training epoch against one
windowed epoch at a ``full/8`` budget on the 128-bit CSA multiplier, and
asserts the tentpole claims:

* accumulated window gradients match the full-batch gradients to float
  tolerance (the plan is a memory knob, not a semantics knob);
* at a ``full/8`` budget, the measured windowed peak is >= 4x below the
  full-batch peak;
* the measured peak actually stays under the byte budget the analytic
  backward-pass model planned against.

Labels are structural (cut-sweep ground truth would dominate the lane);
gradient equivalence and the activation footprint are label-source
independent.  Appends one record per run to ``BENCH_train_streaming.json``.
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
from repro.learn import TrainConfig, train_model
from repro.learn.infer import estimate_training_memory
from repro.learn.trainer import epoch_gradients

WIDTH = 128  # the acceptance-pinned series point
SMOKE_WIDTH = 32
BUDGET_DIV = 8  # training budget = full-batch estimate / BUDGET_DIV


def measure_peak(fn):
    """Run ``fn`` and return ``(result, peak_new_bytes, seconds)``."""
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    start = time.perf_counter()
    result = fn()
    seconds = time.perf_counter() - start
    peak = tracemalloc.get_traced_memory()[1] - base
    tracemalloc.stop()
    return result, peak, seconds


def train_streaming_row(width: int, check_gradients: bool = True) -> dict:
    """Measure one width: full-batch vs windowed training epoch peaks.

    The plan is computed outside the measured region (planning is
    preprocessing, like data loading in the paper's measurements); the
    measured region is exactly one epoch of gradient computation.
    """
    gamora = Gamora(model="shallow")
    data = gamora.prepare(bench_multiplier(width), labels_source="structural")
    model = gamora.net
    full_estimate = estimate_training_memory(
        model, data.num_nodes, data.num_edges
    )
    budget = full_estimate // BUDGET_DIV
    plan = data.window_plan(budget, model, training=True)

    full_grads, full_peak, full_seconds = measure_peak(
        lambda: epoch_gradients(model, data, TrainConfig())
    )
    windowed_grads, windowed_peak, windowed_seconds = measure_peak(
        lambda: epoch_gradients(
            model, data, TrainConfig(max_window_bytes=budget), plan=plan
        )
    )
    if check_gradients:
        for name in full_grads:
            np.testing.assert_allclose(
                windowed_grads[name], full_grads[name],
                rtol=1e-7, atol=1e-12,
                err_msg=f"width {width}: windowed gradients diverged in {name}",
            )
    return {
        "width": width,
        "num_nodes": data.num_nodes,
        "num_edges": data.num_edges,
        "num_windows": plan.num_windows,
        "budget_bytes": int(budget),
        "full_estimate_bytes": int(full_estimate),
        "peak_window_bytes": int(plan.peak_window_bytes),
        "within_budget": plan.within_budget,
        "full_peak_bytes": int(full_peak),
        "windowed_peak_bytes": int(windowed_peak),
        "reduction": full_peak / max(windowed_peak, 1),
        "full_epoch_seconds": full_seconds,
        "windowed_epoch_seconds": windowed_seconds,
        "gradients_match": bool(check_gradients),
    }


@pytest.fixture(scope="module")
def series():
    widths = (WIDTH, 192) if FULL else (WIDTH,)
    return [train_streaming_row(width) for width in widths]


def test_train_streaming_memory(benchmark, series):
    rows = [
        [r["width"], r["num_nodes"], r["num_windows"],
         f"{r['budget_bytes'] / 2**20:.1f}",
         f"{r['full_peak_bytes'] / 2**20:.1f}",
         f"{r['windowed_peak_bytes'] / 2**20:.1f}",
         f"{r['reduction']:.1f}x",
         f"{r['full_epoch_seconds']:.1f}s",
         f"{r['windowed_epoch_seconds']:.1f}s"]
        for r in series
    ]
    emit("train_streaming_memory", format_table(
        f"Windowed vs full-batch training epoch peak "
        f"(budget = full/{BUDGET_DIV})",
        ["width", "nodes", "windows", "budget MiB", "full MiB",
         "windowed MiB", "reduction", "full epoch", "windowed epoch"],
        rows,
    ))
    emit_json("BENCH_train_streaming", {
        "budget_divisor": BUDGET_DIV,
        "series": series,
    })
    for record in series:
        # The analytic backward-pass model honors its budget, the measured
        # epoch stays under it, and the windowed peak delivers the >= 4x
        # claim against full-batch — with bitwise-checked gradient parity.
        assert record["within_budget"], record
        assert record["peak_window_bytes"] <= record["budget_bytes"], record
        assert record["windowed_peak_bytes"] <= record["budget_bytes"], (
            f"width {record['width']}: measured windowed peak "
            f"{record['windowed_peak_bytes']} exceeds budget "
            f"{record['budget_bytes']}"
        )
        assert record["reduction"] >= 4.0, (
            f"width {record['width']}: windowed peak only "
            f"{record['reduction']:.2f}x below full-batch (need >= 4x)"
        )

    gamora = Gamora(model="shallow")
    data = gamora.prepare(bench_multiplier(SMOKE_WIDTH),
                          labels_source="structural")
    budget = estimate_training_memory(
        gamora.net, data.num_nodes, data.num_edges
    ) // BUDGET_DIV
    plan = data.window_plan(budget, gamora.net, training=True)
    benchmark.pedantic(
        lambda: train_model(
            data, None,
            TrainConfig(epochs=1, max_window_bytes=budget, history=False),
            model=gamora.net, plan=plan,
        ),
        rounds=3, iterations=1,
    )


def test_train_streaming_smoke(benchmark):
    """CI-lane guard at 32 bits: budget honored by the *measured* epoch,
    gradients match full-batch, record appended to the trajectory."""
    record = train_streaming_row(SMOKE_WIDTH)
    assert record["within_budget"], record
    assert record["num_windows"] > 1, record
    assert record["windowed_peak_bytes"] <= record["budget_bytes"], record
    assert record["windowed_peak_bytes"] < record["full_peak_bytes"], record
    emit_json("BENCH_train_streaming", {"smoke": True, **record})
    keep_under_benchmark_only(benchmark)
