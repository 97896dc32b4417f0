"""Sustained-load benchmark for the serving stack under injected faults.

The same 4-client mixed request stream as ``bench_daemon.py`` runs twice
against an in-process :class:`GamoraDaemon` with the result cache off (so
every request really computes): once clean, once with a
:class:`~repro.serve.resilience.FaultPlan` arming out-of-memory faults
(``memory`` kind, a ``MemoryError``) on the ``infer.forward`` fault
point: the first forward pass plus a 10% sustained rate after that.
Each fault hits an unbudgeted full-graph pass, which the service
re-plans at half its estimate and reruns windowed; that degradation rung
is what keeps requests flowing.

Asserted: the faulted run loses **zero** requests, every answer stays
bit-identical to the sequential path, and end-to-end throughput stays
within 2x of the clean baseline.  Reported: both throughputs, the
slowdown factor, and the recovery counter (degraded shards).  The JSON record lands in
``benchmarks/results/BENCH_resilience.json`` for trajectory plots.
"""

from __future__ import annotations

import threading

import pytest

from common import (
    FULL,
    bench_multiplier,
    emit,
    emit_json,
    format_table,
    keep_under_benchmark_only,
    trained_gamora,
)
from repro.serve import FaultPlan, GamoraDaemon
from repro.serve import resilience
from repro.utils.timing import Timer, format_seconds

CLIENTS = 4
REQUESTS_PER_CLIENT = 16 if FULL else 6
POOL_WIDTHS = (8, 10, 12)
WINDOW_MS = 25.0
OOM_RATE = 0.1

FAULT_PLAN = {
    "seed": 2023,
    "faults": [
        # The very first forward pass runs out of memory, so even the
        # short-mode run provably exercises the windowed re-plan (a pure
        # rate draw could miss at this volume).  Later passes fail at the
        # sustained rate.
        {"point": "infer.forward", "kind": "memory", "at": [1]},
        {"point": "infer.forward", "kind": "memory", "rate": OOM_RATE},
    ],
}


def _run_load(gamora, pool, expected, fault_plan=None) -> dict:
    mismatches = []
    degraded = 0
    barrier = threading.Barrier(CLIENTS)
    lock = threading.Lock()

    with GamoraDaemon(gamora, batch_window_ms=WINDOW_MS, max_batch=64,
                      result_cache_size=0,
                      fault_plan=fault_plan) as daemon:
        def client(client_id: int) -> None:
            nonlocal degraded
            barrier.wait()
            for index in range(REQUESTS_PER_CLIENT):
                which = (client_id + index) % len(pool)
                outcome, stats = daemon.submit(pool[which])
                want = expected[which]
                with lock:
                    degraded += stats.batch_stats["degraded_shards"]
                if (outcome.tree.num_full_adders != want.tree.num_full_adders
                        or outcome.num_mismatches != want.num_mismatches):
                    mismatches.append((client_id, index))

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(CLIENTS)]
        with Timer() as wall:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        snapshot = daemon.scheduler.stats()
    resilience.install_plan(None)  # never leak the plan past this run
    return {
        "wall_seconds": wall.elapsed,
        "scheduler": snapshot,
        "mismatches": mismatches,
        "degraded_observations": degraded,
    }


@pytest.fixture(scope="module")
def resilience_run():
    gamora = trained_gamora(train_widths=(8,))
    pool = [bench_multiplier(width).aig for width in POOL_WIDTHS]
    expected = [gamora.reason(aig) for aig in pool]
    clean = _run_load(gamora, pool, expected)
    faulted = _run_load(gamora, pool, expected,
                        fault_plan=FaultPlan.from_dict(FAULT_PLAN))
    return {"clean": clean, "faulted": faulted}


def test_throughput_under_forward_pass_oom(resilience_run, benchmark):
    """A 10% forward-pass OOM rate costs latency, never requests or answers."""
    keep_under_benchmark_only(benchmark)
    clean = resilience_run["clean"]
    faulted = resilience_run["faulted"]
    total = CLIENTS * REQUESTS_PER_CLIENT

    # Zero lost requests, bit-identical answers, no typed failures: the
    # OOMs were absorbed by re-planning each failed pass windowed.
    for run in (clean, faulted):
        assert run["mismatches"] == []
        assert run["scheduler"]["completed"] == total
        assert run["scheduler"]["failed"] == 0
        assert run["scheduler"]["rejected"] == 0
    # The guaranteed first-pass OOM means recovery provably ran.
    assert faulted["degraded_observations"] >= 1

    clean_rps = total / max(clean["wall_seconds"], 1e-9)
    faulted_rps = total / max(faulted["wall_seconds"], 1e-9)
    slowdown = clean_rps / max(faulted_rps, 1e-9)
    assert slowdown <= 2.0, (
        f"faulted throughput {faulted_rps:.1f} req/s is more than 2x below "
        f"the clean baseline {clean_rps:.1f} req/s"
    )

    emit(
        "resilience_serve",
        format_table(
            f"Daemon under {OOM_RATE:.0%} forward-pass OOM rate "
            f"({CLIENTS} clients x {REQUESTS_PER_CLIENT} requests, "
            f"window {WINDOW_MS:.0f}ms)",
            ["metric", "clean", "faulted"],
            [
                ["wall time", format_seconds(clean["wall_seconds"]),
                 format_seconds(faulted["wall_seconds"])],
                ["throughput", f"{clean_rps:.1f} req/s",
                 f"{faulted_rps:.1f} req/s"],
                ["slowdown", "1.00x", f"{slowdown:.2f}x"],
                ["completed", clean["scheduler"]["completed"],
                 faulted["scheduler"]["completed"]],
                ["failed", clean["scheduler"]["failed"],
                 faulted["scheduler"]["failed"]],
                ["degraded observations",
                 clean["degraded_observations"],
                 faulted["degraded_observations"]],
            ],
        ),
    )
    emit_json(
        "BENCH_resilience",
        {
            "benchmark": "resilience_serve",
            "full": FULL,
            "clients": CLIENTS,
            "requests": total,
            "oom_rate": OOM_RATE,
            "window_ms": WINDOW_MS,
            "clean_wall_seconds": clean["wall_seconds"],
            "faulted_wall_seconds": faulted["wall_seconds"],
            "clean_throughput_rps": clean_rps,
            "faulted_throughput_rps": faulted_rps,
            "slowdown": slowdown,
            "clean_completed": clean["scheduler"]["completed"],
            "faulted_completed": faulted["scheduler"]["completed"],
            "faulted_failed": faulted["scheduler"]["failed"],
            "degraded_observations": faulted["degraded_observations"],
        },
    )
