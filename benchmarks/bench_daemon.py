"""Sustained-load benchmark for the always-on serving daemon.

Four client threads hammer one in-process :class:`GamoraDaemon` with a
mixed request stream drawn from a small structure pool (heavy repetition,
like real traffic).  The daemon's cross-request micro-batching is the
thing under test: arrivals inside one ``batch_window_ms`` coalesce into a
single ``reason_many`` call, where structural-hash dedup collapses
identical circuits across clients and the warm result LRU serves repeats
outright.

Reported: request throughput, mean/worst queue wait, the coalescing
ratio (requests per micro-batch), and how many forward passes the whole
stream actually cost.  Asserted: every response matches the sequential
path, micro-batching genuinely happened (batches < requests), and dedup
kept forward passes strictly below the request count.  The JSON record
lands in ``benchmarks/results/BENCH_daemon.json`` for trajectory plots.

The smoke test (``-k smoke``, run in CI) guards early dispatch over a
real socket: two closed-loop :class:`SocketDaemonClient` threads against
a :class:`DaemonServer` with a 200 ms window must still ride mostly in
batches of 2, with a median queue wait under 50 ms, because the
scheduler dispatches once both open connections have a request queued.
A client thread that stalls past the window once (a GC pass, a busy
runner) sends a batch of 1 without failing the check.
"""

from __future__ import annotations

import statistics
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
from repro.serve import DaemonServer, GamoraDaemon, SocketDaemonClient
from repro.utils.timing import format_seconds

CLIENTS = 4
REQUESTS_PER_CLIENT = 16 if FULL else 6
# Small pool, heavy repetition: the regime micro-batching is built for.
POOL_WIDTHS = (8, 10, 12)
WINDOW_MS = 25.0
SMOKE_WINDOW_MS = 200.0
SMOKE_ROUNDS = 8  # requests per closed-loop connection
SMOKE_MAX_MEDIAN_WAIT_S = 0.05
SMOKE_MIN_REQUESTS_PER_BATCH = 1.75  # at most 4 of 16 requests ride alone


@pytest.fixture(scope="module")
def daemon_run():
    gamora = trained_gamora(train_widths=(8,))
    pool = [bench_multiplier(width).aig for width in POOL_WIDTHS]
    expected = [gamora.reason(aig) for aig in pool]

    stats_by_client: list[list] = [[] for _ in range(CLIENTS)]
    mismatches = []
    barrier = threading.Barrier(CLIENTS)

    with GamoraDaemon(gamora, batch_window_ms=WINDOW_MS,
                      max_batch=64) as daemon:
        def client(client_id: int) -> None:
            barrier.wait()
            for index in range(REQUESTS_PER_CLIENT):
                which = (client_id + index) % len(pool)
                outcome, stats = daemon.submit(pool[which])
                stats_by_client[client_id].append(stats)
                want = expected[which]
                if (outcome.tree.num_full_adders != want.tree.num_full_adders
                        or outcome.num_mismatches != want.num_mismatches):
                    mismatches.append((client_id, index))

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(CLIENTS)]
        from repro.utils.timing import Timer
        with Timer() as wall:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        snapshot = daemon.scheduler.stats()

    return {
        "wall_seconds": wall.elapsed,
        "scheduler": snapshot,
        "per_request": [s for client in stats_by_client for s in client],
        "mismatches": mismatches,
    }


def test_daemon_sustained_load(daemon_run, benchmark):
    """Coalescing + dedup under concurrent clients, answers unchanged."""
    keep_under_benchmark_only(benchmark)
    snapshot = daemon_run["scheduler"]
    per_request = daemon_run["per_request"]
    total = CLIENTS * REQUESTS_PER_CLIENT

    assert daemon_run["mismatches"] == []
    assert snapshot["completed"] == total
    assert snapshot["failed"] == 0 and snapshot["rejected"] == 0
    # Micro-batching happened: strictly fewer batches than requests, and
    # dedup + the warm cache kept forward passes below the request count.
    assert snapshot["batches"] < total
    assert snapshot["num_shards"] < total
    assert snapshot["max_coalesced"] > 1

    waits = [s.queue_wait_seconds for s in per_request]
    throughput = total / max(daemon_run["wall_seconds"], 1e-9)
    coalescing = total / max(snapshot["batches"], 1)
    emit(
        "daemon_serve",
        format_table(
            f"Daemon sustained load ({CLIENTS} clients x "
            f"{REQUESTS_PER_CLIENT} requests, {len(POOL_WIDTHS)} unique "
            f"structures, window {WINDOW_MS:.0f}ms)",
            ["metric", "value"],
            [
                ["wall time", format_seconds(daemon_run["wall_seconds"])],
                ["throughput", f"{throughput:.1f} req/s"],
                ["micro-batches", snapshot["batches"]],
                ["coalescing ratio", f"{coalescing:.2f} req/batch"],
                ["forward passes", snapshot["num_shards"]],
                ["cache hits", snapshot["result_hits"]],
                ["mean queue wait", format_seconds(sum(waits) / len(waits))],
                ["max queue wait", format_seconds(max(waits))],
            ],
        ),
    )
    emit_json(
        "BENCH_daemon",
        {
            "benchmark": "daemon_serve",
            "full": FULL,
            "clients": CLIENTS,
            "requests": total,
            "unique_structures": len(POOL_WIDTHS),
            "window_ms": WINDOW_MS,
            "wall_seconds": daemon_run["wall_seconds"],
            "throughput_rps": throughput,
            "batches": snapshot["batches"],
            "coalescing_ratio": coalescing,
            "forward_passes": snapshot["num_shards"],
            "result_hits": snapshot["result_hits"],
            "mean_queue_wait_seconds": sum(waits) / len(waits),
            "max_queue_wait_seconds": max(waits),
        },
    )


def test_daemon_kernel(benchmark):
    """Representative kernel: one coalesced micro-batch through the daemon."""
    gamora = trained_gamora(train_widths=(8,))
    pool = [bench_multiplier(width).aig for width in POOL_WIDTHS]

    def run():
        with GamoraDaemon(gamora, batch_window_ms=5.0,
                          result_cache_size=0) as daemon:
            tickets = [daemon.submit_async(aig) for aig in pool * 2]
            return [ticket.result(120) for ticket in tickets]

    benchmark.pedantic(run, rounds=3, iterations=1)


def test_daemon_early_dispatch_smoke(benchmark, tmp_path):
    """CI guard: two closed-loop socket clients pair up without waiting
    out a 200 ms window."""
    keep_under_benchmark_only(benchmark)
    gamora = trained_gamora(train_widths=(8,))
    pool = [bench_multiplier(width).aig for width in POOL_WIDTHS]
    records: list[list[dict]] = [[], []]
    barrier = threading.Barrier(2)

    with GamoraDaemon(gamora, batch_window_ms=SMOKE_WINDOW_MS) as daemon, \
            DaemonServer(daemon, tmp_path / "gamora.sock") as server:
        clients = [SocketDaemonClient(server.socket_path) for _ in range(2)]

        def closed_loop(index: int) -> None:
            barrier.wait()
            for round_ in range(SMOKE_ROUNDS):
                response = clients[index].reason(
                    pool[(index + round_) % len(pool)])
                assert response["ok"], response
                records[index].append(response["stats"])

        try:
            # A ping is answered only once the server counts the
            # connection, so both are open before the first request.
            for client in clients:
                assert client.ping()["ok"]
            threads = [threading.Thread(target=closed_loop, args=(i,))
                       for i in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            for client in clients:
                client.close()

    per_request = records[0] + records[1]
    assert len(per_request) == 2 * SMOKE_ROUNDS
    waits = [record["queue_wait_seconds"] for record in per_request]
    sizes = [record["batch_size"] for record in per_request]
    median_wait = statistics.median(waits)
    emit(
        "daemon_early_dispatch_smoke",
        format_table(
            f"Daemon early dispatch (2 closed-loop socket clients x "
            f"{SMOKE_ROUNDS} requests, window {SMOKE_WINDOW_MS:.0f}ms)",
            ["metric", "value"],
            [
                ["median queue wait", format_seconds(median_wait)],
                ["max queue wait", format_seconds(max(waits))],
                ["requests per batch", f"{statistics.mean(sizes):.2f}"],
            ],
        ),
    )
    emit_json("BENCH_daemon", {
        "benchmark": "daemon_early_dispatch", "smoke": True,
        "window_ms": SMOKE_WINDOW_MS, "requests": len(per_request),
        "median_queue_wait_seconds": median_wait,
        "max_queue_wait_seconds": max(waits),
        "requests_per_batch": statistics.mean(sizes),
    })
    assert median_wait < SMOKE_MAX_MEDIAN_WAIT_S, (
        f"median queue wait {median_wait * 1e3:.1f}ms under a "
        f"{SMOKE_WINDOW_MS:.0f}ms window (need < "
        f"{SMOKE_MAX_MEDIAN_WAIT_S * 1e3:.0f}ms)")
    assert statistics.mean(sizes) >= SMOKE_MIN_REQUESTS_PER_BATCH, sizes
