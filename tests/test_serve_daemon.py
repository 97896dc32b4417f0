"""Concurrency and daemon-lifecycle tests for the serving layer.

Two invariant families the always-on daemon depends on:

* **Thread safety** — the structural-hash LRU and the service's lazy
  model fingerprint survive multi-threaded hammering with consistent
  counters and exactly-once builds; concurrent ``reason_many`` calls
  from many threads stay bit-identical to the sequential path.
* **Daemon lifecycle** — concurrent requests coalesce into shared
  micro-batches (fewer forward passes than requests), admission control
  fast-fails with a retriable error, a failing batch fails only its own
  requests, and the warm caches survive a daemon restart through the
  persistent spill.
"""

import contextlib
import json
import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.aig.aiger import dumps_aag
from repro.core import Gamora
from repro.generators import booth_multiplier, csa_multiplier
from repro.learn import TrainConfig
from repro.serve import (
    DaemonClient,
    DaemonServer,
    GamoraDaemon,
    QueueFullError,
    ReasoningService,
    SchedulerClosedError,
    SocketDaemonClient,
    StructuralHashCache,
)

from tests.test_serve_batching import assert_outcome_equal

MISSING = object()  # a message without the key at all


@pytest.fixture(scope="module")
def gamora():
    model = Gamora(model="shallow", train_config=TrainConfig(epochs=60))
    model.fit([csa_multiplier(6)])
    return model


@pytest.fixture(scope="module")
def circuits():
    return [csa_multiplier(4).aig, csa_multiplier(5).aig,
            booth_multiplier(4).aig]


@pytest.fixture(scope="module")
def sequential(gamora, circuits):
    return [gamora.reason(aig) for aig in circuits]


def run_threads(count, target):
    threads = [threading.Thread(target=target, args=(i,))
               for i in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


@contextlib.contextmanager
def serve_subprocess(model_path, socket_path, *flags):
    """A real ``python -m repro serve`` process, yielded once its socket
    is bound (stdout and stderr merged into one text pipe); killed on the
    way out if the test did not shut it down."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", str(model_path),
         "--socket", str(socket_path), *map(str, flags)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    try:
        deadline = time.monotonic() + 60
        while not socket_path.exists() and time.monotonic() < deadline:
            assert process.poll() is None, process.stdout.read()
            time.sleep(0.05)
        assert socket_path.exists(), "daemon never bound its socket"
        yield process
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
        process.stdout.close()


def shut_down(process) -> str:
    """Wait for a daemon that was sent ``shutdown``; returns its output."""
    out, _ = process.communicate(timeout=120)
    assert process.returncode == 0, out
    return out


class TestCacheThreadSafety:
    def test_hammer_mixed_operations(self):
        cache = StructuralHashCache(capacity=8)
        errors = []

        def worker(seed):
            rng = np.random.default_rng(seed)
            try:
                for _ in range(300):
                    key = f"k{rng.integers(0, 16)}"
                    op = rng.integers(0, 3)
                    if op == 0:
                        cache.put(key, "fp", {"payload": key})
                    elif op == 1:
                        value = cache.get(key, "fp")
                        if value is not None:
                            assert value["payload"] == key
                    else:
                        value = cache.get_or_build(
                            key, "fp", lambda k=key: {"payload": k}
                        )
                        assert value["payload"] == key
                    assert len(cache) <= cache.capacity
            except Exception as error:  # surfaced after join
                errors.append(error)

        run_threads(8, worker)
        assert not errors
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] > 0
        assert len(cache) <= cache.capacity

    def test_get_or_build_builds_exactly_once_per_key(self):
        cache = StructuralHashCache(capacity=64)
        built = []  # list.append is atomic under the GIL
        barrier = threading.Barrier(8)

        def worker(_):
            barrier.wait()
            for index in range(16):
                key = f"k{index}"

                def build(k=key):
                    built.append(k)
                    return {"payload": k}

                value = cache.get_or_build(key, "fp", build)
                assert value["payload"] == key

        run_threads(8, worker)
        # Capacity exceeds the key count, so every key builds exactly
        # once: the loser of a race must be served the winner's entry.
        assert sorted(built) == sorted(f"k{i}" for i in range(16))

    def test_model_fingerprint_concurrent_init(self, gamora):
        service = ReasoningService(gamora)
        results = [None] * 8
        barrier = threading.Barrier(8)

        def worker(index):
            barrier.wait()
            results[index] = service._model_fingerprint()

        run_threads(8, worker)
        assert len(set(results)) == 1
        assert results[0] == service._model_fingerprint()


class TestConcurrentReasonMany:
    def test_threads_match_sequential(self, gamora, circuits, sequential):
        service = ReasoningService(gamora)
        batches = [None] * 6
        barrier = threading.Barrier(6)

        def worker(index):
            barrier.wait()
            batches[index] = service.reason_many(circuits)

        run_threads(6, worker)
        for batch in batches:
            assert len(batch) == len(circuits)
            for outcome, expected in zip(batch, sequential):
                assert_outcome_equal(outcome, expected)


class TestDaemonCoalescing:
    def test_concurrent_requests_share_batches(self, gamora, circuits,
                                               sequential, tmp_path):
        run_dir = tmp_path / "runs"
        with GamoraDaemon(gamora, batch_window_ms=250,
                          run_dir=run_dir) as daemon:
            client = DaemonClient(daemon)
            assert client.ping()["ok"]
            responses = [None] * 8
            barrier = threading.Barrier(8)

            def worker(index):
                barrier.wait()
                responses[index] = client.reason(
                    circuits[index % 2], request_id=f"req-{index}"
                )

            run_threads(8, worker)
            assert all(response["ok"] for response in responses)
            # Coalescing: dedup collapses 8 requests over 2 structures
            # into strictly fewer forward passes than requests.
            stats = daemon.scheduler.stats()
            assert stats["completed"] == 8
            assert stats["max_coalesced"] > 1
            assert stats["num_shards"] < 8
            assert stats["batches"] < 8
            # Bit-identity through the whole protocol path.
            for index, response in enumerate(responses):
                expected = sequential[index % 2]
                result = response["result"]
                assert result["num_full_adders"] == expected.tree.num_full_adders
                assert result["num_half_adders"] == expected.tree.num_half_adders
                assert result["num_mismatches"] == expected.num_mismatches
                assert result["report"] is not None
            # Every request got its run-dir stats file.
            for index in range(8):
                record = json.loads(
                    (run_dir / f"req-{index}" / "stats.json").read_text()
                )
                assert record["request_id"] == f"req-{index}"
                assert record["queue_wait_seconds"] >= 0
                assert record["batch_stats"]["batch_size"] >= 1
                assert (record["result_hit"]
                        == (record["shard_index"] is None))

    def test_submit_matches_sequential(self, gamora, circuits, sequential):
        with GamoraDaemon(gamora, batch_window_ms=1) as daemon:
            for aig, expected in zip(circuits, sequential):
                outcome, stats = daemon.submit(aig)
                assert_outcome_equal(outcome, expected)
                assert stats.batch_id >= 1
            # Same circuit again: served from the warm result cache.
            outcome, stats = daemon.submit(circuits[0])
            assert stats.result_hit and stats.shard_index is None
            assert_outcome_equal(outcome, sequential[0])

    def test_reason_response_reports_parse_seconds(self, gamora, circuits,
                                                   monkeypatch):
        """The daemon times the netlist parse as its own stage."""
        import repro.serve.daemon as daemon_module

        parse = daemon_module.loads_aag

        def slow_parse(text, name):
            time.sleep(0.05)
            return parse(text, name=name)

        monkeypatch.setattr(daemon_module, "loads_aag", slow_parse)
        with GamoraDaemon(gamora, batch_window_ms=1) as daemon:
            response = DaemonClient(daemon).reason(circuits[0],
                                                   request_id="timed")
        assert response["ok"], response
        stats = response["stats"]
        assert 0.05 <= stats["parse_seconds"] < 60
        assert stats["total_seconds"] >= 0

    def test_mixed_options_split_into_groups(self, gamora, circuits):
        with GamoraDaemon(gamora, batch_window_ms=300) as daemon:
            tickets = [
                daemon.submit_async(circuits[0], correct_lsb=True),
                daemon.submit_async(circuits[0], correct_lsb=False),
            ]
            stats = [ticket.stats(timeout=120) for ticket in tickets]
            # One micro-batch, two option groups, each run separately.
            assert stats[0].batch_id == stats[1].batch_id
            assert stats[0].batch_size == 2
            assert {s.group_size for s in stats} == {1}

    def test_ignored_option_does_not_split_group(self, gamora, circuits):
        """Without LSB correction ``lsb_outputs`` is ignored, so requests
        differing only there share one reason_many call: one forward pass
        for both circuits."""
        with GamoraDaemon(gamora, batch_window_ms=300) as daemon:
            tickets = [
                daemon.submit_async(circuits[0], correct_lsb=False,
                                    lsb_outputs=4),
                daemon.submit_async(circuits[1], correct_lsb=False,
                                    lsb_outputs=2),
            ]
            stats = [ticket.stats(timeout=120) for ticket in tickets]
            assert stats[0].batch_id == stats[1].batch_id
            assert {s.group_size for s in stats} == {2}
            assert daemon.scheduler.stats()["num_shards"] == 1


class TestBackpressure:
    def test_queue_full_fast_fails_retriable(self, gamora, circuits):
        daemon = GamoraDaemon(gamora, batch_window_ms=2000,
                              max_queue_depth=2)
        daemon.start()
        try:
            admitted = [daemon.submit_async(circuits[0]),
                        daemon.submit_async(circuits[1])]
            with pytest.raises(QueueFullError) as info:
                daemon.submit_async(circuits[2])
            assert info.value.retriable
            assert daemon.scheduler.stats()["rejected"] == 1
        finally:
            daemon.close()
        # Graceful close drained the admitted work.
        for ticket in admitted:
            assert ticket.result(0) is not None

    def test_queue_full_over_the_protocol(self, gamora, circuits):
        daemon = GamoraDaemon(gamora, batch_window_ms=2000,
                              max_queue_depth=1)
        daemon.start()
        try:
            client = DaemonClient(daemon)
            daemon.submit_async(circuits[0])  # occupy the only slot
            response = client.reason(circuits[1])
            assert not response["ok"]
            assert response["error"]["type"] == "queue_full"
            assert response["error"]["retriable"] is True
        finally:
            daemon.close()

    def test_submit_after_close_raises(self, gamora, circuits):
        daemon = GamoraDaemon(gamora, batch_window_ms=1)
        daemon.start()
        daemon.close()
        with pytest.raises(SchedulerClosedError):
            daemon.submit_async(circuits[0])

    def test_stop_without_drain_fails_tickets(self, gamora, circuits):
        daemon = GamoraDaemon(gamora, batch_window_ms=5000)
        daemon.start()
        ticket = daemon.submit_async(circuits[0])
        daemon.scheduler.stop(drain=False)
        with pytest.raises(SchedulerClosedError):
            ticket.result(timeout=10)
        daemon.close()


class TestDaemonFaultRecovery:
    def test_service_error_fails_only_that_batch(self, gamora, circuits,
                                                 sequential, monkeypatch):
        with GamoraDaemon(gamora, batch_window_ms=1) as daemon:
            def boom(*args, **kwargs):
                raise RuntimeError("injected service failure")

            monkeypatch.setattr(daemon.service, "reason_many", boom)
            ticket = daemon.submit_async(circuits[0])
            with pytest.raises(RuntimeError, match="injected"):
                ticket.result(timeout=120)
            monkeypatch.undo()
            # The scheduler thread survived: the next request succeeds.
            outcome, _ = daemon.submit(circuits[0])
            assert_outcome_equal(outcome, sequential[0])
            assert daemon.scheduler.stats()["failed"] == 1


class TestCachePersistenceAcrossRestart:
    def test_warm_restart_serves_hits(self, gamora, circuits, sequential,
                                      tmp_path):
        cache_dir = tmp_path / "cache"
        with GamoraDaemon(gamora, batch_window_ms=1,
                          cache_dir=cache_dir) as first:
            for aig in circuits:
                first.submit(aig)
        assert first.saved_results == len(circuits)
        assert first.saved_graphs == len(circuits)
        assert first.spill_error is None

        with GamoraDaemon(gamora, batch_window_ms=1,
                          cache_dir=cache_dir) as second:
            assert second.loaded_results == len(circuits)
            assert second.loaded_graphs == len(circuits)
            for aig, expected in zip(circuits, sequential):
                outcome, stats = second.submit(aig)
                assert stats.result_hit
                assert_outcome_equal(outcome, expected)
            assert second.scheduler.stats()["num_shards"] == 0
        # Nothing new was computed, so nothing new spills.
        assert second.saved_results == 0

    def test_spilled_reports_survive(self, gamora, circuits, tmp_path):
        cache_dir = tmp_path / "cache"
        with GamoraDaemon(gamora, batch_window_ms=1,
                          cache_dir=cache_dir) as first:
            report = first.submit(circuits[0])[0].report
        assert report is not None
        with GamoraDaemon(gamora, batch_window_ms=1,
                          cache_dir=cache_dir) as second:
            outcome, stats = second.submit(circuits[0])
            assert stats.result_hit
            assert outcome.report == report


class TestSocketProtocol:
    def test_concurrent_clients_round_trip(self, gamora, circuits,
                                           sequential, tmp_path):
        socket_path = tmp_path / "gamora.sock"
        daemon = GamoraDaemon(gamora, batch_window_ms=200).start()
        server = DaemonServer(daemon, socket_path).start()
        # Any JSON id comes back verbatim: an int stays an int, a list a
        # list (the scheduler's run-dir/AIG names use the string form).
        ids = ["sock-0", 1, "sock-2", [3, "sock"], "sock-4", "sock-5"]
        try:
            responses = [None] * 6
            barrier = threading.Barrier(6)

            def worker(index):
                barrier.wait()
                with SocketDaemonClient(socket_path, timeout=300) as client:
                    responses[index] = client.reason(
                        circuits[index % 2], request_id=ids[index]
                    )

            run_threads(6, worker)
            assert all(response["ok"] for response in responses)
            for index, response in enumerate(responses):
                expected = sequential[index % 2]
                assert response["id"] == ids[index]
                assert (response["result"]["num_full_adders"]
                        == expected.tree.num_full_adders)
            with SocketDaemonClient(socket_path) as client:
                assert client.ping()["ok"]
                stats = client.stats()
                assert stats["ok"]
                assert stats["stats"]["scheduler"]["completed"] == 6
                assert stats["stats"]["scheduler"]["num_shards"] < 6
        finally:
            server.close()
            daemon.close()
        assert not socket_path.exists()

    def test_bad_requests_get_clean_errors(self, gamora, tmp_path):
        socket_path = tmp_path / "gamora.sock"
        daemon = GamoraDaemon(gamora, batch_window_ms=1).start()
        server = DaemonServer(daemon, socket_path).start()
        try:
            with SocketDaemonClient(socket_path) as client:
                for message, fragment in [
                    ({"op": "reason"}, "netlist"),
                    ({"op": "reason", "netlist": "garbage"}, "unparsable"),
                    ({"op": "warp"}, "unknown op"),
                    ({"op": "reason", "netlist": "aag 0 0 0 0 0",
                      "options": {"warp": 9}}, "unknown options"),
                    # One post-processing engine: no longer an option.
                    ({"op": "reason", "netlist": "aag 0 0 0 0 0",
                      "options": {"engine": "fast"}}, "unknown options"),
                    # Values are checked, not coerced.
                    ({"op": "reason", "netlist": "aag 0 0 0 0 0",
                      "options": {"correct_lsb": "no"}}, "correct_lsb"),
                    ({"op": "reason", "netlist": "aag 0 0 0 0 0",
                      "options": {"root_filter": 1}}, "root_filter"),
                    ({"op": "reason", "netlist": "aag 0 0 0 0 0",
                      "options": {"lsb_outputs": -3}}, "lsb_outputs"),
                    ({"op": "reason", "netlist": "aag 0 0 0 0 0",
                      "options": {"lsb_outputs": "abc"}}, "lsb_outputs"),
                    ({"op": "reason", "netlist": "aag 0 0 0 0 0",
                      "options": {"lsb_outputs": True}}, "lsb_outputs"),
                ]:
                    response = client.request(message)
                    assert not response["ok"]
                    assert response["error"]["type"] == "bad_request"
                    assert fragment in response["error"]["message"]
                    assert response["error"]["retriable"] is False
                # Rejected before the queue: nothing was ever scheduled.
                assert daemon.scheduler.stats()["accepted"] == 0
                # Malformed JSON doesn't kill the connection.
                client._sock.sendall(b"{not json}\n")
                line = client._reader.readline()
                assert not json.loads(line)["ok"]
                assert client.ping()["ok"]
        finally:
            server.close()
            daemon.close()

    @pytest.mark.parametrize("options, accepted", [
        (MISSING, True), (None, True), ({}, True),
        ([], False), (0, False), ("", False), (False, False),
        ([1], False), ("x", False),
    ])
    def test_only_missing_or_null_options_mean_none(self, gamora, circuits,
                                                    options, accepted):
        """A falsy non-object is rejected like any other non-object."""
        message = {"op": "reason", "id": "opts",
                   "netlist": dumps_aag(circuits[0])}
        if options is not MISSING:
            message["options"] = options
        with GamoraDaemon(gamora, batch_window_ms=1) as daemon:
            response = daemon.handle(message)
            queued = daemon.scheduler.stats()["accepted"]
        if accepted:
            assert response["ok"], response
            assert queued == 1
        else:
            assert not response["ok"]
            assert response["error"]["type"] == "bad_request"
            assert response["error"]["retriable"] is False
            assert "'options' must be an object" in \
                response["error"]["message"]
            assert queued == 0

    def test_invalid_utf8_line_is_bad_request(self, gamora, tmp_path,
                                              monkeypatch):
        """A non-UTF-8 line gets a clean error; the connection lives on."""
        thread_errors = []
        monkeypatch.setattr(threading, "excepthook", thread_errors.append)
        socket_path = tmp_path / "gamora.sock"
        daemon = GamoraDaemon(gamora, batch_window_ms=1).start()
        server = DaemonServer(daemon, socket_path).start()
        try:
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
                sock.settimeout(30)
                sock.connect(str(socket_path))
                sock.sendall(b'{"op":"ping","id":"\xff"}\n'
                             b'{"op":"ping","id":2}\n')
                with sock.makefile("rb") as reader:
                    rejected = json.loads(reader.readline())
                    pong = json.loads(reader.readline())
        finally:
            server.close()
            daemon.close()
        assert rejected["ok"] is False
        assert rejected["error"]["type"] == "bad_request"
        assert rejected["error"]["retriable"] is False
        assert "invalid UTF-8" in rejected["error"]["message"]
        assert pong["ok"] and pong["pong"] and pong["id"] == 2
        assert thread_errors == []

    def test_idle_server_closes_promptly(self, gamora, tmp_path):
        """close() must wake the accept thread without a client connecting."""
        socket_path = tmp_path / "gamora.sock"
        daemon = GamoraDaemon(gamora, batch_window_ms=1).start()
        server = DaemonServer(daemon, socket_path).start()
        try:
            time.sleep(0.1)  # let the accept thread block in accept()
            started = time.monotonic()
            server.close()
            assert time.monotonic() - started < 1.0
            assert not socket_path.exists()
        finally:
            daemon.close()

    def test_shutdown_op_releases_serve_forever(self, gamora, circuits,
                                                tmp_path):
        socket_path = tmp_path / "gamora.sock"
        daemon = GamoraDaemon(gamora, batch_window_ms=1).start()
        server = DaemonServer(daemon, socket_path)
        done = threading.Event()

        def serve():
            server.serve_forever()
            done.set()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        deadline = time.monotonic() + 30
        while not socket_path.exists() and time.monotonic() < deadline:
            time.sleep(0.02)
        with SocketDaemonClient(socket_path) as client:
            assert client.reason(circuits[0])["ok"]
            final = client.shutdown()
            assert final["ok"]
            assert final["stats"]["scheduler"]["completed"] == 1
        assert done.wait(timeout=30)
        thread.join(timeout=30)
        server.close()
        daemon.close()


class TestServeCli:
    @pytest.mark.slow
    def test_serve_boot_reason_shutdown(self, gamora, circuits, tmp_path,
                                        capsys):
        from repro.cli import main

        model_path = tmp_path / "model.npz"
        gamora.save(model_path)
        socket_path = tmp_path / "gamora.sock"
        cache_dir = tmp_path / "cache"
        run_dir = tmp_path / "runs"
        exit_code = []

        def serve():
            exit_code.append(main([
                "serve", str(model_path), "--socket", str(socket_path),
                "--batch-window-ms", "20", "--cache-dir", str(cache_dir),
                "--run-dir", str(run_dir),
            ]))

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        deadline = time.monotonic() + 60
        while not socket_path.exists() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert socket_path.exists(), "daemon never bound its socket"
        with SocketDaemonClient(socket_path, timeout=300) as client:
            response = client.reason(circuits[0], request_id="cli-0")
            assert response["ok"]
            client.shutdown()
        thread.join(timeout=120)
        assert not thread.is_alive()
        assert exit_code == [0]
        out = capsys.readouterr().out
        assert "served 1 requests" in out
        assert "spilled" in out
        assert (run_dir / "cli-0" / "stats.json").is_file()
        assert (cache_dir / "MODEL.tag").is_file()

    @pytest.mark.slow
    def test_serve_subprocess_streams_oversize_circuit(self, gamora,
                                                       tmp_path):
        """A circuit larger than the memory budget is admitted by a real
        ``python -m repro serve`` process and streamed under that budget,
        with the same answer as sequential ``reason``."""
        model_path = tmp_path / "model.npz"
        gamora.save(model_path)
        socket_path = tmp_path / "gamora.sock"
        run_dir = tmp_path / "runs"
        aig = csa_multiplier(12).aig
        with serve_subprocess(model_path, socket_path,
                              "--max-window-bytes", 100000,
                              "--run-dir", run_dir) as process:
            with SocketDaemonClient(socket_path, timeout=300) as client:
                response = client.reason(aig, request_id="stream-0")
                client.shutdown()
            shut_down(process)
        assert response["ok"], response  # admitted despite the budget
        stats = response["stats"]
        assert stats["streamed"] is True, stats
        batch = stats["batch_stats"]
        assert batch["streamed_graphs"] == 1, batch
        assert batch["num_windows"] > 1, batch
        assert 0 < batch["peak_window_bytes"] <= 100000, batch
        record = json.loads(
            (run_dir / "stream-0" / "stats.json").read_text())
        assert record["streamed"] is True, record
        assert record["batch_stats"]["peak_window_bytes"] <= 100000, record
        sequential = Gamora.load(model_path).reason(aig)
        result = response["result"]
        assert result["num_full_adders"] == sequential.tree.num_full_adders
        assert result["num_half_adders"] == sequential.tree.num_half_adders
        assert result["num_mismatches"] == sequential.num_mismatches

    @pytest.mark.slow
    def test_serve_subprocess_coalesces_spills_and_restarts_warm(
            self, gamora, tmp_path):
        """A real daemon process coalesces concurrent socket clients,
        writes one run-dir record per request, spills its caches on
        shutdown, and a restarted daemon serves from them."""
        model_path = tmp_path / "model.npz"
        gamora.save(model_path)
        cache_dir = tmp_path / "cache"
        run_dir = tmp_path / "runs"
        socket_path = tmp_path / "gamora.sock"
        circuits = [csa_multiplier(4).aig, csa_multiplier(5).aig]
        with serve_subprocess(model_path, socket_path,
                              "--batch-window-ms", 50,
                              "--cache-dir", cache_dir,
                              "--run-dir", run_dir) as process:
            responses = [None] * 6
            barrier = threading.Barrier(6)

            def fire(index):
                barrier.wait()
                with SocketDaemonClient(socket_path, timeout=300) as client:
                    responses[index] = client.reason(
                        circuits[index % 2], request_id=f"ci-{index}")

            run_threads(6, fire)
            assert all(r["ok"] for r in responses), responses
            with SocketDaemonClient(socket_path) as client:
                scheduler = client.stats()["stats"]["scheduler"]
                assert scheduler["completed"] == 6
                # Coalescing + dedup: 6 requests over 2 structures cost
                # strictly fewer forward passes and micro-batches.
                assert scheduler["num_shards"] < 6, scheduler
                assert scheduler["batches"] < 6, scheduler
                client.shutdown()
            out = shut_down(process)
        for index in range(6):
            record = json.loads(
                (run_dir / f"ci-{index}" / "stats.json").read_text())
            assert record["request_id"] == f"ci-{index}"
        assert "served 6 requests" in out, out
        assert "spilled" in out, out
        assert (cache_dir / "MODEL.tag").is_file()

        socket_path = tmp_path / "gamora2.sock"
        with serve_subprocess(model_path, socket_path,
                              "--cache-dir", cache_dir) as process:
            with SocketDaemonClient(socket_path, timeout=300) as client:
                response = client.reason(circuits[0])
                assert response["ok"], response
                assert response["stats"]["result_hit"], response
                assert client.stats()["stats"]["loaded_results"] == 2
                client.shutdown()
            out = shut_down(process)
        assert "warm caches: 2 results" in out, out

    @pytest.mark.slow
    def test_serve_subprocess_survives_fault_plan(self, gamora, tmp_path):
        """Under a --fault-plan injecting a forward-pass OOM, a dropped
        response and a slow batch, retrying clients still get correct
        answers; every fault fires and no request fails."""
        model_path = tmp_path / "model.npz"
        gamora.save(model_path)
        run_dir = tmp_path / "runs"
        socket_path = tmp_path / "gamora.sock"
        plan_path = tmp_path / "chaos-plan.json"
        plan_path.write_text(json.dumps({"seed": 11, "faults": [
            {"point": "infer.forward", "kind": "memory", "at": [1]},
            {"point": "server.send", "kind": "drop", "at": [1]},
            {"point": "scheduler.execute", "kind": "sleep",
             "seconds": 0.25, "every": 1, "limit": 1},
        ]}))
        circuits = [csa_multiplier(4).aig, csa_multiplier(5).aig]
        with serve_subprocess(model_path, socket_path,
                              "--batch-window-ms", 50,
                              "--fault-plan", plan_path,
                              "--run-dir", run_dir) as process:
            responses = [None] * 4
            barrier = threading.Barrier(4)

            def fire(index):
                barrier.wait()
                # Default retry policy: the dropped response and any
                # backpressure are absorbed transparently.
                with SocketDaemonClient(socket_path, timeout=300) as client:
                    responses[index] = client.reason(
                        circuits[index % 2], request_id=f"chaos-{index}")

            run_threads(4, fire)
            assert all(r["ok"] for r in responses), responses
            for index, response in enumerate(responses):
                twin = responses[index % 2]
                assert (response["result"]["num_full_adders"]
                        == twin["result"]["num_full_adders"]), responses
            with SocketDaemonClient(socket_path, timeout=300) as client:
                follow_up = client.reason(circuits[0],
                                          request_id="chaos-clean")
                assert follow_up["ok"], follow_up
                assert follow_up["stats"]["result_hit"], follow_up
                stats = client.stats()["stats"]
                client.shutdown()
            out = shut_down(process)
        fires = {rule["point"]: rule["fires"] for rule in stats["faults"]}
        assert fires["server.send"] == 1, stats["faults"]
        assert fires["scheduler.execute"] == 1, stats["faults"]
        assert fires["infer.forward"] == 1, stats["faults"]
        # The unbudgeted step that ran out of memory was re-planned
        # windowed and rerun.
        degraded = [
            json.loads(path.read_text())["batch_stats"]["degraded_shards"]
            for path in run_dir.glob("*/stats.json")
        ]
        assert max(degraded) >= 1, degraded
        assert stats["dropped_responses"] == 1, stats
        assert stats["scheduler"]["failed"] == 0, stats["scheduler"]
        assert stats["scheduler"]["completed"] >= 5, stats["scheduler"]
        assert "fault injection armed" in out, out

    def test_serve_unusable_cache_dir_is_clean_error(self, gamora, tmp_path,
                                                     capsys):
        from repro.cli import main

        model_path = tmp_path / "model.npz"
        gamora.save(model_path)
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "foreign.npz").write_bytes(b"not ours")
        code = main(["serve", str(model_path), "--socket",
                     str(tmp_path / "s.sock"), "--cache-dir", str(bad)])
        assert code == 2
        assert "cannot use cache dir" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--max-batch", "0"),
        ("--max-queue-depth", "0"),
        ("--batch-window-ms", "-1"),
        ("--default-deadline-ms", "nan"),
    ])
    def test_serve_out_of_range_number_is_clean_error(self, gamora, tmp_path,
                                                      capsys, flag, value):
        from repro.cli import main

        model_path = tmp_path / "model.npz"
        gamora.save(model_path)
        socket_path = tmp_path / "s.sock"
        code = main(["serve", str(model_path), "--socket", str(socket_path),
                     flag, value])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("serve: ") and err.count("\n") == 1, err
        assert not socket_path.exists()
