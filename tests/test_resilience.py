"""Chaos suite for the serving stack's resilience layer.

Every named fault point gets injected and the stack must keep its
promises: the daemon survives, the affected request resolves with a
*typed* retriable/terminal error (or recovers transparently), and a
follow-up clean request is bit-identical to an unfaulted run.  On top of
the per-point chaos tests, this module unit-tests the primitives
themselves — :class:`FaultPlan` trigger determinism, :class:`RetryPolicy`
backoff/budget, the :class:`Watchdog` — and pins the acceptance
guarantees: an expired deadline provably skips its forward pass, and a
:class:`SocketDaemonClient` with the default retry policy survives a
``queue_full`` burst plus an injected mid-response socket drop.
"""

import json
import socket
import threading
import time
import warnings
from pathlib import Path

import pytest

from repro.aig.aiger import dumps_aag, read_aiger, write_aig
from repro.core import Gamora
from repro.generators import booth_multiplier, csa_multiplier
from repro.learn import TrainConfig, estimate_inference_memory
from repro.serve import (
    DaemonClient,
    DaemonServer,
    DeadlineExceededError,
    FaultPlan,
    GamoraDaemon,
    InjectedFaultError,
    RetryPolicy,
    SchedulerWedgedError,
    SocketDaemonClient,
    Watchdog,
)
from repro.serve import resilience
from repro.serve.resilience import FaultRule

from tests.test_aiger import MALFORMED_NETLISTS
from tests.test_serve_batching import assert_outcome_equal


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


@pytest.fixture(autouse=True)
def _disarm_faults():
    """No fault plan may ever leak from one test into the next."""
    yield
    resilience.install_plan(None)


def run_threads(count, target):
    threads = [threading.Thread(target=target, args=(i,))
               for i in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def plan_of(*rules, seed=0):
    return FaultPlan.from_dict({"seed": seed, "faults": list(rules)})


def assert_payload_matches(response, expected):
    assert response["ok"], response
    assert (response["result"]["num_full_adders"]
            == expected.tree.num_full_adders)
    assert (response["result"]["num_half_adders"]
            == expected.tree.num_half_adders)
    assert (response["result"]["num_mismatches"]
            == expected.num_mismatches)


# ======================================================================
class TestFaultPlanParsing:
    def test_requires_faults_list(self):
        with pytest.raises(ValueError, match="'faults' list"):
            FaultPlan.from_dict({"seed": 1})
        with pytest.raises(ValueError, match="'faults' list"):
            FaultPlan.from_dict([])

    def test_rule_requires_point_and_kind(self):
        with pytest.raises(ValueError, match="'point' and 'kind'"):
            plan_of({"point": "infer.forward"})

    def test_unknown_kind_rejected(self):
        for kind in ("explode", "exit"):
            with pytest.raises(ValueError, match="unknown fault kind"):
                plan_of({"point": "infer.forward", "kind": kind})

    def test_unknown_point_warns(self):
        with pytest.warns(RuntimeWarning,
                          match="unknown point 'postprocess.worker'") as seen:
            plan = plan_of({"point": "postprocess.worker", "kind": "raise"})
        assert len(seen) == 1
        assert plan.rules[0].point == "postprocess.worker"

    def test_known_points_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            plan_of(*({"point": point, "kind": "raise"}
                      for point in resilience.KNOWN_POINTS))

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown fault rule keys"):
            plan_of({"point": "infer.forward", "kind": "raise",
                     "when": "later"})

    def test_at_most_one_trigger(self):
        with pytest.raises(ValueError, match="at most one"):
            FaultRule("p", "raise", at=[1], every=2)

    def test_from_json_inline_and_file(self, tmp_path):
        text = ('{"seed": 3, "faults": '
                '[{"point": "server.send", "kind": "drop", "at": [2]}]}')
        inline = FaultPlan.from_json(text)
        path = tmp_path / "plan.json"
        path.write_text(text)
        from_file = FaultPlan.from_json(str(path))
        for plan in (inline, from_file):
            assert plan.seed == 3
            assert plan.rules[0].point == "server.send"
            assert plan.rules[0].at == frozenset([2])

    def test_invalid_json_raises(self):
        with pytest.raises(ValueError):
            FaultPlan.from_json("{not json")


# The synthetic point "p" is consulted by these tests alone.
@pytest.mark.filterwarnings("ignore:fault plan names unknown point 'p'")
class TestFaultPlanTriggers:
    def test_at_fires_only_listed_hits(self):
        plan = plan_of({"point": "p", "kind": "drop", "at": [2, 4]})
        fired = [plan.fire("p") for _ in range(5)]
        assert fired == [None, "drop", None, "drop", None]

    def test_every_nth_hit(self):
        plan = plan_of({"point": "p", "kind": "drop", "every": 3})
        fired = [plan.fire("p") for _ in range(7)]
        assert fired == [None, None, "drop", None, None, "drop", None]

    def test_default_trigger_is_every_hit(self):
        plan = plan_of({"point": "p", "kind": "drop"})
        assert [plan.fire("p") for _ in range(3)] == ["drop"] * 3

    def test_limit_caps_total_fires(self):
        plan = plan_of({"point": "p", "kind": "drop", "every": 1,
                        "limit": 2})
        assert [plan.fire("p") for _ in range(4)] == \
            ["drop", "drop", None, None]

    def test_rate_is_deterministic_for_a_seed(self):
        def sequence():
            plan = plan_of({"point": "p", "kind": "drop", "rate": 0.3},
                           seed=17)
            return [plan.fire("p") for _ in range(200)]

        first, second = sequence(), sequence()
        assert first == second
        assert "drop" in first and None in first  # rate actually mixes

    def test_unmatched_point_never_fires(self):
        plan = plan_of({"point": "p", "kind": "raise"})
        assert plan.fire("q") is None
        assert plan.stats()[0]["hits"] == 0

    def test_raise_kind(self):
        plan = plan_of({"point": "p", "kind": "raise"})
        with pytest.raises(InjectedFaultError) as info:
            plan.fire("p")
        assert info.value.point == "p"

    def test_memory_kind(self):
        plan = plan_of({"point": "p", "kind": "memory"})
        with pytest.raises(MemoryError):
            plan.fire("p")

    def test_sleep_kind_blocks(self):
        plan = plan_of({"point": "p", "kind": "sleep", "seconds": 0.1})
        started = time.monotonic()
        assert plan.fire("p") == "sleep"
        assert time.monotonic() - started >= 0.1

    def test_stats_count_hits_and_fires(self):
        plan = plan_of({"point": "p", "kind": "corrupt", "at": [2]})
        for _ in range(3):
            plan.fire("p")
        assert plan.stats() == [
            {"point": "p", "kind": "corrupt", "hits": 3, "fires": 1}
        ]


@pytest.mark.filterwarnings("ignore:fault plan names unknown point 'p'")
class TestPlanRegistry:
    def test_fire_is_noop_when_unarmed(self):
        resilience.install_plan(None)
        assert resilience.fire("infer.forward") is None
        assert resilience.fault_stats() == []

    def test_installed_plan_fires_until_disarmed(self):
        resilience.install_plan(plan_of({"point": "p", "kind": "drop"}))
        assert resilience.fire("p") == "drop"
        assert resilience.fault_stats()[0]["hits"] == 1
        resilience.install_plan(None)
        assert resilience.fire("p") is None


# ======================================================================
class TestRetryPolicy:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)

    def test_delay_is_full_jitter_under_exponential_ceiling(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=0.5,
                             seed=11)
        for failures in range(1, 8):
            ceiling = min(0.5, 0.1 * 2.0 ** (failures - 1))
            for _ in range(50):
                assert 0.0 <= policy.delay(failures) <= ceiling

    def test_retries_raised_errors_until_success(self):
        policy = RetryPolicy(max_attempts=5, base_delay=0.0, seed=1)
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise ConnectionError("transient")
            return "done"

        result = policy.call(
            flaky, retriable_fn=lambda o: isinstance(o, ConnectionError)
        )
        assert result == "done"
        assert len(attempts) == 3

    def test_non_retriable_error_raises_immediately(self):
        policy = RetryPolicy(max_attempts=5, base_delay=0.0)
        attempts = []

        def fatal():
            attempts.append(1)
            raise ValueError("terminal")

        with pytest.raises(ValueError):
            policy.call(fatal, retriable_fn=lambda o: False)
        assert len(attempts) == 1

    def test_exhausted_attempts_reraise_last_error(self):
        policy = RetryPolicy(max_attempts=3, base_delay=0.0)
        attempts = []

        def always_down():
            attempts.append(1)
            raise ConnectionError(f"try {len(attempts)}")

        with pytest.raises(ConnectionError, match="try 3"):
            policy.call(always_down, retriable_fn=lambda o: True)
        assert len(attempts) == 3

    def test_retriable_return_values_are_retried(self):
        policy = RetryPolicy(max_attempts=4, base_delay=0.0)
        envelopes = iter([
            {"ok": False, "retriable": True},
            {"ok": False, "retriable": True},
            {"ok": True},
        ])
        result = policy.call(
            lambda: next(envelopes),
            retriable_fn=lambda o: isinstance(o, dict) and not o.get("ok"),
        )
        assert result == {"ok": True}

    def test_exhausted_attempts_return_last_envelope(self):
        policy = RetryPolicy(max_attempts=2, base_delay=0.0)
        result = policy.call(
            lambda: {"ok": False, "retriable": True},
            retriable_fn=lambda o: isinstance(o, dict) and not o.get("ok"),
        )
        assert result == {"ok": False, "retriable": True}

    def test_budget_refuses_sleeps_it_cannot_afford(self):
        policy = RetryPolicy(max_attempts=10, base_delay=0.5, seed=3)
        attempts = []

        def always_down():
            attempts.append(1)
            raise ConnectionError("down")

        started = time.monotonic()
        with pytest.raises(ConnectionError):
            policy.call(always_down, retriable_fn=lambda o: True,
                        budget_seconds=0.0)
        # No backoff sleep fits a zero budget: exactly one attempt, fast.
        assert len(attempts) == 1
        assert time.monotonic() - started < 0.4

    def test_single_attempt_policy_never_retries(self):
        policy = RetryPolicy(max_attempts=1)
        attempts = []

        def always_down():
            attempts.append(1)
            raise ConnectionError("down")

        with pytest.raises(ConnectionError):
            policy.call(always_down, retriable_fn=lambda o: True)
        assert len(attempts) == 1

    def test_on_retry_observes_backoffs(self):
        policy = RetryPolicy(max_attempts=3, base_delay=0.0)
        observed = []
        with pytest.raises(ConnectionError):
            policy.call(
                lambda: (_ for _ in ()).throw(ConnectionError("down")),
                retriable_fn=lambda o: True,
                on_retry=lambda failures, pause, why: observed.append(
                    (failures, pause)
                ),
            )
        assert [failures for failures, _ in observed] == [1, 2]


# ======================================================================
class TestDeadlines:
    def test_expired_deadline_skips_the_forward_pass(self, gamora,
                                                     circuits):
        # The acceptance criterion: a request whose deadline lapses in the
        # queue must fail at dequeue without ever joining a reason_many
        # call — the forward-pass counter provably does not move.
        with GamoraDaemon(gamora, batch_window_ms=300) as daemon:
            ticket = daemon.submit_async(circuits[0], deadline_ms=5)
            with pytest.raises(DeadlineExceededError) as info:
                ticket.result(timeout=120)
            assert info.value.retriable
            assert info.value.deadline_ms == 5
            stats = daemon.scheduler.stats()
            assert stats["expired"] == 1
            assert stats["failed"] == 1
            assert stats["num_shards"] == 0  # no forward pass happened
            # The daemon is fine; the next (patient) request computes.
            outcome, _ = daemon.submit(circuits[0])
            assert daemon.scheduler.stats()["num_shards"] >= 1
            assert outcome.tree.num_full_adders >= 0

    def test_generous_deadline_is_recorded_and_met(self, gamora, circuits,
                                                   sequential):
        with GamoraDaemon(gamora, batch_window_ms=1) as daemon:
            outcome, stats = daemon.submit(circuits[0], deadline_ms=120_000)
            assert stats.deadline_ms == 120_000
            assert_outcome_equal(outcome, sequential[0])

    def test_nonpositive_deadline_rejected_at_submit(self, gamora,
                                                     circuits):
        with GamoraDaemon(gamora, batch_window_ms=1) as daemon:
            for bad in (0, float("nan"), float("inf")):
                with pytest.raises(ValueError, match="deadline_ms"):
                    daemon.submit_async(circuits[0], deadline_ms=bad)

    @pytest.mark.parametrize("bad", [0, -1, float("nan"), float("inf")])
    def test_invalid_default_deadline_rejected_at_construction(
            self, gamora, bad):
        with pytest.raises(ValueError, match="default_deadline_ms"):
            GamoraDaemon(gamora, default_deadline_ms=bad)

    def test_deadline_exceeded_over_the_protocol(self, gamora, circuits,
                                                 sequential):
        with GamoraDaemon(gamora, batch_window_ms=300) as daemon:
            client = DaemonClient(daemon)
            response = client.reason(circuits[0], request_id="hasty",
                                     deadline_ms=5)
            assert not response["ok"]
            assert response["error"]["type"] == "deadline_exceeded"
            assert response["error"]["retriable"] is True
            # Bit-identical follow-up once the client is patient again.
            clean = client.reason(circuits[0], request_id="patient")
            assert_payload_matches(clean, sequential[0])

    @pytest.mark.parametrize("bad", [0, -5, True, "soon", [],
                                     float("nan"), float("inf"),
                                     pytest.param(10**400, id="huge_int")])
    def test_malformed_deadline_is_bad_request(self, gamora, circuits,
                                               bad):
        with GamoraDaemon(gamora, batch_window_ms=1) as daemon:
            response = daemon.handle({
                "op": "reason", "netlist": dumps_aag(circuits[0]),
                "deadline_ms": bad,
            })
            assert not response["ok"]
            assert response["error"]["type"] == "bad_request"

    def test_default_deadline_applies_to_deadline_less_requests(
            self, gamora, circuits):
        with GamoraDaemon(gamora, batch_window_ms=300,
                          default_deadline_ms=5) as daemon:
            client = DaemonClient(daemon)
            response = client.reason(circuits[0])
            assert not response["ok"]
            assert response["error"]["type"] == "deadline_exceeded"
            assert daemon.stats()["default_deadline_ms"] == 5

    def test_null_deadline_takes_the_default(self, gamora, circuits):
        """An explicit ``"deadline_ms": null`` means "no deadline of my
        own", exactly like an absent key: the daemon default applies."""
        with GamoraDaemon(gamora, batch_window_ms=1,
                          default_deadline_ms=120_000) as daemon:
            for message in ({}, {"deadline_ms": None}):
                response = daemon.handle({
                    "op": "reason", "netlist": dumps_aag(circuits[0]),
                    **message,
                })
                assert response["ok"], response
                assert response["stats"]["deadline_ms"] == 120_000


# ======================================================================
class TestFaultPointScheduler:
    def test_injected_execute_failure_is_typed_and_survived(
            self, gamora, circuits, sequential):
        plan = plan_of({"point": "scheduler.execute", "kind": "raise",
                        "at": [1]})
        with GamoraDaemon(gamora, batch_window_ms=1,
                          fault_plan=plan) as daemon:
            client = DaemonClient(daemon)
            response = client.reason(circuits[0], request_id="doomed")
            assert not response["ok"]
            assert response["error"]["type"] == "internal"
            assert response["error"]["retriable"] is False
            assert "InjectedFaultError" in response["error"]["message"]
            # The scheduler thread survived the injected group failure.
            clean = client.reason(circuits[0], request_id="clean")
            assert_payload_matches(clean, sequential[0])
            assert daemon.scheduler.stats()["failed"] == 1
            assert daemon.stats()["faults"][0]["fires"] == 1

    def test_slow_stage_delays_but_answers_correctly(self, gamora,
                                                     circuits, sequential):
        plan = plan_of({"point": "scheduler.execute", "kind": "sleep",
                        "seconds": 0.3, "at": [1]})
        with GamoraDaemon(gamora, batch_window_ms=1,
                          fault_plan=plan) as daemon:
            outcome, stats = daemon.submit(circuits[0])
            assert stats.total_seconds >= 0.3
            assert_outcome_equal(outcome, sequential[0])

    def test_fail_pending_fails_only_queued_requests(self, gamora,
                                                     circuits, sequential):
        with GamoraDaemon(gamora, batch_window_ms=5000) as daemon:
            tickets = [daemon.submit_async(circuits[i % 3], f"q{i}")
                       for i in range(3)]
            failed = daemon.scheduler.fail_pending(RuntimeError("drained"))
            assert failed == 3
            for ticket in tickets:
                with pytest.raises(RuntimeError, match="drained"):
                    ticket.result(timeout=10)
            assert daemon.scheduler.stats()["failed"] == 3


class TestFaultPointInference:
    def test_memory_error_degrades_to_streamed_pass(self, gamora, circuits,
                                                    sequential):
        # An OOM in the full-graph forward pass must re-run the shard
        # through the level-windowed streaming path at half the budget —
        # same labels, flagged as degraded.
        plan = plan_of({"point": "infer.forward", "kind": "memory",
                        "at": [1]})
        with GamoraDaemon(gamora, batch_window_ms=1,
                          fault_plan=plan) as daemon:
            outcome, stats = daemon.submit(circuits[0])
            assert outcome.degraded
            assert outcome.streamed
            assert stats.degraded and stats.streamed
            assert stats.batch_stats["degraded_shards"] == 1
            assert daemon.scheduler.stats()["degraded_requests"] == 1
            # The re-plan is the circuit's own window plan at half its
            # one-window estimate.
            kernel = gamora.inference_kernel()
            data = daemon.service.encode(circuits[0])
            estimate = estimate_inference_memory(kernel, data.num_nodes,
                                                 data.num_edges)
            rung = data.window_plan(estimate // 2, kernel)
            assert rung.num_windows > 1
            assert stats.batch_stats["num_windows"] == rung.num_windows
            assert (stats.batch_stats["peak_window_bytes"]
                    == rung.peak_window_bytes)
            # Bit-identical to the unfaulted sequential reference.
            assert_outcome_equal(outcome, sequential[0])
            # The next request runs the ordinary full pass again.
            clean, clean_stats = daemon.submit(circuits[1])
            assert not clean_stats.degraded
            assert_outcome_equal(clean, sequential[1])

    def test_memory_error_in_streamed_pass_is_terminal(self, gamora,
                                                       circuits,
                                                       sequential):
        # The bottom rung of the ladder: a pass that was *already*
        # streamed OOMs — there is nothing cheaper to fall back to, so
        # the request fails typed while the daemon survives.
        plan = plan_of({"point": "infer.forward", "kind": "memory",
                        "at": [1]})
        with GamoraDaemon(gamora, batch_window_ms=1, max_window_bytes=1,
                          fault_plan=plan) as daemon:
            client = DaemonClient(daemon)
            response = client.reason(circuits[0], request_id="oom")
            assert not response["ok"]
            assert response["error"]["type"] == "internal"
            assert "MemoryError" in response["error"]["message"]
            clean = client.reason(circuits[0], request_id="clean")
            assert_payload_matches(clean, sequential[0])


class TestFaultPointServerSend:
    def test_injected_drop_is_survived_by_default_retry(self, gamora,
                                                        circuits,
                                                        sequential,
                                                        tmp_path):
        plan = plan_of({"point": "server.send", "kind": "drop", "at": [1]})
        daemon = GamoraDaemon(gamora, batch_window_ms=1,
                              fault_plan=plan).start()
        server = DaemonServer(daemon, tmp_path / "gamora.sock").start()
        try:
            with SocketDaemonClient(server.socket_path) as client:
                response = client.reason(circuits[0], request_id="dropped")
                # The first response was dropped mid-send; the default
                # RetryPolicy reconnected and the retry found the warm
                # result cache.
                assert_payload_matches(response, sequential[0])
                assert client.reconnects >= 1
                assert client.retriable_errors >= 1
                assert daemon.dropped_responses == 1
                clean = client.reason(circuits[1], request_id="clean")
                assert_payload_matches(clean, sequential[1])
        finally:
            server.close()
            daemon.close()

    def test_vanished_client_counts_a_dropped_response(self, gamora,
                                                       circuits,
                                                       tmp_path):
        # Regression for the satellite: a send failure after computation
        # must increment dropped_responses, never raise in the connection
        # thread — and the computed answer must land in the warm cache.
        daemon = GamoraDaemon(gamora, batch_window_ms=1).start()
        server = DaemonServer(daemon, tmp_path / "gamora.sock").start()
        try:
            ghost = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            ghost.connect(str(server.socket_path))
            message = {"op": "reason", "id": "ghost",
                       "netlist": dumps_aag(circuits[0])}
            ghost.sendall((json.dumps(message) + "\n").encode("utf-8"))
            ghost.close()  # vanish before reading the answer
            deadline = time.monotonic() + 120
            while (daemon.dropped_responses == 0
                   and time.monotonic() < deadline):
                time.sleep(0.02)
            assert daemon.dropped_responses == 1
            assert daemon.stats()["dropped_responses"] == 1
            # The daemon is alive and the orphaned work was not wasted.
            with SocketDaemonClient(server.socket_path,
                                    retry=None) as client:
                response = client.reason(circuits[0], request_id="redo")
                assert response["ok"]
                assert response["stats"]["result_hit"]
        finally:
            server.close()
            daemon.close()


class TestFaultPointCache:
    def _warm_cache(self, gamora, circuits, cache_dir):
        with GamoraDaemon(gamora, batch_window_ms=1,
                          cache_dir=cache_dir) as warm:
            for aig in circuits:
                warm.submit(aig)
        assert warm.spill_error is None

    def test_corrupt_spill_is_quarantined_on_next_boot(self, gamora,
                                                       circuits,
                                                       sequential,
                                                       tmp_path):
        cache_dir = tmp_path / "cache"
        plan = plan_of({"point": "cache.spill", "kind": "corrupt",
                        "at": [1]})
        with GamoraDaemon(gamora, batch_window_ms=1, cache_dir=cache_dir,
                          fault_plan=plan) as first:
            first.submit(circuits[0])
        resilience.install_plan(None)
        marker = cache_dir / "MODEL.tag"
        assert marker.read_text().startswith("corrupted")

        with pytest.warns(RuntimeWarning, match="quarantined"):
            second = GamoraDaemon(gamora, batch_window_ms=1,
                                  cache_dir=cache_dir).start()
        try:
            assert second.loaded_results == 0
            assert len(second.quarantined) == 1
            assert Path(second.quarantined[0]).exists()  # kept for post-mortem
            # Only the result spill moved: graphs/ stays and loads.
            assert sorted(cache_dir.iterdir()) == [cache_dir / "graphs"]
            assert second.loaded_graphs == 1
            outcome, stats = second.submit(circuits[0])
            assert not stats.result_hit  # served cold, not from the wreck
            assert_outcome_equal(outcome, sequential[0])
        finally:
            second.close()
        # The close-time spill recreated a healthy directory in place.
        assert second.spill_error is None
        with GamoraDaemon(gamora, batch_window_ms=1,
                          cache_dir=cache_dir) as third:
            assert third.loaded_results >= 1
            _, stats = third.submit(circuits[0])
            assert stats.result_hit

    def test_unreadable_cache_load_degrades_to_cold(self, gamora, circuits,
                                                    sequential, tmp_path):
        cache_dir = tmp_path / "cache"
        self._warm_cache(gamora, circuits, cache_dir)
        plan = plan_of({"point": "cache.load", "kind": "raise",
                        "every": 1})
        resilience.install_plan(plan)
        with pytest.warns(RuntimeWarning, match="quarantined"):
            daemon = GamoraDaemon(gamora, batch_window_ms=1,
                                  cache_dir=cache_dir).start()
        resilience.install_plan(None)
        try:
            assert daemon.loaded_results == 0
            assert daemon.loaded_graphs == 0
            # Each spill's own files were moved aside, kept for post-mortem;
            # graphs/ itself stays, empty, for the closing spill.
            result_wreck, graph_wreck = map(Path, daemon.quarantined)
            assert (result_wreck / "MODEL.tag").is_file()
            assert not (result_wreck / "graphs").exists()
            assert graph_wreck.parent == cache_dir
            assert (graph_wreck / "GRAPH.tag").is_file()
            assert any(graph_wreck.glob("*.npz"))
            assert list((cache_dir / "graphs").iterdir()) == []
            outcome, _ = daemon.submit(circuits[0])
            assert_outcome_equal(outcome, sequential[0])
        finally:
            daemon.close()

    def test_foreign_cache_dir_is_never_touched(self, gamora, circuits,
                                                tmp_path):
        foreign = tmp_path / "cache"
        foreign.mkdir()
        (foreign / "somebody-elses.npz").write_bytes(b"not ours")
        with pytest.warns(RuntimeWarning, match="foreign"):
            daemon = GamoraDaemon(gamora, batch_window_ms=1,
                                  cache_dir=foreign).start()
        try:
            assert daemon.loaded_results == 0
            assert daemon.quarantined == []
            assert (foreign / "somebody-elses.npz").exists()
            outcome, _ = daemon.submit(circuits[0])
            assert outcome is not None
        finally:
            daemon.close()


# ======================================================================
class _FakeScheduler:
    def __init__(self, age, depth):
        self.age = age
        self.queue_depth = depth
        self.errors = []

    def heartbeat_age(self):
        return self.age

    def fail_pending(self, error):
        self.errors.append(error)
        failed, self.queue_depth = self.queue_depth, 0
        return failed


class TestWatchdog:
    def _spin(self, condition, timeout=5.0):
        deadline = time.monotonic() + timeout
        while not condition() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert condition()

    def test_trips_on_stale_heartbeat_with_queued_work(self):
        fake = _FakeScheduler(age=10.0, depth=3)
        with Watchdog(fake, timeout_seconds=0.05,
                      poll_seconds=0.01) as watchdog:
            self._spin(lambda: watchdog.trips >= 1)
        assert watchdog.failed_tickets == 3
        error = fake.errors[0]
        assert isinstance(error, SchedulerWedgedError)
        assert error.retriable
        assert error.heartbeat_age == 10.0

    def test_idle_staleness_never_trips(self):
        fake = _FakeScheduler(age=10.0, depth=0)
        with Watchdog(fake, timeout_seconds=0.05,
                      poll_seconds=0.01) as watchdog:
            time.sleep(0.2)
            assert watchdog.trips == 0
        assert fake.errors == []

    def test_fresh_heartbeat_never_trips(self):
        fake = _FakeScheduler(age=0.0, depth=5)
        with Watchdog(fake, timeout_seconds=0.05,
                      poll_seconds=0.01) as watchdog:
            time.sleep(0.2)
            assert watchdog.trips == 0

    def test_wedged_scheduler_fails_queued_requests(self, gamora, circuits,
                                                    sequential):
        # Wedge the loop inside one batch (a 1.5s injected stall); a
        # request queued behind it must get the typed retriable error
        # instead of hanging, while the stalled batch itself completes.
        plan = plan_of({"point": "scheduler.execute", "kind": "sleep",
                        "seconds": 1.5, "at": [1]})
        with GamoraDaemon(gamora, batch_window_ms=50,
                          watchdog_timeout_seconds=0.4,
                          fault_plan=plan) as daemon:
            stalled = daemon.submit_async(circuits[0], "stalled")
            time.sleep(0.2)  # let the batch dispatch into the stall
            stuck = daemon.submit_async(circuits[1], "stuck-behind")
            with pytest.raises(SchedulerWedgedError) as info:
                stuck.result(timeout=120)
            assert info.value.retriable
            # The in-flight batch was not interrupted: it resolves fine.
            assert_outcome_equal(stalled.result(timeout=120), sequential[0])
            watchdog_stats = daemon.stats()["watchdog"]
            assert watchdog_stats["trips"] == 1
            assert watchdog_stats["failed_tickets"] == 1
            # And the daemon keeps serving afterwards.
            outcome, _ = daemon.submit(circuits[1])
            assert_outcome_equal(outcome, sequential[1])


# ======================================================================
class TestBadRequestMapping:
    """Malformed AIGER bytes are the client's fault, never ``internal``."""

    @pytest.fixture(scope="class")
    def daemon(self, gamora):
        with GamoraDaemon(gamora, batch_window_ms=1) as daemon:
            yield daemon

    def assert_bad_request(self, daemon, netlist):
        response = daemon.handle({"op": "reason", "netlist": netlist,
                                  "id": "fuzz"})
        assert not response["ok"], netlist
        assert response["error"]["type"] == "bad_request", (
            netlist, response["error"],
        )
        assert response["error"]["retriable"] is False

    @pytest.mark.parametrize("netlist", MALFORMED_NETLISTS)
    def test_handcrafted_malformed_netlists(self, daemon, netlist):
        self.assert_bad_request(daemon, netlist)

    def test_every_truncation_of_a_valid_netlist(self, daemon, circuits):
        lines = dumps_aag(circuits[0]).splitlines()
        definitions = (1 + circuits[0].num_inputs + circuits[0].num_outputs
                       + circuits[0].num_ands)
        # Every prefix that cuts inside the definition section is
        # malformed input, and must say so as bad_request.
        for cut in range(1, definitions):
            self.assert_bad_request(daemon, "\n".join(lines[:cut]))

    def test_seeded_garbage_payloads(self, daemon):
        import random

        rng = random.Random(0xFA11)
        for _ in range(40):
            length = rng.randrange(1, 120)
            garbage = "".join(
                chr(rng.randrange(32, 127)) for _ in range(length)
            )
            if rng.random() < 0.5:
                garbage = "aag " + garbage
            response = daemon.handle({"op": "reason", "netlist": garbage})
            # A random string that happens to parse would be a legitimate
            # (if tiny) circuit; anything rejected must be bad_request.
            if not response["ok"]:
                assert response["error"]["type"] == "bad_request", garbage

    def test_non_string_netlists_and_bad_envelopes(self, daemon):
        for message in (
            {"op": "reason"},                          # missing netlist
            {"op": "reason", "netlist": 7},            # wrong type
            {"op": "reason", "netlist": None},
            {"op": "teleport"},                        # unknown op
            {"op": "reason", "netlist": "aag 0 0 0 0 0",
             "options": "fast"},                       # options not a dict
            {"op": "reason", "netlist": "aag 0 0 0 0 0",
             "options": {"speed": 11}},                # unknown option
        ):
            response = daemon.handle(message)
            assert not response["ok"]
            assert response["error"]["type"] == "bad_request"
        response = daemon.handle("not a dict")
        assert response["error"]["type"] == "bad_request"

    def test_binary_truncations_raise_instead_of_hanging(self, circuits,
                                                         tmp_path):
        # Regression: a truncated binary .aig used to spin forever in the
        # output-line reader. Every prefix must now either parse (symbol
        # section lost) or raise ValueError — promptly.
        path = tmp_path / "whole.aig"
        write_aig(circuits[0], path)
        data = path.read_bytes()
        stride = max(1, len(data) // 64)
        truncated = tmp_path / "cut.aig"
        for cut in range(3, len(data), stride):
            truncated.write_bytes(data[:cut])
            try:
                read_aiger(truncated)
            except ValueError:
                pass  # the only acceptable failure mode
        # A cut inside the output-literal lines definitely raises.
        header_end = data.index(b"\n") + 1
        truncated.write_bytes(data[:header_end + 1])
        with pytest.raises(ValueError):
            read_aiger(truncated)


# ======================================================================
class TestClientRetryAcceptance:
    def test_retry_survives_queue_full_burst_and_socket_drop(
            self, gamora, circuits, sequential, tmp_path):
        # Acceptance: SocketDaemonClient with a retry policy transparently
        # survives queue_full backpressure *and* one injected mid-response
        # socket drop on the same request.
        plan = plan_of({"point": "server.send", "kind": "drop", "at": [1]})
        daemon = GamoraDaemon(gamora, batch_window_ms=300,
                              max_queue_depth=1,
                              fault_plan=plan).start()
        server = DaemonServer(daemon, tmp_path / "gamora.sock").start()
        try:
            # Occupy the whole queue so the socket request is rejected
            # with queue_full until the window drains it.
            blocker = daemon.submit_async(circuits[1], "blocker")
            retry = RetryPolicy(max_attempts=12, base_delay=0.05, seed=7)
            with SocketDaemonClient(server.socket_path,
                                    retry=retry) as client:
                response = client.reason(circuits[0], request_id="burst")
                assert_payload_matches(response, sequential[0])
                assert client.retriable_errors >= 1
            blocker.result(timeout=120)
            assert daemon.scheduler.stats()["rejected"] >= 1
            assert daemon.dropped_responses == 1
        finally:
            server.close()
            daemon.close()

    def test_concurrent_burst_converges_with_default_retries(
            self, gamora, circuits, sequential, tmp_path):
        daemon = GamoraDaemon(gamora, batch_window_ms=50,
                              max_queue_depth=2).start()
        server = DaemonServer(daemon, tmp_path / "gamora.sock").start()
        try:
            responses = [None] * 6
            barrier = threading.Barrier(6)

            def worker(index):
                retry = RetryPolicy(max_attempts=15, base_delay=0.05,
                                    seed=100 + index)
                with SocketDaemonClient(server.socket_path,
                                        retry=retry) as client:
                    barrier.wait()
                    responses[index] = client.reason(
                        circuits[index % 3], request_id=f"burst-{index}"
                    )

            run_threads(6, worker)
            for index, response in enumerate(responses):
                assert_payload_matches(response, sequential[index % 3])
        finally:
            server.close()
            daemon.close()
