"""Sharded + parallel serving: planner properties and equivalence.

The scaling knobs added on top of the batched service must never change
answers: for any budget (including budgets that split the batch at every
boundary or mark circuits oversize) and any worker count (including worker
crashes), ``reason_many`` must return labels and extractions identical to
sequential ``Gamora.reason``.  The planner itself is checked as a pure
function: budget respected, exact partition, deterministic.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Gamora
from repro.generators import booth_multiplier, csa_multiplier, squarer
from repro.learn import TrainConfig, estimate_batch_memory
from repro.serve import PostprocessPool, ReasoningService, plan_shards
from repro.serve.workers import (
    AUTO_MIN_TOTAL_ANDS,
    FAULT_ENV,
    fork_available,
    resolve_workers,
)

ZOO = [
    lambda: csa_multiplier(3),
    lambda: csa_multiplier(4),
    lambda: csa_multiplier(5),
    lambda: booth_multiplier(3),
    lambda: squarer(4),
]
SPEC_IDS = st.integers(0, len(ZOO) - 1)


@pytest.fixture(scope="module")
def gamora():
    model = Gamora(model="shallow", train_config=TrainConfig(epochs=60))
    model.fit([csa_multiplier(6)])
    return model


@pytest.fixture(scope="module")
def zoo_graphs(gamora):
    """Encoded graphs for the whole zoo (planner inputs)."""
    service = ReasoningService(gamora)
    return [service.encode(spec()) for spec in ZOO]


@pytest.fixture(scope="module")
def sequential_memo(gamora):
    memo = {}

    def lookup(spec_id):
        if spec_id not in memo:
            memo[spec_id] = gamora.reason(ZOO[spec_id]())
        return memo[spec_id]

    return lookup


def assert_outcome_equal(batched, sequential):
    assert set(batched.labels) == set(sequential.labels)
    for task in sequential.labels:
        np.testing.assert_array_equal(batched.labels[task], sequential.labels[task])
    batched_tree = sorted(
        (a.kind, a.sum_var, a.carry_var, tuple(sorted(a.leaves)))
        for a in batched.tree.adders
    )
    sequential_tree = sorted(
        (a.kind, a.sum_var, a.carry_var, tuple(sorted(a.leaves)))
        for a in sequential.tree.adders
    )
    assert batched_tree == sequential_tree
    assert batched.extraction.rejected_xor == sequential.extraction.rejected_xor
    assert batched.extraction.rejected_maj == sequential.extraction.rejected_maj


class TestShardPlanner:
    def test_no_budget_is_single_shard(self, gamora, zoo_graphs):
        plan = plan_shards(gamora.net, zoo_graphs, max_shard_bytes=None)
        assert len(plan) == 1
        assert sorted(plan.steps[0].indices) == list(range(len(zoo_graphs)))
        assert plan.steps[0].window_plan.num_nodes == sum(g.num_nodes for g in zoo_graphs)
        assert plan.num_oversize == 0
        assert plan_shards(gamora.net, zoo_graphs, max_shard_bytes=0).max_shard_bytes is None

    def test_empty_input(self, gamora):
        assert len(plan_shards(gamora.net, [], max_shard_bytes=1024)) == 0

    def test_budget_respected_and_partition_exact(self, gamora, zoo_graphs):
        standalone = [estimate_batch_memory(gamora.net, [g]) for g in zoo_graphs]
        budget = max(standalone) + min(standalone) // 2
        plan = plan_shards(gamora.net, zoo_graphs, max_shard_bytes=budget)
        assert len(plan) > 1  # the budget genuinely splits this batch
        covered = sorted(i for step in plan for i in step.indices)
        assert covered == list(range(len(zoo_graphs)))  # exact partition
        assert plan.num_oversize == 0
        for step in plan:
            assert step.window_plan.peak_window_bytes <= budget
            assert step.window_plan.peak_window_bytes == estimate_batch_memory(
                gamora.net, [zoo_graphs[i] for i in step.indices]
            )
        assert plan.peak_shard_bytes <= budget

    def test_oversize_singletons_get_own_shard(self, gamora, zoo_graphs):
        standalone = [estimate_batch_memory(gamora.net, [g]) for g in zoo_graphs]
        plan = plan_shards(gamora.net, zoo_graphs,
                           max_shard_bytes=min(standalone) - 1)
        assert len(plan) == len(zoo_graphs)
        assert all(len(step) == 1 for step in plan)
        assert plan.num_oversize == len(zoo_graphs)
        assert "oversize" in plan.summary()

    def test_mixed_oversize_and_packed(self, gamora, zoo_graphs):
        standalone = [estimate_batch_memory(gamora.net, [g]) for g in zoo_graphs]
        # Budget admits everything but the largest graph.
        budget = sorted(standalone)[-2] + 1
        plan = plan_shards(gamora.net, zoo_graphs, max_shard_bytes=budget)
        oversized = [step for step in plan
                     if step.window_plan.peak_window_bytes > budget]
        assert len(oversized) == 1
        assert plan.num_oversize == 1
        assert standalone[oversized[0].indices[0]] == max(standalone)

    @pytest.mark.parametrize("shard_div,window_div", [(1, 4), (2, 8), (4, 16)])
    def test_every_step_is_a_bounded_window_plan(self, gamora, zoo_graphs,
                                                 shard_div, window_div):
        """Both budgets set: an exact partition into steps, packed steps
        under the shard budget, streamed steps singletons."""
        kernel = gamora.inference_kernel()
        standalone = [estimate_batch_memory(kernel, [g]) for g in zoo_graphs]
        shard_budget = max(standalone) // shard_div
        plan = plan_shards(kernel, zoo_graphs, shard_budget,
                           max(standalone) // window_div)
        covered = sorted(i for step in plan for i in step.indices)
        assert covered == list(range(len(zoo_graphs)))
        for step in plan:
            assert step.indices == sorted(step.indices)
            if step.streamed:
                assert len(step) == 1
                assert standalone[step.indices[0]] > shard_budget
            else:
                assert step.window_plan.peak_window_bytes <= shard_budget
        assert plan.num_streamed == sum(s > shard_budget for s in standalone)

    def test_summary_flags_unsatisfiable_window_budget(self, gamora,
                                                       zoo_graphs):
        kernel = gamora.inference_kernel()
        assert "OVER BUDGET" not in plan_shards(kernel, zoo_graphs).summary()
        plan = plan_shards(kernel, zoo_graphs, max_shard_bytes=1,
                           max_window_bytes=1)
        assert plan.num_streamed == len(zoo_graphs)
        assert plan.summary().endswith(" — OVER BUDGET")

    def test_service_plan_uses_configured_budget(self, gamora, zoo_graphs):
        """plan() must predict what reason_many actually executes."""
        standalone = [estimate_batch_memory(gamora.net, [g]) for g in zoo_graphs]
        budget = max(standalone) + 1
        service = ReasoningService(gamora, max_shard_bytes=budget)
        plan = service.plan([spec() for spec in ZOO])  # no override: use budget
        assert plan.max_shard_bytes == budget
        assert len(plan) > 1
        unbounded = service.plan([spec() for spec in ZOO], None)  # explicit
        assert len(unbounded) == 1

    def test_deterministic(self, gamora, zoo_graphs):
        budget = estimate_batch_memory(gamora.net, zoo_graphs) // 2
        first = plan_shards(gamora.net, zoo_graphs, max_shard_bytes=budget)
        second = plan_shards(gamora.net, zoo_graphs, max_shard_bytes=budget)
        assert [s.indices for s in first] == [s.indices for s in second]
        # Streaming order follows input order through the first member.
        firsts = [s.indices[0] for s in first]
        assert firsts == sorted(firsts)


class TestShardedEquivalence:
    def test_single_graph_shards_match_sequential(self, gamora, zoo_graphs,
                                                  sequential_memo):
        """Budget below every standalone estimate: one circuit per shard."""
        # Budgets for the service come from the deployment kernel's pricing
        # (float32) — the estimator the service itself plans with.
        kernel = gamora.inference_kernel()
        standalone = [estimate_batch_memory(kernel, [g]) for g in zoo_graphs]
        service = ReasoningService(gamora, result_cache_size=0,
                                   max_shard_bytes=min(standalone) - 1)
        spec_ids = list(range(len(ZOO)))
        batch = service.reason_many([ZOO[i]() for i in spec_ids])
        assert batch.stats.num_shards == len(ZOO)
        assert batch.stats.oversize_shards == len(ZOO)
        for spec_id, outcome in zip(spec_ids, batch):
            assert_outcome_equal(outcome, sequential_memo(spec_id))

    def test_shard_boundary_groups_match_sequential(self, gamora, zoo_graphs,
                                                    sequential_memo):
        """A budget that splits the batch mid-way (the boundary case)."""
        kernel = gamora.inference_kernel()
        standalone = [estimate_batch_memory(kernel, [g]) for g in zoo_graphs]
        budget = max(standalone) + min(standalone) // 2
        service = ReasoningService(gamora, result_cache_size=0,
                                   max_shard_bytes=budget)
        spec_ids = [0, 1, 2, 3, 4, 1, 0]  # includes within-batch duplicates
        batch = service.reason_many([ZOO[i]() for i in spec_ids])
        assert 1 < batch.stats.num_shards < len(ZOO)
        assert batch.stats.peak_shard_bytes <= budget
        for spec_id, outcome in zip(spec_ids, batch):
            assert_outcome_equal(outcome, sequential_memo(spec_id))

    def test_stats_accumulate_across_shards(self, gamora, zoo_graphs):
        kernel = gamora.inference_kernel()
        standalone = [estimate_batch_memory(kernel, [g]) for g in zoo_graphs]
        service = ReasoningService(gamora, result_cache_size=0,
                                   max_shard_bytes=max(standalone) + 1)
        batch = service.reason_many([spec() for spec in ZOO])
        stats = batch.stats
        assert stats.num_shards > 1
        # Totals are summed over shards, not overwritten by the last one.
        assert stats.num_nodes == sum(g.num_nodes for g in zoo_graphs)
        assert stats.num_edges == sum(g.num_edges for g in zoo_graphs)
        assert stats.inference_seconds > 0
        assert stats.postprocess_seconds > 0
        assert f"shards={stats.num_shards}" in stats.summary()

    def test_gamora_reason_many_passes_knobs_through(self, gamora,
                                                     sequential_memo):
        gamora._service = None  # fresh caches for a cold call
        batch = gamora.reason_many(
            [ZOO[0](), ZOO[1]()], max_shard_bytes=1, postprocess_workers=0
        )
        assert batch.stats.num_shards == 2
        assert_outcome_equal(batch[0], sequential_memo(0))
        assert_outcome_equal(batch[1], sequential_memo(1))
        gamora._service = None  # do not leak the tiny budget to other tests

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(spec_ids=st.lists(SPEC_IDS, min_size=1, max_size=4),
           budget_div=st.sampled_from([0, 1, 2, 8]))
    def test_property_sharded_matches_unsharded(self, spec_ids, budget_div,
                                                gamora, zoo_graphs,
                                                sequential_memo):
        """Any batch x any budget: identical to sequential reason()."""
        total = estimate_batch_memory(gamora.inference_kernel(), zoo_graphs)
        budget = None if budget_div == 0 else max(total // budget_div, 1)
        service = ReasoningService(gamora, result_cache_size=0,
                                   max_shard_bytes=budget)
        batch = service.reason_many([ZOO[i]() for i in spec_ids])
        for spec_id, outcome in zip(spec_ids, batch):
            assert_outcome_equal(outcome, sequential_memo(spec_id))


class TestParallelPostprocess:
    def test_workers_match_sequential(self, gamora, sequential_memo):
        service = ReasoningService(gamora, result_cache_size=0,
                                   postprocess_workers=2)
        spec_ids = [0, 3, 4, 0]
        batch = service.reason_many([ZOO[i]() for i in spec_ids])
        assert batch.stats.postprocess_fallbacks == 0
        for spec_id, outcome in zip(spec_ids, batch):
            assert_outcome_equal(outcome, sequential_memo(spec_id))
        # Cache disabled: labels stay writable, like sequential reason().
        assert batch[0].labels["root"].flags.writeable

    def test_workers_with_sharding_match_sequential(self, gamora, zoo_graphs,
                                                    sequential_memo):
        kernel = gamora.inference_kernel()
        standalone = [estimate_batch_memory(kernel, [g]) for g in zoo_graphs]
        service = ReasoningService(
            gamora, result_cache_size=0,
            max_shard_bytes=max(standalone) + 1, postprocess_workers=2,
        )
        spec_ids = [0, 1, 2, 3, 4]
        batch = service.reason_many([ZOO[i]() for i in spec_ids])
        assert batch.stats.num_shards > 1
        for spec_id, outcome in zip(spec_ids, batch):
            assert_outcome_equal(outcome, sequential_memo(spec_id))

    def test_worker_crash_falls_back_in_process(self, gamora, sequential_memo,
                                                monkeypatch):
        """Injected worker faults: every circuit is recovered in-process."""
        monkeypatch.setenv(FAULT_ENV, "1")
        service = ReasoningService(gamora, result_cache_size=0,
                                   postprocess_workers=2)
        spec_ids = [0, 3]
        batch = service.reason_many([ZOO[i]() for i in spec_ids])
        assert batch.stats.postprocess_fallbacks == len(spec_ids)
        for spec_id, outcome in zip(spec_ids, batch):
            assert_outcome_equal(outcome, sequential_memo(spec_id))

    def test_worker_hard_crash_falls_back_in_process(self, gamora,
                                                     sequential_memo,
                                                     monkeypatch):
        """A worker that dies outright (simulated OOM-kill) must not hang:
        the broken executor surfaces the loss and every circuit is
        recovered in-process."""
        monkeypatch.setenv(FAULT_ENV, "exit")
        service = ReasoningService(gamora, result_cache_size=0,
                                   postprocess_workers=2)
        spec_ids = [0, 3]
        batch = service.reason_many([ZOO[i]() for i in spec_ids])
        assert batch.stats.postprocess_fallbacks == len(spec_ids)
        for spec_id, outcome in zip(spec_ids, batch):
            assert_outcome_equal(outcome, sequential_memo(spec_id))

    def test_fork_unavailable_degrades_to_in_process(self, gamora,
                                                     sequential_memo,
                                                     monkeypatch):
        monkeypatch.setattr("repro.serve.workers.fork_available", lambda: False)
        service = ReasoningService(gamora, result_cache_size=0,
                                   postprocess_workers=4)
        batch = service.reason_many([ZOO[0]()])
        assert batch.stats.postprocess_workers == 0  # degraded, not failed
        assert_outcome_equal(batch[0], sequential_memo(0))

    def test_pool_lifecycle(self):
        pool = PostprocessPool(0)
        assert not pool.parallel and pool.workers == 0
        with PostprocessPool(1) as live:
            assert live.parallel == (live.workers > 0)  # False only without fork
        assert not live.parallel  # closed on exit


class TestPersistentResultCache:
    def test_rejects_other_models(self, gamora, tmp_path):
        """A cache dir written under one model must never serve another."""
        service = ReasoningService(gamora)
        service.reason_many([ZOO[0]()])
        spill = tmp_path / "results"
        assert service.save_result_cache(spill) == 1
        # Same model: a fresh service reloads and serves hits.
        twin = ReasoningService(gamora)
        assert twin.load_result_cache(spill) == 1
        reloaded = twin.reason_many([ZOO[0]()])
        assert reloaded.stats.result_hits == 1
        # Disk-reloaded payloads re-acquire the frozen invariant for the
        # array-core tree, not just the labels (pickling drops the flag).
        with pytest.raises(ValueError):
            reloaded[0].extraction.tree.arrays().sum_var[0] = 5
        # Different weights (fresh untrained net): refuse to load...
        other = ReasoningService(Gamora(model="shallow"))
        assert other.load_result_cache(spill) == 0
        assert len(other.result_cache) == 0
        # ...and saving under the other model purges the stale entries.
        other.reason_many([ZOO[1]()])
        assert other.save_result_cache(spill) == 1
        assert twin.load_result_cache(spill) == 0  # stamp changed hands

    def test_never_touches_foreign_directories(self, gamora, tmp_path):
        """Unstamped dirs holding npz files are refused, not cleaned out."""
        service = ReasoningService(gamora)
        service.reason_many([ZOO[0]()])
        # Stamp-less entries (written via the raw cache API) never load...
        bare = tmp_path / "bare"
        service.result_cache.to_dir(bare)
        assert ReasoningService(gamora).load_result_cache(bare) == 0
        # ...and saving into a dir with foreign npz data refuses loudly
        # instead of deleting files the service never wrote.
        foreign = tmp_path / "datasets"
        foreign.mkdir()
        keep = foreign / "irreplaceable.npz"
        keep.write_bytes(b"user data, not ours")
        with pytest.raises(OSError, match="refusing"):
            service.save_result_cache(foreign)
        assert keep.read_bytes() == b"user data, not ours"
        # A user's own file that merely *shares the marker name* does not
        # make the dir service-owned: content is checked, nothing deleted.
        noted = tmp_path / "my-notes"
        noted.mkdir()
        (noted / "MODEL.tag").write_text("my experiment notes\n")
        (noted / "precious.npz").write_bytes(b"experiment data")
        with pytest.raises(OSError, match="refusing"):
            service.save_result_cache(noted)
        assert (noted / "precious.npz").read_bytes() == b"experiment data"
        assert (noted / "MODEL.tag").read_text() == "my experiment notes\n"
        assert ReasoningService.validate_cache_dir(noted) is not None


class TestPersistentGraphCache:
    def test_round_trip_restores_hit_rate(self, gamora, tmp_path):
        service = ReasoningService(gamora)
        service.reason_many([ZOO[0](), ZOO[1]()])
        spill = tmp_path / "graphs"
        assert service.save_graph_cache(spill) == 2
        # A fresh service preloads the encodings: the batch re-encodes
        # nothing (graph hits for every unique circuit).
        twin = ReasoningService(gamora)
        assert twin.load_graph_cache(spill) == 2
        stats = twin.reason_many([ZOO[0](), ZOO[1]()]).stats
        assert stats.graph_hits == 2
        assert stats.graph_misses == 0
        # Repeated saves are incremental: nothing new to write.
        assert service.save_graph_cache(spill) == 0

    def test_loaded_encodings_serve_identical_outcomes(self, gamora,
                                                       sequential_memo,
                                                       tmp_path):
        service = ReasoningService(gamora)
        service.reason_many([ZOO[2]()])
        spill = tmp_path / "graphs"
        service.save_graph_cache(spill)
        twin = ReasoningService(gamora)
        twin.load_graph_cache(spill)
        assert_outcome_equal(twin.reason_many([ZOO[2]()])[0],
                             sequential_memo(2))

    def test_rejects_other_encodings(self, gamora, tmp_path):
        """Encodings depend on feature_mode/direction — a spill written
        under a different encoding must load nothing; a retrained model
        with the same encoding must still load it."""
        service = ReasoningService(gamora)
        service.reason_many([ZOO[0]()])
        spill = tmp_path / "graphs"
        assert service.save_graph_cache(spill) == 1
        other = ReasoningService(
            Gamora(model="shallow", feature_mode="structural"))
        assert other.load_graph_cache(spill) == 0
        assert len(other.graph_cache) == 0
        # Same encoding, different (untrained) weights: graphs stay valid.
        retrained = ReasoningService(Gamora(model="shallow"))
        assert retrained.load_graph_cache(spill) == 1

    def test_never_touches_foreign_directories(self, gamora, tmp_path):
        service = ReasoningService(gamora)
        service.reason_many([ZOO[0]()])
        foreign = tmp_path / "datasets"
        foreign.mkdir()
        keep = foreign / "irreplaceable.npz"
        keep.write_bytes(b"user data, not ours")
        with pytest.raises(OSError, match="refusing"):
            service.save_graph_cache(foreign)
        assert keep.read_bytes() == b"user data, not ours"
        assert ReasoningService.validate_graph_cache_dir(foreign) is not None


class TestAdaptiveWorkerSizing:
    def test_explicit_request_wins(self):
        assert resolve_workers(3, num_payloads=1, total_ands=1) == 3
        assert resolve_workers(0, num_payloads=64, total_ands=10**9) == 0
        assert resolve_workers(-2) == 0

    def test_auto_stays_in_process_for_tiny_workloads(self, monkeypatch):
        monkeypatch.setattr("repro.serve.workers.os.cpu_count", lambda: 8)
        # Single unique circuit: nothing to overlap.
        assert resolve_workers(None, num_payloads=1, total_ands=10**9) == 0
        # Tiny total workload: fork overhead dominates.
        assert resolve_workers(None, num_payloads=4, total_ands=100) == 0

    def test_auto_scales_with_cpus_and_payloads(self, monkeypatch):
        monkeypatch.setattr("repro.serve.workers.os.cpu_count", lambda: 8)
        if not fork_available():
            pytest.skip("no fork on this platform")
        big = AUTO_MIN_TOTAL_ANDS
        # One worker per circuit, capped at cpu_count - 1.
        assert resolve_workers(None, num_payloads=3, total_ands=big) == 3
        assert resolve_workers(None, num_payloads=64, total_ands=big) == 7

    def test_auto_zero_without_fork_or_on_single_core(self, monkeypatch):
        monkeypatch.setattr("repro.serve.workers.fork_available", lambda: False)
        assert resolve_workers(None, num_payloads=8,
                               total_ands=AUTO_MIN_TOTAL_ANDS) == 0
        monkeypatch.setattr("repro.serve.workers.fork_available", lambda: True)
        monkeypatch.setattr("repro.serve.workers.os.cpu_count", lambda: 1)
        assert resolve_workers(None, num_payloads=8,
                               total_ands=AUTO_MIN_TOTAL_ANDS) == 0

    def test_service_default_autosizes_small_batches_in_process(self, gamora,
                                                                sequential_memo):
        """The zoo circuits are tiny, so the default (None) resolves to 0
        workers — results still identical to sequential."""
        service = ReasoningService(gamora, result_cache_size=0)
        assert service.postprocess_workers is None
        batch = service.reason_many([ZOO[0](), ZOO[1]()])
        assert batch.stats.postprocess_workers == 0
        assert_outcome_equal(batch[0], sequential_memo(0))
        assert_outcome_equal(batch[1], sequential_memo(1))

    def test_results_cached_through_parallel_path(self, gamora):
        service = ReasoningService(gamora, postprocess_workers=2)
        cold = service.reason_many([ZOO[0](), ZOO[1]()])
        assert cold.stats.result_hits == 0
        warm = service.reason_many([ZOO[1](), ZOO[0]()])
        assert warm.stats.result_hits == 2
        assert_outcome_equal(warm[0], cold[1])
        assert_outcome_equal(warm[1], cold[0])
