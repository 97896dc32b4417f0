"""Batched-vs-sequential equivalence properties of the reasoning service.

The service's safety invariant: for any mix of circuits,
``reason_many`` must produce labels and extractions *identical* to calling
``reason`` per circuit — whether the answer came from the block-diagonal
batched forward pass, within-batch dedup, or the structural-hash LRUs.
Property tests draw random batches from a generator zoo (adders,
multipliers, datapath blocks) and check the invariant end to end.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Gamora
from repro.generators import (
    booth_multiplier,
    csa_multiplier,
    dot_product,
    multi_operand_adder,
    multiply_accumulate,
    squarer,
)
from repro.learn import (
    TrainConfig,
    batch_graphs,
    estimate_batch_memory,
    unbatch_predictions,
)
from repro.serve import ReasoningService

# Small circuits keep per-example reasoning fast; the mix intentionally
# spans CSA/Booth multipliers, adder trees, and datapath blocks.
ZOO = [
    lambda: csa_multiplier(3),
    lambda: csa_multiplier(4),
    lambda: csa_multiplier(5),
    lambda: booth_multiplier(3),
    lambda: booth_multiplier(4),
    lambda: multi_operand_adder(4, 3),
    lambda: dot_product(3, 2),
    lambda: squarer(4),
    lambda: multiply_accumulate(3),
]
SPEC_IDS = st.integers(0, len(ZOO) - 1)


def tree_key(tree):
    """Canonical comparable form of an extracted adder tree."""
    return sorted(
        (adder.kind, adder.sum_var, adder.carry_var, tuple(sorted(adder.leaves)))
        for adder in tree.adders
    )


def assert_outcome_equal(batched, sequential):
    """Labels and extraction of a batched outcome match the sequential one."""
    assert set(batched.labels) == set(sequential.labels)
    for task in sequential.labels:
        np.testing.assert_array_equal(batched.labels[task], sequential.labels[task])
    assert tree_key(batched.tree) == tree_key(sequential.tree)
    assert batched.extraction.rejected_xor == sequential.extraction.rejected_xor
    assert batched.extraction.rejected_maj == sequential.extraction.rejected_maj
    assert batched.extraction.corrected_vars == sequential.extraction.corrected_vars


@pytest.fixture(scope="module")
def gamora():
    model = Gamora(model="shallow", train_config=TrainConfig(epochs=80))
    model.fit([csa_multiplier(6)])
    return model


@pytest.fixture(scope="module")
def service(gamora):
    return ReasoningService(gamora)


@pytest.fixture(scope="module")
def sequential_memo(gamora):
    """Per-spec sequential reason() outcomes (deterministic per structure)."""
    memo = {}

    def lookup(spec_id):
        if spec_id not in memo:
            memo[spec_id] = gamora.reason(ZOO[spec_id]())
        return memo[spec_id]

    return lookup


class TestBatchedEquivalence:
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(spec_ids=st.lists(SPEC_IDS, min_size=1, max_size=4))
    def test_reason_many_matches_sequential(self, spec_ids, service,
                                            sequential_memo):
        """Random generator mixes: batched == sequential, per circuit."""
        circuits = [ZOO[spec_id]() for spec_id in spec_ids]
        batch = service.reason_many(circuits)
        assert len(batch) == len(circuits)
        for spec_id, outcome in zip(spec_ids, batch):
            assert_outcome_equal(outcome, sequential_memo(spec_id))

    def test_reason_many_streams_and_dedups_like_predict(self, gamora):
        """Duplicates and a streamed circuit under a service budget: every
        outcome's labels equal per-circuit predict and own their arrays."""
        circuits = [csa_multiplier(5), booth_multiplier(3), csa_multiplier(5)]
        kernel = gamora.inference_kernel()
        sizes = [estimate_batch_memory(kernel, [gamora.prepare(c, False)])
                 for c in circuits]
        service = ReasoningService(
            gamora, result_cache_size=0, max_shard_bytes=max(sizes) - 1,
            max_window_bytes=max(sizes) // 8,
        )
        assert service.plan(circuits).num_streamed == 1
        batch = service.reason_many(circuits)
        assert len(batch) == len(circuits)
        assert batch.stats.streamed_graphs == 1
        for circuit, outcome in zip(circuits, batch):
            solo = gamora.predict(circuit)
            for task in solo:
                np.testing.assert_array_equal(outcome.labels[task], solo[task])
        assert batch[0].labels["root"] is not batch[2].labels["root"]

    def test_empty_batch(self, gamora):
        batch = gamora.reason_many([])
        assert len(batch) == 0
        assert list(batch) == []
        assert batch.stats.batch_size == 0

    def test_single_item_matches_reason(self, gamora, service):
        circuit = csa_multiplier(4)
        batch = service.reason_many([circuit])
        assert len(batch) == 1
        assert_outcome_equal(batch[0], gamora.reason(csa_multiplier(4)))

    def test_duplicates_deduplicated_and_identical(self, gamora):
        service = ReasoningService(gamora)
        circuits = [csa_multiplier(4), booth_multiplier(3), csa_multiplier(4)]
        batch = service.reason_many(circuits)
        assert batch.stats.batch_size == 3
        assert batch.stats.unique_circuits == 2
        assert_outcome_equal(batch[0], batch[2])
        assert_outcome_equal(batch[0], gamora.reason(csa_multiplier(4)))


class TestServiceCaching:
    def test_result_cache_round_trip_is_transparent(self, gamora):
        service = ReasoningService(gamora)
        circuits = [csa_multiplier(4), squarer(4)]
        first = service.reason_many(circuits)
        second = service.reason_many([squarer(4), csa_multiplier(4)])
        assert second.stats.result_hits == 2
        assert second.stats.unique_circuits == 0
        assert_outcome_equal(second[0], first[1])
        assert_outcome_equal(second[1], first[0])

    def test_cached_labels_are_frozen(self, gamora):
        """Outcome labels alias the result cache: mutation must raise, not
        silently poison later cache hits."""
        service = ReasoningService(gamora)
        outcome = service.reason_many([csa_multiplier(4)])[0]
        with pytest.raises(ValueError):
            outcome.labels["root"][0] = 99

    def test_cached_extraction_arrays_are_frozen(self, gamora):
        """The v3 payload's array-core tree aliases the cache exactly like
        the labels do: its columns must reject mutation too."""
        service = ReasoningService(gamora)
        outcome = service.reason_many([csa_multiplier(4)])[0]
        core = outcome.extraction.tree.arrays()
        with pytest.raises(ValueError):
            core.sum_var[0] = 5
        with pytest.raises(ValueError):
            core.leaves[0, 0] = 5

    def test_labels_writable_when_result_cache_disabled(self, gamora):
        """Writability parity with the sequential path (regression).

        With ``result_cache_size=0`` nothing aliases a cache entry, so
        batched callers must get writable label arrays exactly like
        ``Gamora.reason`` returns — the old code froze unconditionally.
        """
        service = ReasoningService(gamora, result_cache_size=0)
        batched = service.reason_many([csa_multiplier(4)])[0]
        sequential = gamora.reason(csa_multiplier(4))
        for task in sequential.labels:
            assert sequential.labels[task].flags.writeable
            assert batched.labels[task].flags.writeable == \
                sequential.labels[task].flags.writeable
        batched.labels["root"][0] = 99  # must not raise

    def test_duplicate_outcomes_do_not_alias_when_cache_disabled(self, gamora):
        """Writable labels of within-batch duplicates must be independent:
        mutating one outcome must not silently change its twin."""
        service = ReasoningService(gamora, result_cache_size=0)
        batch = service.reason_many([csa_multiplier(4), csa_multiplier(4)])
        first, second = batch[0], batch[1]
        original = second.labels["root"][0]
        first.labels["root"][0] = original + 7
        assert second.labels["root"][0] == original
        # The extraction objects must be independent too.
        num_adders = len(second.tree.adders)
        first.tree.adders.clear()
        assert len(second.tree.adders) == num_adders

    def test_lsb_outputs_ignored_when_correction_off(self, gamora):
        """``lsb_outputs`` has no effect with ``correct_lsb=False``; the
        result-cache key is normalized so such calls share one entry."""
        service = ReasoningService(gamora)
        circuit = csa_multiplier(4)
        first = service.reason_many([circuit], correct_lsb=False, lsb_outputs=4)
        second = service.reason_many([circuit], correct_lsb=False, lsb_outputs=99)
        assert second.stats.result_hits == 1
        assert second.stats.unique_circuits == 0
        assert_outcome_equal(second[0], first[0])
        # With correction on, the knob is semantic again and must miss.
        changed = service.reason_many([circuit], correct_lsb=True, lsb_outputs=2)
        assert changed.stats.result_hits == 0

    def test_option_changes_bypass_result_cache(self, gamora):
        service = ReasoningService(gamora)
        circuit = csa_multiplier(4)
        service.reason_many([circuit])
        changed = service.reason_many([circuit], correct_lsb=False)
        assert changed.stats.result_hits == 0
        assert_outcome_equal(
            changed[0], gamora.reason(csa_multiplier(4), correct_lsb=False)
        )

    def test_disabled_caches_still_equivalent(self, gamora):
        service = ReasoningService(gamora, graph_cache_size=0,
                                   result_cache_size=0)
        circuit = booth_multiplier(3)
        first = service.reason_many([circuit])
        second = service.reason_many([circuit])
        assert second.stats.result_hits == 0
        assert_outcome_equal(first[0], second[0])

    def test_fit_drops_stale_service(self):
        gamora = Gamora(model="shallow", train_config=TrainConfig(epochs=5))
        gamora.fit([csa_multiplier(4)])
        gamora.reason_many([csa_multiplier(4)])
        stale = gamora._service
        assert stale is not None
        gamora.fit([csa_multiplier(4)], epochs=5)
        assert gamora._service is None  # retraining invalidates cached results
        fresh = gamora.reason_many([csa_multiplier(4)])
        assert fresh.stats.result_hits == 0

    def test_stats_accounting(self, gamora):
        service = ReasoningService(gamora)
        batch = service.reason_many([csa_multiplier(4), csa_multiplier(5)])
        stats = batch.stats
        assert stats.batch_size == 2
        assert stats.unique_circuits == 2
        assert stats.num_nodes == sum(
            service.encode(c).num_nodes
            for c in (csa_multiplier(4), csa_multiplier(5))
        )
        assert stats.inference_seconds > 0
        assert stats.postprocess_seconds > 0
        assert stats.total_seconds >= (
            stats.inference_seconds + stats.postprocess_seconds
        )
        assert "batch=2" in stats.summary()


class TestUnbatchPredictions:
    def test_round_trip(self, gamora):
        graphs = [
            gamora.prepare(c, with_labels=False)
            for c in (csa_multiplier(3), csa_multiplier(4))
        ]
        merged = batch_graphs(graphs)
        predictions = gamora.inference_kernel().predict(merged.features,
                                                        merged.adjacency)
        split = unbatch_predictions(predictions, merged.sizes)
        assert len(split) == 2
        for graph, predictions in zip(graphs, split):
            for task, array in predictions.items():
                assert array.shape[0] == graph.num_nodes

    def test_size_mismatch_rejected(self):
        predictions = {"root": np.zeros(5, dtype=np.int64)}
        with pytest.raises(ValueError):
            unbatch_predictions(predictions, [2, 2])

    def test_empty_graph_list(self):
        assert unbatch_predictions({}, []) == []
