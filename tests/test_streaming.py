"""Streaming level-windowed inference: bit-identity and memory bounds.

The streamed pass must be *bit-identical* to the full-graph pass — same
logits, same labels — at every window budget, on every circuit family.
These tests pin that invariant over the generator fixtures, random AIGs,
degenerate graphs, and the serving integration, plus the analytic window
cost model and the array-native transitive-fanin satellite.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.aig.graph import AIG
from repro.generators import (
    booth_multiplier,
    csa_multiplier,
    multi_operand_adder,
    ripple_carry_adder,
)
from repro.learn import (
    TrainConfig,
    build_graph_data,
    compile_inference,
    estimate_inference_memory,
    estimate_window_memory,
    halo_blocks,
    shallow_config,
    sub_adjacency,
    train_model,
)
from repro.learn.model import GamoraNet, ModelConfig
from repro.utils.random_circuits import random_aig
from tests.oracles import logits_streamed


def ripple_adder_aig(width: int) -> AIG:
    aig = AIG(name=f"ripple{width}")
    a_bits = aig.add_inputs(width, prefix="a")
    b_bits = aig.add_inputs(width, prefix="b")
    sum_bits, carry = ripple_carry_adder(aig, a_bits, b_bits)
    for index, bit in enumerate(sum_bits):
        aig.add_output(bit, f"s{index}")
    aig.add_output(carry, "cout")
    return aig


@pytest.fixture(scope="module")
def trained():
    """A small trained model shared by every bit-identity test."""
    data = build_graph_data(csa_multiplier(5).aig)
    model, _history = train_model(data, shallow_config(), TrainConfig(epochs=20))
    return model


@pytest.fixture(scope="module")
def kernel(trained):
    return compile_inference(trained)


def full_budget(kernel, data) -> int:
    return estimate_inference_memory(kernel, data.num_nodes, data.num_edges)


def assert_bit_identical(kernel, data, plan) -> None:
    full_logits = kernel.logits(data.features, data.adjacency)
    streamed_logits = logits_streamed(kernel, data.features, data.adjacency, plan)
    for task in full_logits:
        np.testing.assert_array_equal(
            full_logits[task], streamed_logits[task],
            err_msg=f"logits diverged for task {task!r}",
        )
    full_labels = kernel.predict(data.features, data.adjacency)
    streamed_labels = kernel.predict_streamed(data.features, data.adjacency, plan)
    for task in full_labels:
        np.testing.assert_array_equal(
            full_labels[task], streamed_labels[task],
            err_msg=f"labels diverged for task {task!r}",
        )


def assert_plan_covers(plan, num_nodes: int) -> None:
    covered = np.sort(np.concatenate([w.targets for w in plan.windows]))
    np.testing.assert_array_equal(covered, np.arange(num_nodes))


class TestBitIdentity:
    """Streamed == full, to the bit, across circuit families and budgets."""

    @pytest.mark.parametrize("circuit", [
        pytest.param(lambda: ripple_adder_aig(10), id="ripple10"),
        pytest.param(lambda: csa_multiplier(7).aig, id="csa7"),
        pytest.param(lambda: booth_multiplier(6).aig, id="booth6"),
        pytest.param(lambda: multi_operand_adder(4, 5).aig, id="compressor4x5"),
    ])
    @pytest.mark.parametrize("fraction", [0.05, 0.3])
    def test_generator_fixtures(self, kernel, circuit, fraction):
        data = build_graph_data(circuit(), with_labels=False)
        budget = max(1, int(full_budget(kernel, data) * fraction))
        plan = data.window_plan(budget, kernel)
        assert plan.num_windows > 1, "budget did not force multiple windows"
        assert_plan_covers(plan, data.num_nodes)
        assert_bit_identical(kernel, data, plan)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_aigs(self, kernel, seed):
        aig = random_aig(num_inputs=6, num_ands=60, num_outputs=4, seed=seed)
        data = build_graph_data(aig, with_labels=False)
        budget = max(1, full_budget(kernel, data) // 8)
        plan = data.window_plan(budget, kernel)
        assert_plan_covers(plan, data.num_nodes)
        assert_bit_identical(kernel, data, plan)

    def test_mid_level_window_boundaries(self, kernel):
        """A tiny budget forces boundaries inside topological levels."""
        data = build_graph_data(csa_multiplier(6).aig, with_labels=False)
        plan = data.window_plan(max(1, full_budget(kernel, data) // 64), kernel)
        levels = data.node_levels()
        boundary_levels = [int(levels[w.targets[-1]]) for w in plan.windows[:-1]]
        next_levels = [int(levels[w.targets[0]]) for w in plan.windows[1:]]
        assert any(b == n for b, n in zip(boundary_levels, next_levels)), \
            "no window boundary landed mid-level; tighten the budget"
        assert_bit_identical(kernel, data, plan)

    def test_single_window_plan_is_the_full_pass(self, kernel):
        data = build_graph_data(csa_multiplier(5).aig, with_labels=False)
        plan = data.window_plan(full_budget(kernel, data) * 16, kernel)
        assert plan.num_windows == 1
        assert_bit_identical(kernel, data, plan)

    def test_full_window_plan_skips_halo_blocks(self, kernel, monkeypatch):
        """The one-window plan runs the full-graph loop: no halo gathers."""
        import repro.learn.data as data_module

        calls = []
        original = data_module.halo_blocks

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(data_module, "halo_blocks", counting)
        data = build_graph_data(csa_multiplier(6).aig, with_labels=False)
        plan = data.full_window_plan(kernel)
        assert plan.peak_window_bytes == full_budget(kernel, data)
        assert_bit_identical(kernel, data, plan)
        assert calls == []

    def test_degenerate_one_level_graph(self, kernel):
        """All-PI circuit: every node is level 0 and there are no edges."""
        aig = AIG(name="wires")
        bits = aig.add_inputs(8)
        for bit in bits:
            aig.add_output(bit)
        data = build_graph_data(aig, with_labels=False)
        assert data.num_edges == 0
        plan = data.window_plan(max(1, full_budget(kernel, data) // 4), kernel)
        assert_plan_covers(plan, data.num_nodes)
        assert_bit_identical(kernel, data, plan)

    def test_deeper_model_halo(self):
        """Halo depth follows the conv stack (2+ layers beyond shallow)."""
        config = ModelConfig(num_layers=6, hidden=16)
        model = GamoraNet(config)
        kernel = compile_inference(model)
        data = build_graph_data(csa_multiplier(6).aig, with_labels=False)
        plan = data.window_plan(max(1, full_budget(kernel, data) // 8), kernel)
        assert plan.num_hops == 6
        assert_bit_identical(kernel, data, plan)

    def test_single_task_streamed(self):
        config = ModelConfig(num_layers=3, hidden=12, single_task=True)
        kernel = compile_inference(GamoraNet(config))
        data = build_graph_data(csa_multiplier(5).aig, with_labels=False)
        plan = data.window_plan(max(1, full_budget(kernel, data) // 8), kernel)
        assert_bit_identical(kernel, data, plan)


class TestWindowPlan:
    def test_no_single_target_window(self, kernel):
        """Single-row windows would hit the unstable GEMV path."""
        for width in (5, 6, 7):
            data = build_graph_data(csa_multiplier(width).aig, with_labels=False)
            for divisor in (4, 16, 64):
                plan = data.window_plan(
                    max(1, full_budget(kernel, data) // divisor), kernel
                )
                assert min(w.num_targets for w in plan.windows) >= 2
                assert_plan_covers(plan, data.num_nodes)

    def test_budget_respected_or_flagged(self, kernel):
        data = build_graph_data(csa_multiplier(10).aig, with_labels=False)
        budget = full_budget(kernel, data) // 8
        plan = data.window_plan(budget, kernel)
        assert plan.within_budget
        assert plan.peak_window_bytes <= budget
        # An absurdly small budget cannot be honored: the plan degrades to
        # minimum windows and says so instead of refusing the circuit.
        tiny = data.window_plan(1, kernel)
        assert not tiny.within_budget
        assert_plan_covers(tiny, data.num_nodes)

    def test_levels_cached_on_graph_data(self):
        gen = csa_multiplier(5)
        data = build_graph_data(gen.aig, with_labels=False)
        np.testing.assert_array_equal(data.levels, gen.aig.levels_array())

    def test_plan_rejects_bad_budget(self, kernel):
        data = build_graph_data(csa_multiplier(4).aig, with_labels=False)
        with pytest.raises(ValueError, match="positive"):
            data.window_plan(0, kernel)

    def test_kernel_rejects_mismatched_plan(self, kernel):
        data = build_graph_data(csa_multiplier(5).aig, with_labels=False)
        other = build_graph_data(csa_multiplier(6).aig, with_labels=False)
        plan = data.window_plan(full_budget(kernel, data), kernel)
        with pytest.raises(ValueError, match="nodes"):
            kernel.predict_streamed(other.features, other.adjacency, plan)
        deep = compile_inference(GamoraNet(ModelConfig(num_layers=2, hidden=8)))
        with pytest.raises(ValueError, match="conv layers"):
            deep.predict_streamed(data.features, data.adjacency, plan)

    def test_summary_mentions_budget(self, kernel):
        data = build_graph_data(csa_multiplier(5).aig, with_labels=False)
        plan = data.window_plan(full_budget(kernel, data) // 4, kernel)
        text = plan.summary()
        assert "window" in text and "MiB" in text


class TestHaloBlocks:
    def test_blocks_are_nested_and_sorted(self, kernel):
        data = build_graph_data(csa_multiplier(6).aig, with_labels=False)
        targets = np.arange(40, 60, dtype=np.int64)
        blocks = halo_blocks(data.adjacency, targets, 3)
        assert len(blocks) == 4
        np.testing.assert_array_equal(blocks[-1], targets)
        for outer, inner in zip(blocks, blocks[1:]):
            assert np.all(np.diff(outer) > 0)
            # inner ⊆ outer: every row a layer writes is readable below.
            assert np.all(np.isin(inner, outer))

    def test_halo_contains_receptive_field(self):
        """B_0 must hold the full K-hop fan-in cone of the targets."""
        data = build_graph_data(booth_multiplier(5).aig, with_labels=False)
        targets = np.array([data.num_nodes - 2, data.num_nodes - 1])
        hops = 2
        blocks = halo_blocks(data.adjacency, targets, hops)
        reach = set(targets.tolist())
        for _ in range(hops):
            grown = set(reach)
            for node in reach:
                row = data.adjacency.indices[
                    data.adjacency.indptr[node]:data.adjacency.indptr[node + 1]
                ]
                grown.update(int(c) for c in row)
            reach = grown
        assert reach <= set(blocks[0].tolist())

    def test_sub_adjacency_matches_scipy_slice(self):
        data = build_graph_data(csa_multiplier(5).aig, with_labels=False)
        targets = np.arange(10, 20, dtype=np.int64)
        blocks = halo_blocks(data.adjacency, targets, 1)
        rows, cols = blocks[1], blocks[0]
        sub = sub_adjacency(data.adjacency, rows, cols)
        dense = data.adjacency[rows][:, cols].toarray()
        np.testing.assert_array_equal(sub.toarray(), dense)


class TestWindowCostModel:
    def test_monotone_in_window_size(self, kernel):
        hops = kernel.num_layers
        costs = [
            estimate_window_memory(
                kernel,
                [scale * (hops + 1 - j) for j in range(hops + 1)],
                [scale * 2 * (hops - j) for j in range(hops)],
            )
            for scale in (4, 8, 32, 128)
        ]
        assert costs == sorted(costs)
        assert costs[0] > 0

    def test_small_window_well_under_full_graph(self, kernel):
        data = build_graph_data(csa_multiplier(8).aig, with_labels=False)
        budget = full_budget(kernel, data) // 8
        plan = data.window_plan(budget, kernel)
        assert plan.peak_window_bytes < full_budget(kernel, data) // 4

    def test_validates_block_shapes(self, kernel):
        with pytest.raises(ValueError):
            estimate_window_memory(kernel, [10, 10], [5, 5, 5])

    def test_float32_kernel_priced_below_float64_net(self, trained, kernel):
        """The fast path must not be priced at training (float64) rates —
        that over-provisioned shards by ~2x."""
        nodes, edges = 10_000, 20_000
        fast = estimate_inference_memory(kernel, nodes, edges)
        slow = estimate_inference_memory(trained, nodes, edges)
        assert fast < slow
        assert fast < 0.66 * slow


class TestTransitiveFaninArray:
    """Satellite: the CSR reverse-reach sweep vs the Python-set walk."""

    @pytest.mark.parametrize("circuit", [
        pytest.param(lambda: csa_multiplier(8).aig, id="csa8"),
        pytest.param(lambda: booth_multiplier(6).aig, id="booth6"),
        pytest.param(lambda: ripple_adder_aig(12), id="ripple12"),
    ])
    def test_matches_set_walk(self, circuit):
        aig = circuit()
        cases = [
            [],
            [0],
            [aig.num_vars - 1],
            [lit >> 1 for lit in aig.outputs[:4]],
            [lit >> 1 for lit in aig.outputs],
        ]
        for roots in cases:
            expected = np.array(sorted(aig.transitive_fanin(roots)),
                                dtype=np.int64)
            got = aig.transitive_fanin_array(roots)
            np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_on_random_aigs(self, seed):
        aig = random_aig(num_inputs=5, num_ands=40, num_outputs=3, seed=seed)
        roots = [lit >> 1 for lit in aig.outputs]
        expected = np.array(sorted(aig.transitive_fanin(roots)), dtype=np.int64)
        np.testing.assert_array_equal(
            aig.transitive_fanin_array(roots), expected
        )

    def test_duplicate_and_pi_roots(self):
        aig = csa_multiplier(4).aig
        roots = [1, 1, 2, aig.num_vars - 1, aig.num_vars - 1]
        expected = np.array(sorted(aig.transitive_fanin(roots)), dtype=np.int64)
        np.testing.assert_array_equal(
            aig.transitive_fanin_array(roots), expected
        )


class TestServingIntegration:
    def test_oversize_circuit_streams_and_matches(self, trained):
        from repro.core.api import Gamora
        from repro.serve import ReasoningService

        gamora = Gamora(model="shallow")
        gamora.net = trained
        gamora._service = None
        gamora._kernel = None
        big = csa_multiplier(9)
        sequential = gamora.reason(big)
        data = gamora.prepare(big, with_labels=False)
        full = full_budget(gamora.inference_kernel(), data)
        service = ReasoningService(gamora, max_shard_bytes=full // 2,
                                   max_window_bytes=full // 8)
        result = service.reason_many([big])
        assert result.stats.streamed_graphs == 1
        assert result.stats.num_windows > 1
        assert 0 < result.stats.peak_window_bytes <= full // 8
        assert result[0].streamed
        for task in sequential.labels:
            np.testing.assert_array_equal(
                result[0].labels[task], sequential.labels[task]
            )
        assert "streamed=1" in result.stats.summary()

    def test_window_budget_only_affects_oversize(self, trained):
        from repro.core.api import Gamora
        from repro.serve import ReasoningService

        gamora = Gamora(model="shallow")
        gamora.net = trained
        gamora._service = None
        gamora._kernel = None
        small = csa_multiplier(4)
        result = ReasoningService(gamora, max_window_bytes=1).reason_many(
            [small])
        assert result.stats.streamed_graphs == 0
        assert not result[0].streamed
