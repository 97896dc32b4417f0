"""Windowed minibatch training: gradient equivalence and resumability.

The windowed trainer's contract is that the execution plan is a *memory*
knob, not a *semantics* knob: accumulate-all-then-step over any window
cover reproduces the full-batch gradient to float tolerance, the one-window
plan IS the full-batch loop (bit-identical), a budgeted run is
deterministic, and a checkpointed run resumed mid-way lands on exactly the
parameters of an uninterrupted one.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.generators import csa_multiplier
from repro.learn import (
    GamoraNet,
    ModelConfig,
    TrainConfig,
    build_graph_data,
    epoch_gradients,
    load_checkpoint,
    save_checkpoint,
    train_model,
)
from repro.learn.infer import estimate_training_memory
from repro.learn.trainer import _window_labels, _window_mask
from repro.nn.optim import Adam, SGD
from repro.utils.rng import seeded_rng

SMALL = ModelConfig(num_layers=4, hidden=16, shared=16, seed=3)


@pytest.fixture(scope="module")
def csa6_data():
    return build_graph_data(csa_multiplier(6).aig)


@pytest.fixture(scope="module")
def tight_budget(csa6_data):
    """A budget forcing a genuinely multi-window plan on csa6."""
    model = GamoraNet(SMALL)
    return estimate_training_memory(
        model, csa6_data.num_nodes, csa6_data.num_edges
    ) // 8


def _params(model) -> dict[str, np.ndarray]:
    return {name: p.data.copy() for name, p in model.named_parameters()}


class TestGradientEquivalence:
    def test_windowed_gradients_match_full_batch(self, csa6_data, tight_budget):
        """Accumulated window gradients == full-batch gradient, per parameter."""
        model = GamoraNet(SMALL)
        plan = csa6_data.window_plan(tight_budget, model, training=True)
        assert plan.num_windows > 1, "budget must force multiple windows"
        full = epoch_gradients(model, csa6_data, TrainConfig())
        windowed = epoch_gradients(
            model, csa6_data, TrainConfig(max_window_bytes=tight_budget),
            plan=plan,
        )
        assert full.keys() == windowed.keys()
        for name in full:
            np.testing.assert_allclose(
                windowed[name], full[name], rtol=1e-7, atol=1e-12,
                err_msg=f"gradient mismatch in {name}",
            )

    def test_trained_parameters_match_full_batch(self, csa6_data, tight_budget):
        """A few accumulate-all epochs track the full-batch trajectory.

        Adam normalizes by sqrt(v), which amplifies the per-epoch float
        noise, so the tolerance is looser than the single-epoch gradient
        check — but the trajectories must stay locked together.
        """
        config = dict(epochs=4)
        model_full, _ = train_model(csa6_data, SMALL, TrainConfig(**config))
        model_win, _ = train_model(
            csa6_data, SMALL,
            TrainConfig(max_window_bytes=tight_budget, **config),
        )
        for name, full in _params(model_full).items():
            np.testing.assert_allclose(
                _params(model_win)[name], full, rtol=1e-5, atol=1e-9,
                err_msg=f"parameter divergence in {name}",
            )

    def test_window_losses_sum_to_full_batch_loss(self, csa6_data, tight_budget):
        """Epoch loss reported by the windowed driver equals full-batch."""
        _, hist_full = train_model(
            csa6_data, SMALL, TrainConfig(epochs=1)
        )
        _, hist_win = train_model(
            csa6_data, SMALL,
            TrainConfig(epochs=1, max_window_bytes=tight_budget),
        )
        assert hist_win[-1]["loss"] == pytest.approx(
            hist_full[-1]["loss"], rel=1e-9
        )


class TestDegeneratePlan:
    def test_one_window_plan_is_bitwise_full_batch(self, csa6_data):
        """A huge budget yields one window and bit-identical training."""
        model = GamoraNet(SMALL)
        plan = csa6_data.window_plan(1 << 40, model, training=True)
        assert plan.num_windows == 1
        config = dict(epochs=3)
        model_none, _ = train_model(csa6_data, SMALL, TrainConfig(**config))
        model_huge, _ = train_model(
            csa6_data, SMALL, TrainConfig(max_window_bytes=1 << 40, **config)
        )
        for name, reference in _params(model_none).items():
            assert np.array_equal(_params(model_huge)[name], reference), name

    def test_single_window_slices_graph_supervision(self, csa6_data):
        """The one window's labels and mask are the whole graph's."""
        model = GamoraNet(SMALL)
        plan = csa6_data.window_plan(None, model, training=True)
        window = plan.windows[0]
        labels = _window_labels(csa6_data, window)
        assert labels.keys() == csa6_data.labels.keys()
        for task, sliced in labels.items():
            np.testing.assert_array_equal(sliced, csa6_data.labels[task])
        np.testing.assert_array_equal(_window_mask(csa6_data, window),
                                      csa6_data.node_mask())


class TestDeterminism:
    def test_budgeted_runs_are_bitwise_equal(self, csa6_data, tight_budget):
        """Two budgeted runs land on the same parameters, bit for bit."""
        config = dict(epochs=3, max_window_bytes=tight_budget)
        model_a, hist_a = train_model(csa6_data, SMALL, TrainConfig(**config))
        model_b, hist_b = train_model(csa6_data, SMALL, TrainConfig(**config))
        assert hist_a[-1]["num_windows"] > 1
        for name, reference in _params(model_a).items():
            assert np.array_equal(_params(model_b)[name], reference), name
        assert hist_a == hist_b


class TestCheckpointResume:
    def test_resume_is_bit_identical(self, csa6_data, tight_budget, tmp_path):
        """3 epochs + resume to 6 == 6 straight epochs, bit for bit."""
        ck = tmp_path / "run.ckpt"
        shared = dict(max_window_bytes=tight_budget)
        model_straight, hist_straight = train_model(
            csa6_data, SMALL, TrainConfig(epochs=6, **shared)
        )
        train_model(csa6_data, SMALL, TrainConfig(
            epochs=3, checkpoint_every=1, checkpoint_path=str(ck), **shared
        ))
        assert ck.exists()
        model_resumed, hist_resumed = train_model(csa6_data, SMALL, TrainConfig(
            epochs=6, checkpoint_every=1, checkpoint_path=str(ck), **shared
        ))
        for name, reference in _params(model_straight).items():
            assert np.array_equal(_params(model_resumed)[name], reference), name
        # The resumed history additionally carries the first leg's final
        # record (epoch 2 was that run's last epoch); the shared tail must
        # be bit-identical.
        assert hist_resumed[-1] == hist_straight[-1]

    def test_checkpoint_roundtrips_optimizer(self, csa6_data, tmp_path):
        ck = tmp_path / "state.ckpt"
        model = GamoraNet(SMALL)
        optimizer = Adam(model.parameters(), lr=0.01)
        # Advance both kinds of state past their initial values.
        grads = epoch_gradients(model, csa6_data)
        for param, grad in zip(model.parameters(),
                               [grads[n] for n, _ in model.named_parameters()]):
            param.grad = grad
        optimizer.step()
        save_checkpoint(ck, model, optimizer, next_epoch=7,
                        history=[{"epoch": 0, "loss": 1.5}])

        restored_model = GamoraNet(SMALL)
        restored_opt = Adam(restored_model.parameters(), lr=0.01)
        next_epoch, history = load_checkpoint(ck, restored_model,
                                              restored_opt)
        assert next_epoch == 7
        assert history == [{"epoch": 0, "loss": 1.5}]
        assert restored_opt._step_count == optimizer._step_count
        for a, b in zip(optimizer._m, restored_opt._m):
            assert np.array_equal(a, b)
        for a, b in zip(optimizer._v, restored_opt._v):
            assert np.array_equal(a, b)
        for name, reference in _params(model).items():
            assert np.array_equal(_params(restored_model)[name], reference)

    def test_checkpoint_rejects_config_mismatch(self, csa6_data, tmp_path):
        ck = tmp_path / "mismatch.ckpt"
        model = GamoraNet(SMALL)
        optimizer = Adam(model.parameters())
        save_checkpoint(ck, model, optimizer, 1, [])
        other = GamoraNet(ModelConfig(num_layers=2, hidden=8, shared=8))
        with pytest.raises(ValueError, match="different model config"):
            load_checkpoint(ck, other, Adam(other.parameters()))

    def test_checkpoint_rejects_version_1(self, tmp_path):
        """A v1 checkpoint (with the shuffle RNG state of the old trainer)
        is refused, never resumed under the one-schedule trainer."""
        ck = tmp_path / "v1.ckpt"
        model = GamoraNet(SMALL)
        save_checkpoint(ck, model, Adam(model.parameters()), 1, [])
        with np.load(ck) as archive:
            payload = {key: archive[key] for key in archive.files}
        meta = json.loads(payload["meta_json"].tobytes().decode("utf-8"))
        meta.update(version=1, rng_state={})
        payload["meta_json"] = np.frombuffer(json.dumps(meta).encode("utf-8"),
                                             dtype=np.uint8)
        with open(ck, "wb") as stream:
            np.savez(stream, **payload)
        with pytest.raises(ValueError, match="version 1 != 2"):
            load_checkpoint(ck, model, Adam(model.parameters()))

    def test_sgd_state_roundtrip(self):
        """The optimizer state protocol also covers SGD momentum."""
        rng = seeded_rng(0)
        from repro.nn.tensor import Tensor

        params = [Tensor(rng.normal(size=(3, 2)), requires_grad=True)]
        opt = SGD(params, lr=0.1, momentum=0.9)
        params[0].grad = np.ones((3, 2))
        opt.step()
        clone_params = [Tensor(params[0].data.copy(), requires_grad=True)]
        clone = SGD(clone_params, lr=0.1, momentum=0.9)
        clone.load_state_dict(opt.state_dict())
        assert np.array_equal(clone._velocity[0], opt._velocity[0])
        with pytest.raises(ValueError, match="not an SGD"):
            clone.load_state_dict({"kind": "adam"})


class TestWindowedTrainingEndToEnd:
    @pytest.mark.slow
    def test_windowed_training_learns(self, csa6_data, tight_budget):
        """Windowed training reaches full-batch-grade accuracy on csa6."""
        model, history = train_model(
            csa6_data, SMALL,
            TrainConfig(epochs=120, max_window_bytes=tight_budget),
        )
        final = history[-1]
        assert final["num_windows"] > 1
        assert final["peak_window_bytes"] <= tight_budget
        assert final["mean"] > 0.9

    def test_history_records_plan_shape(self, csa6_data, tight_budget):
        _, history = train_model(
            csa6_data, SMALL,
            TrainConfig(epochs=2, max_window_bytes=tight_budget),
        )
        record = history[-1]
        assert record["num_windows"] > 1
        assert 0 < record["peak_window_bytes"] <= tight_budget

    def test_evaluate_model_streams_under_budget(self, csa6_data):
        """evaluate_model with a budget streams the float32 kernel over a
        multi-window plan and reports exactly the one-window accuracies."""
        from repro.learn import compile_inference, estimate_inference_memory
        from repro.learn.trainer import evaluate_model

        model, _ = train_model(csa6_data, SMALL, TrainConfig(epochs=10))
        kernel = compile_inference(model)
        full_bytes = estimate_inference_memory(
            kernel, csa6_data.num_nodes, csa6_data.num_edges
        )
        assert csa6_data.window_plan(full_bytes // 4, kernel).num_windows > 1
        one_window = evaluate_model(model, csa6_data)
        streamed = evaluate_model(model, csa6_data,
                                  max_window_bytes=full_bytes // 4)
        # The streamed pass is bit-identical to the one-window pass.
        assert streamed == one_window
