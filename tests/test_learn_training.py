"""Training, metrics, and inference tests for the learning pipeline.

Model-quality tests train tiny models on mult4/mult6 with reduced epochs to
stay fast; the benchmark harnesses exercise paper-scale settings.
"""

import numpy as np
import pytest

from repro.generators import csa_multiplier
from repro.learn import (
    GamoraNet,
    ModelConfig,
    TrainConfig,
    batch_graphs,
    build_graph_data,
    decode_single_task,
    deep_config,
    encode_single_task,
    estimate_inference_memory,
    evaluate_model,
    multitask_accuracy,
    predict_labels,
    shallow_config,
    task_accuracy,
    timed_inference,
    train_model,
    unbatch_predictions,
)
from repro.learn.metrics import confusion_matrix, per_class_recall


@pytest.fixture(scope="module")
def tiny_trained():
    data = build_graph_data(csa_multiplier(6).aig)
    model, history = train_model(
        data, shallow_config(), TrainConfig(epochs=150)
    )
    return model, data, history


class TestModelShape:
    def test_configs(self):
        assert shallow_config().num_layers == 4
        assert shallow_config().hidden == 32
        assert deep_config().num_layers == 8
        assert deep_config().hidden == 80

    def test_forward_shapes(self, csa4):
        data = build_graph_data(csa4.aig)
        model = GamoraNet(shallow_config())
        out = model(data.features, data.adjacency)
        assert out["root"].shape == (data.num_nodes, 4)
        assert out["xor"].shape == (data.num_nodes, 2)
        assert out["maj"].shape == (data.num_nodes, 2)

    def test_single_task_head(self, csa4):
        data = build_graph_data(csa4.aig)
        model = GamoraNet(ModelConfig(num_layers=2, hidden=8, single_task=True))
        out = model(data.features, data.adjacency)
        assert out["single"].shape == (data.num_nodes, 16)
        predictions = model.predict(data.features, data.adjacency)
        assert set(predictions) == {"root", "xor", "maj"}

    def test_describe_mentions_size(self):
        text = GamoraNet(shallow_config()).describe()
        assert "4 layers" in text and "32 hidden" in text

    def test_deterministic_init(self):
        first = GamoraNet(shallow_config(seed=7))
        second = GamoraNet(shallow_config(seed=7))
        for (n1, p1), (n2, p2) in zip(first.named_parameters(), second.named_parameters()):
            assert n1 == n2
            np.testing.assert_array_equal(p1.data, p2.data)


class TestSingleTaskEncoding:
    def test_roundtrip(self):
        labels = {
            "root": np.array([0, 1, 2, 3, 2]),
            "xor": np.array([0, 1, 0, 1, 1]),
            "maj": np.array([1, 0, 0, 1, 0]),
        }
        decoded = decode_single_task(encode_single_task(labels))
        for task in labels:
            np.testing.assert_array_equal(decoded[task], labels[task])

    def test_distinct_codes(self):
        seen = set()
        for root in range(4):
            for xor in range(2):
                for maj in range(2):
                    code = int(encode_single_task({
                        "root": np.array([root]),
                        "xor": np.array([xor]),
                        "maj": np.array([maj]),
                    })[0])
                    assert code not in seen
                    seen.add(code)
        assert seen == set(range(16))


class TestTraining:
    def test_loss_decreases(self, tiny_trained):
        _model, _data, history = tiny_trained
        assert history[-1]["loss"] < 1.0

    def test_training_fits_small_graph(self, tiny_trained):
        model, data, _history = tiny_trained
        metrics = evaluate_model(model, data)
        assert metrics["xor"] > 0.97
        assert metrics["maj"] > 0.95
        assert metrics["mean"] > 0.9

    def test_generalizes_to_larger(self, tiny_trained):
        model, _data, _history = tiny_trained
        larger = build_graph_data(csa_multiplier(10).aig)
        metrics = evaluate_model(model, larger)
        assert metrics["xor"] > 0.95
        assert metrics["mean"] > 0.88

    def test_multi_graph_training(self):
        graphs = [
            build_graph_data(csa_multiplier(w).aig) for w in (4, 6)
        ]
        model, history = train_model(
            graphs, shallow_config(), TrainConfig(epochs=60)
        )
        assert history[-1]["mean"] > 0.7

    def test_single_task_trains(self, csa4):
        data = build_graph_data(csa4.aig)
        model, history = train_model(
            data,
            ModelConfig(num_layers=2, hidden=16, single_task=True),
            TrainConfig(epochs=80),
        )
        assert history[-1]["loss"] < history[0]["loss"] if len(history) > 1 else True
        metrics = evaluate_model(model, data)
        assert 0.0 <= metrics["mean"] <= 1.0

    def test_evaluate_requires_labels(self, tiny_trained, csa4):
        model, _data, _history = tiny_trained
        unlabeled = build_graph_data(csa4.aig, with_labels=False)
        with pytest.raises(ValueError):
            evaluate_model(model, unlabeled)


class TestMetrics:
    def test_task_accuracy_with_mask(self):
        predicted = np.array([1, 0, 1, 1])
        target = np.array([1, 1, 1, 0])
        mask = np.array([True, True, True, False])
        assert task_accuracy(predicted, target, mask) == pytest.approx(2 / 3)

    def test_empty_selection_rejected(self):
        with pytest.raises(ValueError):
            task_accuracy(np.array([1]), np.array([1]), np.array([False]))

    def test_multitask_joint_le_min(self):
        predictions = {
            "a": np.array([1, 0, 1, 0]),
            "b": np.array([0, 0, 1, 1]),
        }
        targets = {
            "a": np.array([1, 1, 1, 0]),
            "b": np.array([0, 1, 1, 0]),
        }
        metrics = multitask_accuracy(predictions, targets)
        assert metrics["joint"] <= min(metrics["a"], metrics["b"])
        assert metrics["mean"] == pytest.approx((metrics["a"] + metrics["b"]) / 2)

    def test_confusion_matrix_totals(self):
        predicted = np.array([0, 1, 1, 2])
        target = np.array([0, 1, 2, 2])
        matrix = confusion_matrix(predicted, target, 3)
        assert matrix.sum() == 4
        assert matrix[2, 1] == 1
        assert matrix[2, 2] == 1

    def test_per_class_recall(self):
        predicted = np.array([0, 0, 1, 1])
        target = np.array([0, 1, 1, 1])
        recall = per_class_recall(predicted, target, 3)
        assert recall[0] == 1.0
        assert recall[1] == pytest.approx(2 / 3)
        assert recall[2] == 1.0  # empty class defaults to 1


class TestInference:
    def test_timed_inference(self, tiny_trained):
        model, data, _history = tiny_trained
        result = timed_inference(model, data)
        assert result.seconds > 0
        assert result.num_nodes == data.num_nodes
        assert set(result.predictions) == {"root", "xor", "maj"}

    def test_batch_graphs_covers_all(self, tiny_trained):
        """One pass over a block-diagonal batch sees every member's nodes."""
        model, _data, _history = tiny_trained
        graphs = [build_graph_data(csa_multiplier(w).aig, with_labels=False) for w in (4, 5, 6)]
        result = timed_inference(model, batch_graphs(graphs))
        assert result.num_nodes == sum(g.num_nodes for g in graphs)
        assert result.num_edges == sum(g.num_edges for g in graphs)

    def test_batched_matches_unbatched(self, tiny_trained):
        """Block-diagonal batching must not change predictions."""
        model, _data, _history = tiny_trained
        graphs = [build_graph_data(csa_multiplier(w).aig, with_labels=False) for w in (4, 6)]
        merged = batch_graphs(graphs)
        merged_pred = predict_labels(model, merged)
        solo_pred = predict_labels(model, graphs[0])
        np.testing.assert_array_equal(
            merged_pred["xor"][: graphs[0].num_nodes], solo_pred["xor"]
        )

    def test_unbatched_predictions_match_per_design(self, tiny_trained):
        """Splitting merged predictions gives each design its own rows."""
        model, _data, _history = tiny_trained
        graphs = [build_graph_data(csa_multiplier(w).aig, with_labels=False) for w in (4, 5, 6)]
        merged = timed_inference(model, batch_graphs(graphs)).predictions
        per_design = unbatch_predictions(merged, [g.num_nodes for g in graphs])
        assert len(per_design) == len(graphs)
        for graph, predictions in zip(graphs, per_design):
            solo = timed_inference(model, graph).predictions
            for task in solo:
                np.testing.assert_array_equal(predictions[task], solo[task])

    def test_memory_estimate_scales_linearly(self, tiny_trained):
        model, _data, _history = tiny_trained
        small = estimate_inference_memory(model, 1000, 2000)
        large = estimate_inference_memory(model, 10000, 20000)
        assert 9.0 < large / small < 11.0

    def test_memory_estimate_positive(self, tiny_trained):
        model, data, _history = tiny_trained
        estimate = estimate_inference_memory(model, data.num_nodes, data.num_edges)
        assert estimate > 0
