"""Learning pipeline: features, datasets, GamoraNet, training, inference."""

from repro.learn.features import FEATURE_MODES, encode_features, num_features
from repro.learn.data import (
    GraphData,
    Window,
    WindowPlan,
    adjacency_operator,
    batch_graphs,
    build_graph_data,
    halo_blocks,
    sub_adjacency,
    unbatch_predictions,
)
from repro.learn.model import (
    TASK_CLASSES,
    GamoraNet,
    ModelConfig,
    decode_single_task,
    deep_config,
    encode_single_task,
    shallow_config,
)
from repro.learn.trainer import (
    TrainConfig,
    epoch_gradients,
    evaluate_model,
    load_checkpoint,
    save_checkpoint,
    train_model,
)
from repro.learn.metrics import (
    confusion_matrix,
    multitask_accuracy,
    per_class_recall,
    task_accuracy,
)
from repro.learn.fast import FastInference, compile_inference
from repro.learn.infer import (
    A100_MEMORY_BYTES,
    InferenceResult,
    estimate_batch_memory,
    estimate_inference_memory,
    estimate_training_memory,
    estimate_window_memory,
    timed_inference,
)

__all__ = [
    "FEATURE_MODES",
    "encode_features",
    "num_features",
    "GraphData",
    "Window",
    "WindowPlan",
    "adjacency_operator",
    "batch_graphs",
    "build_graph_data",
    "halo_blocks",
    "sub_adjacency",
    "unbatch_predictions",
    "TASK_CLASSES",
    "GamoraNet",
    "ModelConfig",
    "decode_single_task",
    "deep_config",
    "encode_single_task",
    "shallow_config",
    "TrainConfig",
    "epoch_gradients",
    "evaluate_model",
    "load_checkpoint",
    "save_checkpoint",
    "train_model",
    "confusion_matrix",
    "multitask_accuracy",
    "per_class_recall",
    "task_accuracy",
    "FastInference",
    "compile_inference",
    "A100_MEMORY_BYTES",
    "InferenceResult",
    "estimate_batch_memory",
    "estimate_inference_memory",
    "estimate_training_memory",
    "estimate_window_memory",
    "timed_inference",
]
