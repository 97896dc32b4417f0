"""Level-windowed multi-task training loop (paper Eq. 2).

Training follows the paper's protocol — small multipliers as training
graphs, Adam, and the weighted multi-task NLL ``L = alpha*l1 + beta*l2 +
gamma*l3`` with ``alpha = 0.8``, ``beta = gamma = 1`` — but runs it over
the same level-windowed execution plan streamed inference uses:

* With no byte budget (``TrainConfig.max_window_bytes is None``) the epoch
  driver runs the degenerate one-window plan — the classic full-batch loop,
  same numerics, same code path.
* With a budget, :meth:`~repro.learn.data.GraphData.window_plan` (in
  training mode, which prices the backward tape and carries per-window
  label/mask slices) covers the node set with memory-bounded windows; each
  epoch shuffles the window order (seeded), computes the loss on every
  window's targets with gradients flowing through its K-hop halo, and
  accumulates gradients across windows.  Because each window's NLL is
  normalized by the *whole-graph* mask total, the accumulate-all-then-step
  schedule (the ``step_every=0`` default) reproduces the full-batch
  gradient to float tolerance — peak memory becomes a budget knob without
  changing what is learned.  ``step_every=k`` instead steps every ``k``
  windows with per-window normalization (classic minibatch SGD).

``TrainConfig.checkpoint_every``/``checkpoint_path`` make long windowed
runs preemption-safe: checkpoints capture the model, the Adam moments, and
the shuffle RNG state, and a run restarted on an existing checkpoint
continues bit-identically to one that was never interrupted.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.learn.data import (
    GraphData,
    WindowPlan,
    batch_graphs,
)
from repro.learn.metrics import multitask_accuracy
from repro.learn.model import GamoraNet, ModelConfig, encode_single_task
from repro.nn.optim import Adam, Optimizer
from repro.nn.tensor import Tensor
from repro.utils.rng import seeded_rng

__all__ = [
    "TrainConfig",
    "train_model",
    "evaluate_model",
    "predict_labels",
    "plan_training_windows",
    "epoch_gradients",
    "save_checkpoint",
    "load_checkpoint",
    "CHECKPOINT_VERSION",
]

CHECKPOINT_VERSION = 1


@dataclass
class TrainConfig:
    """Optimization hyper-parameters (model shape lives in ModelConfig)."""

    epochs: int = 220
    lr: float = 0.01
    weight_decay: float = 0.0
    alpha: float = 0.8  # Task 1 (roots) weight — paper Sec. III-B2
    beta: float = 1.0  # Task 2 (XOR) weight
    gamma: float = 1.0  # Task 3 (MAJ) weight
    log_every: int = 0  # 0 = silent
    history: bool = True
    # --- windowed execution plan ---------------------------------------
    max_window_bytes: int | None = None  # None = the one-window full batch
    seed: int | None = None  # window-order shuffle seed (None = repo default)
    shuffle: bool = True  # shuffle window order each epoch (seeded)
    step_every: int = 0  # 0 = accumulate all windows, one step per epoch;
    #                      k>0 = optimizer step every k windows (minibatch)
    # --- checkpoint/resume ---------------------------------------------
    checkpoint_every: int = 0  # epochs between checkpoints (0 = off)
    checkpoint_path: str | None = None  # resumed from when it exists


def plan_training_windows(data: GraphData, model: GamoraNet,
                          max_window_bytes: int | None) -> WindowPlan:
    """The execution plan one training epoch iterates.

    ``None`` budget: the degenerate one-window plan (full-batch training).
    Otherwise the level-windowed cover priced with the backward-pass cost
    model, each window carrying its label/mask slices.
    """
    if max_window_bytes is None:
        return data.full_window_plan(model, training=True)
    return data.window_plan(max_window_bytes, model, training=True)


def _window_labels(data: GraphData, window) -> dict[str, np.ndarray]:
    if window.labels is not None:
        return window.labels
    assert data.labels is not None, "training requires labels"
    return {task: array[window.targets] for task, array in data.labels.items()}


def _window_mask(data: GraphData, window) -> np.ndarray:
    mask = window.mask if window.mask is not None \
        else data.node_mask()[window.targets]
    return mask.astype(np.float64)


def _window_loss(model: GamoraNet, data: GraphData, window,
                 config: TrainConfig, normalizer: float) -> Tensor:
    """Weighted multi-task NLL over one window's targets.

    The forward pass runs on the window's halo blocks only; ``normalizer``
    replaces the per-call weight total in the NLL so that window losses sum
    to the full-batch loss when it is the whole-graph mask total.
    """
    log_probs = model.forward_window(data.features, data.adjacency,
                                     window.targets)
    labels = _window_labels(data, window)
    weight = _window_mask(data, window)
    if model.config.single_task:
        combined = encode_single_task(labels)
        return log_probs["single"].nll_loss(combined, weight,
                                            total_weight=normalizer)
    weights = {"root": config.alpha, "xor": config.beta, "maj": config.gamma}
    total = None
    for task, task_weight in weights.items():
        scaled = log_probs[task].nll_loss(labels[task], weight,
                                          total_weight=normalizer) * task_weight
        total = scaled if total is None else total + scaled
    return total


def epoch_gradients(model: GamoraNet, data: GraphData,
                    train_config: TrainConfig | None = None,
                    plan: WindowPlan | None = None) -> dict[str, np.ndarray]:
    """Accumulated parameter gradients of one epoch, without stepping.

    Iterates the plan's windows in order (no shuffle — gradient addition is
    order-independent up to float rounding anyway), backpropagating each
    window's globally-normalized loss so the accumulated result equals the
    full-batch gradient to float tolerance.  The equivalence test pins this
    against the degenerate one-window plan.
    """
    config = train_config or TrainConfig()
    if plan is None:
        plan = plan_training_windows(data, model, config.max_window_bytes)
    total_weight = float(data.node_mask().astype(np.float64).sum())
    model.zero_grad()
    for window in plan.windows:
        if float(_window_mask(data, window).sum()) == 0.0:
            continue  # zero-weight rows contribute nothing in full batch
        loss = _window_loss(model, data, window, config, total_weight)
        loss.backward()
        # Drop the tape before the next window's forward pass — otherwise
        # two windows' activations coexist and the peak doubles.
        del loss
    return {
        name: (param.grad.copy() if param.grad is not None
               else np.zeros_like(param.data))
        for name, param in model.named_parameters()
    }


# ----------------------------------------------------------------------
# Checkpointing
# ----------------------------------------------------------------------
def save_checkpoint(path: str | Path, model: GamoraNet, optimizer: Optimizer,
                    rng: np.random.Generator, next_epoch: int,
                    history: list[dict]) -> None:
    """Atomically persist everything a bit-identical resume needs.

    Model weights, optimizer slots (Adam moments + step count, or SGD
    velocity), the window-shuffle RNG state, the epoch cursor, and the
    history so far.  Written to a temp file and renamed, so a run preempted
    mid-save leaves the previous checkpoint intact.
    """
    path = Path(path)
    payload: dict[str, np.ndarray] = {
        f"param:{name}": value for name, value in model.state_dict().items()
    }
    opt_state = dict(optimizer.state_dict())
    slots = {
        name: opt_state.pop(name)
        for name in ("m", "v", "velocity") if name in opt_state
    }
    for name, arrays in slots.items():
        for index, array in enumerate(arrays):
            payload[f"opt_{name}:{index}"] = array
    meta = {
        "version": CHECKPOINT_VERSION,
        "next_epoch": int(next_epoch),
        "optimizer": {**opt_state, "slots": sorted(slots)},
        "rng_state": rng.bit_generator.state,
        "history": history,
        "model_config": model.config.to_dict(),
    }
    payload["meta_json"] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    )
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    with open(tmp, "wb") as stream:
        np.savez(stream, **payload)
    os.replace(tmp, path)


def load_checkpoint(path: str | Path, model: GamoraNet,
                    optimizer: Optimizer,
                    rng: np.random.Generator | None = None
                    ) -> tuple[int, list[dict]]:
    """Restore a :func:`save_checkpoint` archive into live objects.

    Validates the model configuration (a checkpoint written for a different
    architecture must fail loudly, not load garbage), then restores weights,
    optimizer slots, and — when ``rng`` is given — the shuffle RNG state.
    Returns ``(next_epoch, history)``.
    """
    path = Path(path)
    archive = np.load(path, allow_pickle=False)
    meta = json.loads(bytes(archive["meta_json"].tobytes()).decode("utf-8"))
    if meta["version"] != CHECKPOINT_VERSION:
        raise ValueError(
            f"checkpoint {path}: version {meta['version']} != "
            f"{CHECKPOINT_VERSION}"
        )
    if meta["model_config"] != model.config.to_dict():
        raise ValueError(
            f"checkpoint {path} was written for a different model config: "
            f"{meta['model_config']} != {model.config.to_dict()}"
        )
    model.load_state_dict({
        key[len("param:"):]: archive[key]
        for key in archive.files if key.startswith("param:")
    })
    opt_state = {k: v for k, v in meta["optimizer"].items() if k != "slots"}
    for name in meta["optimizer"]["slots"]:
        opt_state[name] = [
            archive[f"opt_{name}:{index}"]
            for index in range(len(optimizer.parameters))
        ]
    optimizer.load_state_dict(opt_state)
    if rng is not None:
        rng.bit_generator.state = meta["rng_state"]
    return int(meta["next_epoch"]), list(meta["history"])


# ----------------------------------------------------------------------
# The epoch driver
# ----------------------------------------------------------------------
def train_model(train_graphs: list[GraphData] | GraphData,
                model_config: ModelConfig | None = None,
                train_config: TrainConfig | None = None,
                model: GamoraNet | None = None,
                plan: WindowPlan | None = None) -> tuple[GamoraNet, list[dict]]:
    """Train a (fresh or provided) GamoraNet on one or more graphs.

    Multiple graphs are merged block-diagonally — training over their
    disjoint union, which is how "trained with Mult2–Mult8" sweeps combine
    sizes.  Every epoch iterates the windowed execution plan (see the
    module docstring; pass ``plan`` to reuse a precomputed one), so peak
    training memory follows ``TrainConfig.max_window_bytes`` instead of
    circuit size.  Returns the model and an epoch history of losses,
    training accuracies, and the plan's ``num_windows``/
    ``peak_window_bytes``.
    """
    if isinstance(train_graphs, GraphData):
        data = train_graphs
    else:
        data = train_graphs[0] if len(train_graphs) == 1 else batch_graphs(train_graphs)
    config = train_config or TrainConfig()
    if model is None:
        model = GamoraNet(model_config)
    model.train()
    optimizer = Adam(model.parameters(), lr=config.lr,
                     weight_decay=config.weight_decay)
    rng = seeded_rng(config.seed)
    if plan is None:
        plan = plan_training_windows(data, model, config.max_window_bytes)
    plan_record = {
        "num_windows": plan.num_windows,
        "peak_window_bytes": plan.peak_window_bytes,
    }
    total_weight = float(data.node_mask().astype(np.float64).sum())
    history: list[dict] = []
    start_epoch = 0
    checkpoint = (
        Path(config.checkpoint_path) if config.checkpoint_path else None
    )
    if checkpoint is not None and checkpoint.exists():
        start_epoch, history = load_checkpoint(checkpoint, model, optimizer,
                                               rng)
    for epoch in range(start_epoch, config.epochs):
        order = np.arange(plan.num_windows)
        if config.shuffle and plan.num_windows > 1:
            order = rng.permutation(plan.num_windows)
        optimizer.zero_grad()
        epoch_loss = 0.0
        pending = 0
        for index in order:
            window = plan.windows[int(index)]
            window_weight = float(_window_mask(data, window).sum())
            if window_weight == 0.0:
                continue  # all rows masked: contributes nothing to the loss
            normalizer = window_weight if config.step_every else total_weight
            loss = _window_loss(model, data, window, config, normalizer)
            loss.backward()
            epoch_loss += float(loss.data) * (normalizer / total_weight)
            # Drop the tape before the next window's forward pass — the
            # window budget prices one window's activations, not two.
            del loss
            pending += 1
            if config.step_every and pending >= config.step_every:
                optimizer.step()
                optimizer.zero_grad()
                pending = 0
        if not config.step_every or pending:
            optimizer.step()
        if config.history and (
            config.log_every and epoch % config.log_every == 0
            or epoch == config.epochs - 1
        ):
            metrics = evaluate_model(model, data,
                                     max_window_bytes=config.max_window_bytes)
            record = {"epoch": epoch, "loss": epoch_loss, **plan_record,
                      **metrics}
            history.append(record)
            if config.log_every:
                print(
                    f"epoch {epoch:4d}  loss {epoch_loss:.4f}  "
                    f"mean acc {metrics['mean']:.4f}"
                )
        if (
            checkpoint is not None and config.checkpoint_every
            and ((epoch + 1) % config.checkpoint_every == 0
                 or epoch == config.epochs - 1)
        ):
            save_checkpoint(checkpoint, model, optimizer, rng, epoch + 1,
                            history)
    model.eval()
    return model, history


def predict_labels(model: GamoraNet, data: GraphData) -> dict[str, np.ndarray]:
    """Hard per-task predictions for every node of ``data``."""
    return model.predict(data.features, data.adjacency)


def evaluate_model(model: GamoraNet, data: GraphData,
                   max_window_bytes: int | None = None) -> dict[str, float]:
    """Per-task / mean / joint accuracy against the graph's labels.

    With ``max_window_bytes`` set and the full-graph inference footprint
    above it, predictions run through the compiled kernel's streamed pass
    (:meth:`~repro.learn.fast.FastInference.predict_streamed`) — so
    in-training evaluation of a windowed run never reintroduces the
    full-graph memory peak the trainer just avoided.  Small graphs keep the
    exact float64 forward pass.
    """
    if data.labels is None:
        raise ValueError("evaluation requires ground-truth labels")
    if max_window_bytes is not None:
        from repro.learn.fast import compile_inference
        from repro.learn.infer import estimate_inference_memory

        kernel = compile_inference(model)
        if estimate_inference_memory(
            kernel, data.num_nodes, data.num_edges
        ) > max_window_bytes:
            window_plan = data.window_plan(max_window_bytes, kernel)
            predictions = kernel.predict_streamed(
                data.features, data.adjacency, window_plan
            )
            return multitask_accuracy(predictions, data.labels,
                                      data.node_mask())
    predictions = predict_labels(model, data)
    return multitask_accuracy(predictions, data.labels, data.node_mask())
