"""Timed inference and the analytic memory model (Figs. 7 and 8).

``timed_inference`` measures the GNN-side runtime that Fig. 7 compares
against exact reasoning (Fig. 8 times it over block-diagonal batches from
:func:`~repro.learn.data.batch_graphs`); ``estimate_inference_memory`` is
the documented activation-size model standing in for the paper's A100
memory measurements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.learn.data import GraphData
from repro.learn.fast import FastInference, compile_inference
from repro.learn.model import GamoraNet
from repro.utils.timing import Timer

__all__ = [
    "InferenceResult",
    "timed_inference",
    "estimate_inference_memory",
    "estimate_batch_memory",
    "estimate_window_memory",
    "estimate_training_memory",
    "A100_MEMORY_BYTES",
]

A100_MEMORY_BYTES = 40 * 1024 ** 3  # the paper's single-GPU budget line
_INDEX_SIZE = 8  # bytes per CSR index entry (int64)


@dataclass
class InferenceResult:
    """Predictions plus the wall-clock seconds they took."""

    predictions: dict[str, np.ndarray]
    seconds: float
    num_nodes: int
    num_edges: int


def timed_inference(model: GamoraNet | FastInference,
                    data: GraphData) -> InferenceResult:
    """One full-graph forward pass, timed.

    A :class:`GamoraNet` is compiled to the float32 deployment kernel
    first (compilation excluded from the timing, like moving a model to
    the GPU is in the paper's measurements); pass a pre-compiled
    :class:`FastInference` to skip recompilation across calls.
    """
    kernel = model if isinstance(model, FastInference) else compile_inference(model)
    with Timer() as timer:
        predictions = kernel.predict(data.features, data.adjacency)
    return InferenceResult(predictions, timer.elapsed, data.num_nodes, data.num_edges)


def _model_spec(model: GamoraNet | FastInference):
    """Uniform layer-width/parameter view over the two model flavors.

    Returns ``(conv_widths, shared_width, heads_width, feature_dim,
    num_parameters, value_size)``.  ``value_size`` is the byte width of the
    path actually being run: 8 for the float64 training tensors of a
    :class:`GamoraNet`, the snapshot itemsize (4, float32) for a compiled
    :class:`FastInference` — so shard/window planning for the serving path
    is not over-provisioned ~2x at float64 rates.
    """
    if isinstance(model, FastInference):
        conv_widths = model.conv_widths()
        heads_width = sum(model.head_widths().values())
        params = model.num_parameters()
        value_size = model.itemsize
    else:
        conv_widths = [(c.in_features, c.out_features) for c in model.convs]
        heads_width = sum(h.out_features for h in model.heads.values())
        params = model.num_parameters()
        value_size = 8
    feature_dim = conv_widths[0][0] if conv_widths else 1
    return (conv_widths, model.config.shared, heads_width, feature_dim,
            params, value_size)


def estimate_inference_memory(model: GamoraNet | FastInference,
                              num_nodes: int, num_edges: int) -> int:
    """Peak-resident bytes of one inference pass (documented model).

    Counts, per SAGE layer, the live activations of the concat formulation
    (input ``N×F_in``, aggregated neighborhood ``N×F_in``, concat buffer
    ``N×2F_in``, output ``N×F_out``), the shared/head activations, the CSR
    adjacency (``nnz`` values + ``nnz`` column indices + ``N+1`` offsets),
    and the feature matrix.  This reproduces the linear-in-(batch × |V|)
    scaling of the paper's Fig. 8 memory curves; values are priced at the
    byte width of the path the model actually runs (8 for the float64
    ``GamoraNet`` tensors, 4 for a compiled float32 ``FastInference``
    kernel) and CSR indices at 8 bytes.
    """
    (conv_widths, shared_width, heads_width, feature_dim,
     num_parameters, value_size) = _model_spec(model)
    total = num_nodes * feature_dim * value_size  # input features
    total += num_edges * (value_size + _INDEX_SIZE) \
        + (num_nodes + 1) * _INDEX_SIZE

    peak_layer = 0
    width_in = feature_dim
    for layer_in, layer_out in conv_widths:
        live = num_nodes * (
            layer_in  # layer input
            + layer_in  # aggregated neighborhood
            + 2 * layer_in  # concat buffer
            + layer_out  # layer output
        ) * value_size
        peak_layer = max(peak_layer, live)
        width_in = layer_out
    shared_live = num_nodes * (width_in + shared_width) * value_size
    head_live = num_nodes * (shared_width + 2 * heads_width) * value_size
    total += max(peak_layer, shared_live, head_live)
    # Model weights are negligible but counted for completeness.
    total += num_parameters * value_size
    return int(total)


def estimate_batch_memory(model: GamoraNet | FastInference,
                          graphs: list[GraphData]) -> int:
    """Estimated peak bytes of one block-diagonal pass over ``graphs``.

    The block-diagonal merge concatenates nodes and edges, so the estimate
    is :func:`estimate_inference_memory` at the summed sizes — the quantity
    the serving layer's shard planner keeps under ``max_shard_bytes``.
    """
    return estimate_inference_memory(
        model,
        sum(g.num_nodes for g in graphs),
        sum(g.num_edges for g in graphs),
    )


def estimate_window_memory(model: GamoraNet | FastInference,
                           block_sizes: list[int], block_edges: list[int],
                           training: bool = False) -> int:
    """Peak-resident bytes of one streamed window (analytic model).

    The window-plan twin of :func:`estimate_inference_memory`: node counts
    come from the per-layer halo blocks (``block_sizes[j]`` feeds conv
    ``j``; the last entry is the target count) and edge counts from the
    per-layer sub-CSR slices.  Each conv's live set is its input block, the
    gathered self rows, the aggregated neighborhood, the concat buffer, the
    output rows, and the sliced adjacency; the shared/head stages run on
    the targets only.  Monotone in window size — growing a window can only
    grow every block — which is what lets
    :meth:`~repro.learn.data.GraphData.window_plan` binary-search window
    sizes against a byte budget.

    With ``training=True`` the model prices the *backward* pass instead of
    a forward-only sweep: the autodiff tape retains every layer's
    intermediates simultaneously (layers sum instead of max), backward
    materializes a same-shaped gradient for each retained activation, and
    the parameter slots (gradient + both Adam moments) ride along.  This
    is the cost the windowed trainer plans against.
    """
    (conv_widths, shared_width, heads_width, feature_dim,
     num_parameters, value_size) = _model_spec(model)
    if len(block_sizes) != len(conv_widths) + 1:
        raise ValueError(
            f"expected {len(conv_widths) + 1} block sizes for "
            f"{len(conv_widths)} conv layers, got {len(block_sizes)}"
        )
    if len(block_edges) != len(conv_widths):
        raise ValueError(
            f"expected {len(conv_widths)} block edge counts, "
            f"got {len(block_edges)}"
        )
    targets = block_sizes[-1]
    total = block_sizes[0] * feature_dim * value_size  # gathered features
    if training:
        # Tape cost: every intermediate of every conv layer stays live
        # until backward (gathered self rows, aggregated neighborhood,
        # concat buffer, and the matmul/bias/relu output chain), and each
        # gets a same-shaped gradient — hence the sum over layers and the
        # final doubling.  Index arrays and sub-CSR slices are also pinned
        # by the tape closures for the whole window.
        activations = 0
        for j, (layer_in, layer_out) in enumerate(conv_widths):
            rows_in, rows_out = block_sizes[j], block_sizes[j + 1]
            activations += (
                rows_out * layer_in  # gathered self rows
                + rows_out * layer_in  # aggregated neighborhood
                + 2 * rows_out * layer_in  # concat buffer
                + 3 * rows_out * layer_out  # matmul + bias + relu outputs
            ) * value_size
            total += block_edges[j] * (value_size + _INDEX_SIZE)
            total += (rows_out + 1) * _INDEX_SIZE  # sub-CSR offsets
            total += rows_in * _INDEX_SIZE  # block index array
        # Shared trunk (matmul + bias + relu) and per-head chain (matmul +
        # bias + log-softmax output + its cached softmax), targets only.
        activations += targets * 3 * shared_width * value_size
        activations += targets * 4 * heads_width * value_size
        total += 2 * activations  # every retained activation + its gradient
        # Parameter, gradient, and the two Adam moment arrays.
        total += num_parameters * value_size * 4
        return int(total)
    peak_layer = 0
    width_in = feature_dim
    for j, (layer_in, layer_out) in enumerate(conv_widths):
        rows_in, rows_out = block_sizes[j], block_sizes[j + 1]
        live = (
            rows_in * layer_in  # input block
            + rows_out * layer_in  # gathered self rows
            + rows_out * layer_in  # aggregated neighborhood
            + 2 * rows_out * layer_in  # concat buffer
            + rows_out * layer_out  # output rows
        ) * value_size
        live += block_edges[j] * (value_size + _INDEX_SIZE)
        live += (rows_out + 1) * _INDEX_SIZE  # sub-CSR offsets
        live += rows_in * _INDEX_SIZE  # block index array
        peak_layer = max(peak_layer, live)
        width_in = layer_out
    shared_live = targets * (width_in + shared_width) * value_size
    head_live = targets * (shared_width + 2 * heads_width) * value_size
    total += max(peak_layer, shared_live, head_live)
    total += num_parameters * value_size
    return int(total)


def estimate_training_memory(model: GamoraNet,
                             num_nodes: int, num_edges: int) -> int:
    """Estimated peak bytes of one *full-batch* training epoch.

    The degenerate-plan view of :func:`estimate_window_memory`: every halo
    block is the whole node set and every sub-CSR slice is the whole
    adjacency.  Benchmarks use this to pick the windowed trainer's byte
    budget as a fraction of what the full-batch loop would need.
    """
    (conv_widths, _shared, _heads, _feature_dim,
     _params, _value_size) = _model_spec(model)
    return estimate_window_memory(
        model,
        [num_nodes] * (len(conv_widths) + 1),
        [num_edges] * len(conv_widths),
        training=True,
    )
