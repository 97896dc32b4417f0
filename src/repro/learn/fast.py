"""Compiled inference kernel: the deployment path of the model.

Training uses the autodiff :class:`~repro.nn.tensor.Tensor` in float64 for
gradient fidelity; inference does not need a tape or double precision.
:class:`FastInference` snapshots a trained GamoraNet's weights into float32
arrays (``dtype`` is configurable) and evaluates the forward pass with raw
NumPy/SciPy kernels — the CPU analogue of the paper's optimized GPU
deployment, and the engine behind the Fig. 7/8 runtime numbers.

Two execution modes share the snapshot:

* :meth:`FastInference.logits` / :meth:`~FastInference.predict` — the
  monolithic full-graph pass (every activation resident at once).
* :meth:`FastInference.logits_streamed` / :meth:`~FastInference.predict_streamed`
  — the level-windowed pass over a :class:`~repro.learn.data.WindowPlan`:
  each window materializes only its targets plus the K-hop fan-in halo, so
  peak activation memory follows the window budget instead of circuit size;
  a window covering every node runs the monolithic loop.  The serving
  layer runs every forward pass this way.

The streamed pass is **bit-identical** to the full-graph pass, which takes
three invariants: the sub-CSR slice preserves per-row entry order (sparse
accumulation order is unchanged), every dense matmul output width is padded
to a BLAS-GEMM row-stable shape (multiples of 16 at >= 32 columns produce
the same bits for any >= 2-row subset of the input; skinny widths dispatch
to a small-matrix kernel whose accumulation differs), and the window plan
never emits a single-row window (one row takes the GEMV path, which is not
bit-stable against the GEMM rows either).

Tests assert label-level agreement with the reference float64 forward pass
and exact streamed/full bit-identity.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.learn.model import GamoraNet, decode_single_task

__all__ = ["FastInference", "compile_inference"]

# Smallest dense-output width whose GEMM is row-subset bit-stable; skinnier
# products are computed against a zero-padded weight and sliced back.
_STABLE_WIDTH = 32


def _pad_stable(weight: np.ndarray) -> np.ndarray:
    """Zero-pad a weight's output columns up to a GEMM row-stable width."""
    width = weight.shape[1]
    stable = max(_STABLE_WIDTH, -(-width // 16) * 16)
    if stable == width:
        return weight
    padded = np.zeros((weight.shape[0], stable), dtype=weight.dtype)
    padded[:, :width] = weight
    return padded


class FastInference:
    """Float32 snapshot of a GamoraNet, callable on (features, adjacency)."""

    def __init__(self, model: GamoraNet, dtype=np.float32) -> None:
        self.config = model.config
        self.single_task = model.config.single_task
        self.dtype = np.dtype(dtype)

        def snap(weight, bias, out_width):
            return (
                _pad_stable(weight.data.astype(self.dtype)),
                bias.data.astype(self.dtype) if bias is not None else None,
                out_width,
            )

        self._convs = [
            snap(conv.weight, conv.bias, conv.out_features)
            for conv in model.convs
        ]
        self._shared = snap(model.shared.weight, model.shared.bias,
                            model.shared.out_features)
        self._heads = {
            task: snap(head.weight, head.bias, head.out_features)
            for task, head in model.heads.items()
        }

    @property
    def itemsize(self) -> int:
        """Bytes per activation value — what the memory model prices."""
        return int(self.dtype.itemsize)

    @property
    def num_layers(self) -> int:
        return len(self._convs)

    def conv_widths(self) -> list[tuple[int, int]]:
        """(in_features, out_features) per conv layer, from the snapshot."""
        return [(w.shape[0] // 2, width) for w, _, width in self._convs]

    def head_widths(self) -> dict[str, int]:
        return {task: width for task, (_, _, width) in self._heads.items()}

    def num_parameters(self) -> int:
        """Snapshot value count (padding columns excluded — they are zeros)."""
        total = sum(w.shape[0] * width + (b.size if b is not None else 0)
                    for w, b, width in self._convs)
        w, b, width = self._shared
        total += w.shape[0] * width + b.size
        total += sum(w.shape[0] * width + b.size
                     for w, b, width in self._heads.values())
        return int(total)

    @staticmethod
    def _affine(hidden: np.ndarray, weight: np.ndarray,
                bias: np.ndarray | None, width: int) -> np.ndarray:
        """``hidden @ weight + bias`` through the padded, row-stable GEMM."""
        out = hidden @ weight
        if out.shape[1] != width:
            out = out[:, :width] + bias if bias is not None \
                else np.ascontiguousarray(out[:, :width])
        elif bias is not None:
            out += bias
        return out

    def logits(self, features: np.ndarray,
               adjacency: sp.spmatrix) -> dict[str, np.ndarray]:
        """Raw head outputs per task (softmax is monotone — skip it)."""
        hidden = np.ascontiguousarray(features, dtype=self.dtype)
        adj = adjacency.astype(self.dtype)
        for weight, bias, width in self._convs:
            neighborhood = adj @ hidden
            stacked = np.concatenate([hidden, neighborhood], axis=1)
            hidden = self._affine(stacked, weight, bias, width)
            np.maximum(hidden, 0.0, out=hidden)
        return self._head_logits(hidden)

    def _head_logits(self, hidden: np.ndarray) -> dict[str, np.ndarray]:
        shared_w, shared_b, shared_width = self._shared
        shared = self._affine(hidden, shared_w, shared_b, shared_width)
        np.maximum(shared, 0.0, out=shared)
        return {
            task: self._affine(shared, weight, bias, width)
            for task, (weight, bias, width) in self._heads.items()
        }

    def _check_plan(self, features: np.ndarray, plan) -> bool:
        """Reject a foreign plan; True for the one-window (all-node) plan."""
        if plan.num_hops != len(self._convs):
            raise ValueError(
                f"plan was built for {plan.num_hops} conv layers, "
                f"kernel has {len(self._convs)}"
            )
        if plan.num_nodes != features.shape[0]:
            raise ValueError(
                f"plan covers {plan.num_nodes} nodes, "
                f"features have {features.shape[0]}"
            )
        return (plan.num_windows == 1
                and plan.windows[0].num_targets == plan.num_nodes)

    def _window_logits(self, features: np.ndarray, adjacency: sp.spmatrix,
                       plan):
        """Yield ``(targets, head_logits)`` per window of ``plan``.

        Only the live window's halo activations are resident at any point:
        layer ``j`` reads block ``B_j`` and writes rows ``B_{j+1}``, with the
        self rows gathered by ``searchsorted`` (blocks are sorted and
        nested).  The sub-CSR slice keeps the parent's per-row entry order,
        so every multiply-accumulate happens in the full-graph order.

        A window covering every node runs :meth:`logits` directly: its halo
        is the whole graph, so blocks and sub-CSRs would only copy it.
        """
        from repro.learn.data import halo_blocks, sub_adjacency

        self._check_plan(features, plan)
        for window in plan.windows:
            if window.num_targets == plan.num_nodes:
                yield window.targets, self.logits(features, adjacency)
                continue
            blocks = halo_blocks(adjacency, window.targets, len(self._convs))
            hidden = np.ascontiguousarray(features[blocks[0]], dtype=self.dtype)
            for j, (weight, bias, width) in enumerate(self._convs):
                rows, cols = blocks[j + 1], blocks[j]
                sub = sub_adjacency(adjacency, rows, cols).astype(self.dtype)
                neighborhood = sub @ hidden
                self_rows = hidden[np.searchsorted(cols, rows)]
                stacked = np.concatenate([self_rows, neighborhood], axis=1)
                hidden = self._affine(stacked, weight, bias, width)
                np.maximum(hidden, 0.0, out=hidden)
            yield window.targets, self._head_logits(hidden)

    def logits_streamed(self, features: np.ndarray, adjacency: sp.spmatrix,
                        plan) -> dict[str, np.ndarray]:
        """Full-size logits assembled window by window.

        Bit-identical to :meth:`logits`; peak *activation* memory is the
        plan's window budget (the returned ``N x classes`` arrays still
        scale with the graph — use :meth:`predict_streamed` when only
        labels are needed).
        """
        num_nodes = features.shape[0]
        out: dict[str, np.ndarray] | None = None
        for targets, head_logits in self._window_logits(features, adjacency, plan):
            if out is None:
                out = {
                    task: np.empty((num_nodes, arr.shape[1]), dtype=arr.dtype)
                    for task, arr in head_logits.items()
                }
            for task, arr in head_logits.items():
                out[task][targets] = arr
        if out is None:
            out = {
                task: np.empty((num_nodes, width), dtype=self.dtype)
                for task, (_, _, width) in self._heads.items()
            }
        return out

    def predict(self, features: np.ndarray,
                adjacency: sp.spmatrix) -> dict[str, np.ndarray]:
        """Hard labels per task, matching :meth:`GamoraNet.predict`."""
        logits = self.logits(features, adjacency)
        if self.single_task:
            return decode_single_task(np.argmax(logits["single"], axis=1))
        return {task: np.argmax(out, axis=1) for task, out in logits.items()}

    def predict_streamed(self, features: np.ndarray, adjacency: sp.spmatrix,
                         plan) -> dict[str, np.ndarray]:
        """Hard labels via the streamed pass — bit-identical to :meth:`predict`.

        Logits are reduced to labels inside each window, so the resident
        footprint is one window's halo plus the ``N``-length label arrays.
        The one-window plan is :meth:`predict` itself, with no scatter.
        """
        if self._check_plan(features, plan):
            return self.predict(features, adjacency)
        num_nodes = features.shape[0]
        if self.single_task:
            single = np.empty(num_nodes, dtype=np.intp)
            for targets, logits in self._window_logits(features, adjacency, plan):
                single[targets] = np.argmax(logits["single"], axis=1)
            return decode_single_task(single)
        out = {task: np.empty(num_nodes, dtype=np.intp) for task in self._heads}
        for targets, logits in self._window_logits(features, adjacency, plan):
            for task, arr in logits.items():
                out[task][targets] = np.argmax(arr, axis=1)
        return out

    __call__ = predict


def compile_inference(model: GamoraNet, dtype=np.float32) -> FastInference:
    """Snapshot ``model``'s weights into a ``dtype`` inference kernel."""
    return FastInference(model, dtype=dtype)
