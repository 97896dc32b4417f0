"""Graph dataset construction: adjacency operators, labels, batching.

A :class:`GraphData` is the full-graph training/inference unit: node
features, the row-normalized sparse aggregation operator (mean aggregator of
GraphSAGE), multi-task labels, and a node mask (the constant node is never
classified).  ``batch_graphs`` block-diagonally stacks graphs for the
batched reasoning experiment of Fig. 8.

For circuits too large to materialize every activation at once,
:meth:`GraphData.window_plan` slices the node set — in topological-level
order, so each window's receptive field stays local — into memory-bounded
*windows*.  Each window carries the K-hop halo blocks the conv stack needs
(the minibatch-SAGE idiom: target nodes plus per-layer neighbor blocks), and
:meth:`repro.learn.fast.FastInference.predict_streamed` evaluates them one
at a time with bit-identical labels to the full-graph pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.aig.graph import AIG
from repro.kernels import get_kernel
from repro.learn.features import encode_features
from repro.reasoning.adder_tree import ground_truth_labels
from repro.reasoning.structural import detect_xor_maj_structural
from repro.reasoning.xor_maj import detect_xor_maj
from repro.utils.arrays import ragged_gather, sorted_unique

__all__ = [
    "GraphData",
    "Window",
    "WindowPlan",
    "adjacency_operator",
    "build_graph_data",
    "batch_graphs",
    "halo_blocks",
    "sub_adjacency",
    "unbatch_predictions",
]

DIRECTIONS = ("in", "out", "both")
TASKS = ("root", "xor", "maj")


@dataclass
class Window:
    """One streaming unit: target nodes plus the analytic cost of their halo.

    ``block_sizes``/``block_edges`` describe the per-layer halo blocks
    (``block_sizes[0]`` is the outermost block feeding conv 0;
    ``block_sizes[-1] == len(targets)``).  Only the *sizes* are stored —
    the executor recomputes the block index arrays per window, so a plan
    over a multi-million-node graph stays small.
    """

    targets: np.ndarray  # sorted node ids whose outputs this window owns
    block_sizes: list[int]  # |B_0| .. |B_K|, outermost first
    block_edges: list[int]  # sub-CSR nnz per conv layer (rows = B_{j+1})
    estimated_bytes: int  # analytic peak for this window

    @property
    def num_targets(self) -> int:
        return int(self.targets.size)


@dataclass
class WindowPlan:
    """A full cover of one graph's nodes by memory-bounded windows."""

    num_nodes: int
    num_hops: int  # conv layers the halo was built for
    max_window_bytes: int
    windows: list[Window] = field(default_factory=list)

    @property
    def num_windows(self) -> int:
        return len(self.windows)

    @property
    def peak_window_bytes(self) -> int:
        return max((w.estimated_bytes for w in self.windows), default=0)

    @property
    def within_budget(self) -> bool:
        """False when even the minimum window exceeded the budget."""
        return self.peak_window_bytes <= self.max_window_bytes

    def summary(self) -> str:
        return (
            f"{self.num_windows} window(s), peak "
            f"{self.peak_window_bytes / 1024 ** 2:.1f}MiB "
            f"(budget {self.max_window_bytes / 1024 ** 2:.1f}MiB)"
        )

    @classmethod
    def one_window(cls, model, num_nodes: int, num_edges: int,
                   training: bool = False) -> "WindowPlan":
        """The degenerate plan whose single window is every node.

        Needs only the graph's size, so a merge can be planned before it is
        assembled.  Inference plans are priced as the full-graph pass they
        run, training plans with the backward-pass window model; the budget
        is the window's own cost, so ``within_budget`` holds.
        """
        from repro.learn.infer import estimate_inference_memory, estimate_window_memory

        num_hops = model.config.num_layers
        sizes = [num_nodes] * (num_hops + 1)
        edges = [num_edges] * num_hops
        if training:
            cost = estimate_window_memory(model, sizes, edges, training=True)
        else:
            cost = estimate_inference_memory(model, num_nodes, num_edges)
        window = Window(np.arange(num_nodes, dtype=np.int64), sizes, edges,
                        int(cost))
        return cls(num_nodes, num_hops, int(cost), [window])


def halo_blocks(adjacency: sp.csr_matrix, targets: np.ndarray,
                num_hops: int) -> list[np.ndarray]:
    """Per-layer neighbor blocks ``[B_0, ..., B_K]`` for a target window.

    ``B_K`` is ``targets``; each ``B_{j}`` adds the adjacency columns of
    ``B_{j+1}``'s rows (the fan-in halo conv layer ``j`` reads).  Blocks are
    sorted int64 arrays, so layer ``j``'s output rows can be located in its
    input block by ``searchsorted``.
    """
    indptr = adjacency.indptr
    indices = adjacency.indices
    blocks = [np.asarray(targets, dtype=np.int64)]
    for _ in range(num_hops):
        rows = blocks[0]
        flat = ragged_gather(indptr[rows], indptr[rows + 1])
        cols = indices[flat].astype(np.int64, copy=False)
        blocks.insert(0, sorted_unique(np.concatenate([rows, cols])))
    return blocks


def sub_adjacency(adjacency: sp.csr_matrix, rows: np.ndarray,
                  cols: np.ndarray) -> sp.csr_matrix:
    """CSR submatrix ``adjacency[rows][:, cols]`` preserving entry order.

    ``cols`` must be sorted and contain every column referenced by ``rows``
    (a halo block does, by construction).  The slice is a direct gather of
    the parent's value/index arrays — per-row entry *storage order* is kept,
    so a sparse·dense product accumulates in exactly the full-graph order
    and the streamed pass stays bit-identical to the monolithic one.
    """
    indptr = adjacency.indptr
    starts = indptr[rows]
    ends = indptr[rows + 1]
    flat = ragged_gather(starts, ends)
    sub_indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(ends - starts, out=sub_indptr[1:])
    sub_indices = np.searchsorted(cols, adjacency.indices[flat])
    return sp.csr_matrix(
        (adjacency.data[flat], sub_indices, sub_indptr),
        shape=(len(rows), len(cols)),
    )


@dataclass
class GraphData:
    """One AIG prepared for GraphSAGE: operator + features (+ labels)."""

    name: str
    features: np.ndarray  # (N, F) float
    adjacency: sp.csr_matrix  # (N, N) row-normalized aggregation operator
    labels: dict[str, np.ndarray] | None = None  # task -> (N,) int
    mask: np.ndarray | None = None  # (N,) bool: nodes that count
    sizes: list[int] = field(default_factory=list)  # per-graph node counts
    levels: np.ndarray | None = None  # (N,) int topological level per node

    @property
    def num_nodes(self) -> int:
        return self.features.shape[0]

    @property
    def num_feature_dims(self) -> int:
        return self.features.shape[1]

    @property
    def num_edges(self) -> int:
        return int(self.adjacency.nnz)

    def node_mask(self) -> np.ndarray:
        if self.mask is not None:
            return self.mask
        return np.ones(self.num_nodes, dtype=bool)

    def node_levels(self) -> np.ndarray:
        """Topological levels, or all-zero when none were recorded.

        Levels only steer window *locality* (nodes of adjacent levels share
        fan-in halos); streaming correctness never depends on them, so a
        flat fallback is always safe — it just yields wider halos.
        """
        if self.levels is not None:
            return self.levels
        return np.zeros(self.num_nodes, dtype=np.int64)

    def window_plan(self, max_window_bytes: int | None, model,
                    training: bool = False) -> WindowPlan:
        """Slice this graph into memory-bounded streaming windows.

        ``max_window_bytes=None`` is the degenerate one-window plan: the
        whole graph as one window, priced as the full-graph pass (see
        :meth:`WindowPlan.one_window`).  It is what the trainer runs when
        no byte budget is set — budgeted and unbudgeted passes share one
        executor.

        Nodes are taken in topological-level-major order (stable, so window
        boundaries may land mid-level) and packed greedily: each window
        grows one target at a time and stops at the first target whose
        halo breaks ``max_window_bytes`` — the largest fitting slice, since
        :func:`~repro.learn.infer.estimate_window_memory` is monotone in
        window size.  The ``halo_prefix_counts`` kernel counts the halo
        blocks of every prefix of a chunk of targets in one sweep; a chunk
        starts at twice the previous window and doubles until some prefix
        is over budget.  ``model`` (a ``GamoraNet`` or compiled
        :class:`~repro.learn.fast.FastInference`) supplies the layer widths
        and dtype for the cost model and the hop count for the halo.

        ``training=True`` prices each window with the backward-pass cost
        model (tape activations + gradients + optimizer slots) instead of
        the forward-only one — the same plan shape otherwise, so trainer
        and streamed inference share one execution-plan machinery.

        Every window keeps at least two targets (a lone trailing node is
        folded into its neighbor): single-row float32 matmuls take BLAS's
        GEMV path, whose accumulation order differs from the GEMM rows, and
        bit-identity with the full-graph pass would be lost.  A window that
        exceeds the budget even at the minimum size is kept (and reported
        via :attr:`WindowPlan.within_budget`) — streaming degrades to the
        smallest feasible footprint rather than refusing the circuit.
        """
        from repro.learn.infer import estimate_window_memory

        if max_window_bytes is None:
            return WindowPlan.one_window(model, self.num_nodes,
                                         self.num_edges, training=training)
        if max_window_bytes <= 0:
            raise ValueError(f"max_window_bytes must be a positive byte "
                             f"count, got {max_window_bytes}")
        num_hops = model.config.num_layers
        order = np.argsort(self.node_levels(), kind="stable")
        indptr = self.adjacency.indptr.astype(np.int64)
        indices = self.adjacency.indices.astype(np.int64)
        prefix_counts = get_kernel("halo_prefix_counts")
        total = self.num_nodes

        def price(start: int, length: int):
            """Block sizes, edges and cost of every prefix of a chunk."""
            sizes, edges = prefix_counts(
                indptr, indices, order[start:start + length], num_hops)
            costs = estimate_window_memory(model, sizes.T, edges.T,
                                           training=training)
            return sizes, edges, costs

        windows: list[Window] = []
        pos = 0
        chunk = 2  # the two-target minimum; later chunks start at 2x
        while pos < total:
            remaining = total - pos
            while True:
                length = min(chunk, remaining)
                sizes, edges, costs = price(pos, length)
                over = np.flatnonzero(costs > max_window_bytes)
                if over.size or length == remaining:
                    break
                chunk *= 2
            # over[0] targets fit; never fewer than the two-target minimum.
            size = max(int(over[0]) if over.size else length,
                       min(2, remaining))
            if remaining - size == 1:
                # Never leave a single-node tail (the GEMV caveat above):
                # shrink to leave a 2-node tail, or absorb the straggler.
                size = size - 1 if size >= 3 else remaining
            if size > length:
                sizes, edges, costs = price(pos, size)
            windows.append(Window(np.sort(order[pos:pos + size]),
                                  sizes[size - 1].tolist(),
                                  edges[size - 1].tolist(),
                                  int(costs[size - 1])))
            pos += size
            chunk = 2 * size
        return WindowPlan(total, num_hops, int(max_window_bytes), windows)


def adjacency_operator(aig: AIG, direction: str = "in") -> sp.csr_matrix:
    """Row-normalized neighborhood-mean operator for message passing.

    ``direction='in'`` aggregates a node's fan-ins (Boolean information
    flows from inputs toward outputs — the reasoning direction);
    ``'out'`` aggregates fan-outs; ``'both'`` the union.  Rows of nodes with
    no neighbors (PIs under ``'in'``) stay zero, so they aggregate nothing.
    """
    if direction not in DIRECTIONS:
        raise ValueError(f"unknown direction {direction!r}; expected {DIRECTIONS}")
    num_vars = aig.num_vars
    fanin0, fanin1 = aig.fanin_arrays()
    and_vars = np.array(list(aig.and_vars()), dtype=np.int64)
    if and_vars.size == 0:
        return sp.csr_matrix((num_vars, num_vars))
    src = np.concatenate([fanin0[and_vars] >> 1, fanin1[and_vars] >> 1])
    dst = np.concatenate([and_vars, and_vars])

    rows_list = []
    cols_list = []
    if direction in ("in", "both"):
        rows_list.append(dst)
        cols_list.append(src)
    if direction in ("out", "both"):
        rows_list.append(src)
        cols_list.append(dst)
    rows = np.concatenate(rows_list)
    cols = np.concatenate(cols_list)
    data = np.ones(len(rows), dtype=np.float64)
    matrix = sp.csr_matrix((data, (rows, cols)), shape=(num_vars, num_vars))
    # Mean aggregation: normalize each row by its degree.
    degrees = np.asarray(matrix.sum(axis=1)).ravel()
    scale = np.divide(1.0, degrees, out=np.zeros_like(degrees), where=degrees > 0)
    return sp.diags(scale) @ matrix


def build_graph_data(aig: AIG, feature_mode: str = "full", direction: str = "in",
                     with_labels: bool = True,
                     labels_source: str = "functional") -> GraphData:
    """Prepare one AIG for training or inference.

    ``labels_source='functional'`` uses the exact cut-based reasoner (always
    correct, slower); ``'structural'`` uses the linear-time pattern matcher
    (exact on generated multipliers, recommended for very wide operands).
    """
    labels = None
    if with_labels:
        if labels_source == "functional":
            detection = detect_xor_maj(aig)
        elif labels_source == "structural":
            detection = detect_xor_maj_structural(aig)
        else:
            raise ValueError(f"unknown labels_source {labels_source!r}")
        labels = ground_truth_labels(aig, detection)
    mask = np.ones(aig.num_vars, dtype=bool)
    mask[0] = False  # the constant node is not a classification target
    return GraphData(
        name=aig.name,
        features=encode_features(aig, feature_mode),
        adjacency=adjacency_operator(aig, direction),
        labels=labels,
        mask=mask,
        sizes=[aig.num_vars],
        levels=aig.levels_array().astype(np.int64, copy=True),
    )


def batch_graphs(graphs: list[GraphData]) -> GraphData:
    """Block-diagonal batch: one big disconnected graph (Fig. 8 batching)."""
    if not graphs:
        raise ValueError("cannot batch zero graphs")
    if len({g.num_feature_dims for g in graphs}) != 1:
        raise ValueError("all graphs in a batch need the same feature width")
    features = np.vstack([g.features for g in graphs])
    adjacency = sp.block_diag([g.adjacency for g in graphs], format="csr")
    mask = np.concatenate([g.node_mask() for g in graphs])
    labels = None
    if all(g.labels is not None for g in graphs):
        labels = {
            task: np.concatenate([g.labels[task] for g in graphs])
            for task in TASKS
        }
    levels = None
    if all(g.levels is not None for g in graphs):
        levels = np.concatenate([g.levels for g in graphs])
    return GraphData(
        name=f"batch[{','.join(g.name for g in graphs)}]",
        features=features,
        adjacency=adjacency,
        labels=labels,
        mask=mask,
        sizes=[n for g in graphs for n in g.sizes],
        levels=levels,
    )


def unbatch_predictions(predictions: dict[str, np.ndarray],
                        sizes: list[int]) -> list[dict[str, np.ndarray]]:
    """Split block-diagonal per-node predictions back into per-graph dicts.

    ``sizes`` is the node count of each member graph in batch order (e.g.
    ``[g.num_nodes for g in graphs]`` or the merged graph's ``sizes``).
    Rows are copied, so the returned arrays do not pin the merged batch in
    memory — they are safe to hold in a long-lived cache.
    """
    total = sum(sizes)
    for task, array in predictions.items():
        if array.shape[0] != total:
            raise ValueError(
                f"prediction task {task!r} has {array.shape[0]} rows, "
                f"but sizes sum to {total}"
            )
    split: list[dict[str, np.ndarray]] = []
    offset = 0
    for size in sizes:
        split.append({
            task: array[offset:offset + size].copy()
            for task, array in predictions.items()
        })
        offset += size
    return split
