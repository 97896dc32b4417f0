"""Streaming references: full-size streamed logits and the bisection planner.

The product only reduces streamed logits to labels inside each window
(:meth:`repro.learn.fast.FastInference.predict_streamed`).  The streaming
tests also compare the raw logits bit for bit against the full-graph
:meth:`~repro.learn.fast.FastInference.logits`, so they assemble the
per-window head outputs here.

:func:`window_plan_bisect` is the window planner the product replaced:
it rebuilds every probe's K-hop halo with
:func:`~repro.learn.data.halo_blocks` and finds each window by doubling
and binary refinement.  :meth:`repro.learn.data.GraphData.window_plan`
must return exactly its plans.
"""

from __future__ import annotations

import numpy as np

from repro.learn.data import Window, WindowPlan, halo_blocks


def logits_streamed(kernel, features, adjacency, plan) -> dict[str, np.ndarray]:
    """``kernel``'s head logits over ``plan``, assembled window by window.

    Bit-identical to ``kernel.logits(features, adjacency)``; a plan built
    for another graph or layer count raises ``ValueError``.
    """
    num_nodes = features.shape[0]
    out = {
        task: np.empty((num_nodes, width), dtype=kernel.dtype)
        for task, width in kernel.head_widths().items()
    }
    for targets, head_logits in kernel._window_logits(features, adjacency, plan):
        for task, arr in head_logits.items():
            out[task][targets] = arr
    return out


def window_plan_bisect(data, max_window_bytes: int, model,
                       training: bool = False) -> WindowPlan:
    """``data.window_plan(max_window_bytes, model, training)`` by bisection.

    Each window is grown — doubling, then binary refinement, both exact
    because :func:`~repro.learn.infer.estimate_window_memory` is monotone
    in window size — to the largest slice whose halo stays under
    ``max_window_bytes``; every probe builds its halo from scratch.
    """
    from repro.learn.infer import estimate_window_memory

    if max_window_bytes is None or max_window_bytes <= 0:
        raise ValueError("max_window_bytes must be a positive byte count")
    num_hops = model.config.num_layers
    order = np.argsort(data.node_levels(), kind="stable")
    indptr = data.adjacency.indptr
    total = data.num_nodes

    def evaluate(start: int, size: int) -> Window:
        targets = np.sort(order[start:start + size])
        blocks = halo_blocks(data.adjacency, targets, num_hops)
        sizes = [int(b.size) for b in blocks]
        edges = [
            int((indptr[rows + 1] - indptr[rows]).sum())
            for rows in blocks[1:]
        ]
        cost = estimate_window_memory(model, sizes, edges,
                                      training=training)
        return Window(targets, sizes, edges, int(cost))

    windows: list[Window] = []
    pos = 0
    while pos < total:
        remaining = total - pos
        size = min(2, remaining)
        window = evaluate(pos, size)
        if window.estimated_bytes <= max_window_bytes and size < remaining:
            low = size  # largest size known to fit
            high = remaining
            while low < high:
                trial = min(low * 2, remaining)
                candidate = evaluate(pos, trial)
                if candidate.estimated_bytes <= max_window_bytes:
                    window, low, size = candidate, trial, trial
                    if trial == remaining:
                        high = trial
                else:
                    high = trial - 1
                    break
            while low < high:
                mid = (low + high + 1) // 2
                candidate = evaluate(pos, mid)
                if candidate.estimated_bytes <= max_window_bytes:
                    window, low, size = candidate, mid, mid
                else:
                    high = mid - 1
        if remaining - size == 1:
            # Never leave a single-node tail (the GEMV caveat of
            # GraphData.window_plan):
            # shrink to leave a 2-node tail, or absorb the straggler.
            size = size - 1 if size >= 3 else remaining
            window = evaluate(pos, size)
        windows.append(window)
        pos += size
    return WindowPlan(total, num_hops, int(max_window_bytes), windows)
