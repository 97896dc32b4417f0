"""Full-size logits from the streamed forward pass.

The product only reduces streamed logits to labels inside each window
(:meth:`repro.learn.fast.FastInference.predict_streamed`).  The streaming
tests also compare the raw logits bit for bit against the full-graph
:meth:`~repro.learn.fast.FastInference.logits`, so they assemble the
per-window head outputs here.
"""

from __future__ import annotations

import numpy as np


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
