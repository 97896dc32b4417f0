"""One planner for every serving forward pass.

:func:`plan_shards` turns a batch of encoded graphs into a :class:`BatchPlan`:
a list of :class:`PlanStep` s, each holding the ascending member indices of
one block-diagonal merge plus one :class:`~repro.learn.data.WindowPlan` over
that merge.  The executor runs every step the same way, through
:meth:`~repro.learn.fast.FastInference.predict_streamed`; a one-window plan
is the full-graph pass, a many-window plan the level-windowed one.

Graphs are packed greedily first-fit-decreasing: considered from largest to
smallest estimated footprint (per
:func:`~repro.learn.infer.estimate_inference_memory`, the analytic model
behind the paper's Fig. 8 curves) and placed into the first open step whose
*combined* estimate stays within ``max_shard_bytes`` (the estimate is
monotone in nodes and edges, so re-evaluating the merged total is exact).
A packed step gets the one-window plan of its merge
(:meth:`GraphData.full_window_plan <repro.learn.data.GraphData.full_window_plan>`),
whose ``peak_window_bytes`` is that estimate.  A graph that alone exceeds
the budget is *oversize* and becomes a singleton step: without a window
budget it still runs as one unbounded full-graph pass; with
``max_window_bytes`` set it is *streamed* —
:meth:`~repro.learn.data.GraphData.window_plan` slices it into windows
whose peak activation memory follows the window budget instead of the
circuit size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.learn.data import GraphData, WindowPlan
from repro.learn.infer import estimate_inference_memory

__all__ = ["BatchPlan", "PlanStep", "plan_shards"]


@dataclass
class PlanStep:
    """One block-diagonal merge and the window plan that runs it."""

    indices: list[int]  # ascending, into the planner input
    window_plan: WindowPlan
    streamed: bool = False  # planned under the window budget

    def __len__(self) -> int:
        return len(self.indices)


@dataclass
class BatchPlan:
    """Every forward pass of one batch, in execution order."""

    steps: list[PlanStep] = field(default_factory=list)
    max_shard_bytes: int | None = None  # None: unbounded (single step)
    max_window_bytes: int | None = None  # None: oversize steps run full-graph

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)

    @property
    def peak_shard_bytes(self) -> int:
        """Peak estimated bytes across steps: each plan's largest window."""
        return max((s.window_plan.peak_window_bytes for s in self.steps),
                   default=0)

    @property
    def num_oversize(self) -> int:
        """Lone graphs whose full-graph estimate exceeds the shard budget."""
        if self.max_shard_bytes is None:
            return 0
        return sum(
            1 for s in self.steps
            if s.streamed
            or s.window_plan.peak_window_bytes > self.max_shard_bytes
        )

    @property
    def num_streamed(self) -> int:
        return sum(1 for s in self.steps if s.streamed)

    @property
    def num_windows(self) -> int:
        return sum(s.window_plan.num_windows for s in self.steps
                   if s.streamed)

    def summary(self) -> str:
        budget = (
            "unbounded" if self.max_shard_bytes is None
            else f"{self.max_shard_bytes / 1024 ** 2:.1f}MiB"
        )
        text = (
            f"{len(self.steps)} shard(s), peak "
            f"{self.peak_shard_bytes / 1024 ** 2:.1f}MiB (budget {budget}, "
            f"{self.num_oversize} oversize)"
        )
        if self.num_streamed:
            text += (
                f", {self.num_streamed} streamed over "
                f"{self.num_windows} window(s)"
            )
        if not all(s.window_plan.within_budget for s in self.steps):
            text += " — OVER BUDGET"
        return text


def plan_shards(model, graphs: list[GraphData],
                max_shard_bytes: int | None = None,
                max_window_bytes: int | None = None) -> BatchPlan:
    """Plan the forward passes of a batch of encoded graphs.

    ``max_shard_bytes`` of ``None`` (or a non-positive value) disables
    packing: everything lands in one one-window step.  Otherwise the
    first-fit-decreasing pack keeps each step's estimate at or under the
    budget, and a graph whose standalone estimate already exceeds it gets
    its own step — streamed under ``max_window_bytes`` when that is set.
    ``model`` may be a ``GamoraNet`` (float64 training pricing) or a
    compiled :class:`~repro.learn.fast.FastInference` (float32 serving
    pricing).  Steps are ordered by their smallest member index, so
    execution order is deterministic for a given input.
    """
    if max_shard_bytes is not None and max_shard_bytes <= 0:
        max_shard_bytes = None
    if max_window_bytes is not None and max_window_bytes <= 0:
        max_window_bytes = None
    plan = BatchPlan([], max_shard_bytes, max_window_bytes)
    if not graphs:
        return plan
    # Packed merges as [member indices, total nodes, total edges].
    packed: list[list] = []
    if max_shard_bytes is None:
        packed.append([list(range(len(graphs))),
                       sum(g.num_nodes for g in graphs),
                       sum(g.num_edges for g in graphs)])
    else:
        standalone = [
            estimate_inference_memory(model, g.num_nodes, g.num_edges)
            for g in graphs
        ]
        # Largest first; ties broken by input position for determinism.
        order = sorted(range(len(graphs)), key=lambda i: (-standalone[i], i))
        for index in order:
            graph = graphs[index]
            if standalone[index] > max_shard_bytes \
                    and max_window_bytes is not None:
                plan.steps.append(PlanStep(
                    [index], graph.window_plan(max_window_bytes, model),
                    streamed=True,
                ))
                continue
            # Oversize without a window budget: the estimate is monotone, so
            # its merge below stays a singleton.
            for merge in packed:
                nodes = merge[1] + graph.num_nodes
                edges = merge[2] + graph.num_edges
                if estimate_inference_memory(model, nodes, edges) \
                        <= max_shard_bytes:
                    merge[0].append(index)
                    merge[1], merge[2] = nodes, edges
                    break
            else:
                packed.append([[index], graph.num_nodes, graph.num_edges])
    plan.steps += [
        PlanStep(sorted(indices), WindowPlan.one_window(model, nodes, edges))
        for indices, nodes, edges in packed
    ]
    plan.steps.sort(key=lambda s: s.indices[0])
    return plan
