"""Word-level abstraction on top of extracted adder trees.

Groups matched FA/HA slices into the carry-save reduction DAG and produces
the summary a verification flow consumes: tree depth (ranks), partial
products feeding the tree, and which adder outputs drive primary outputs.
This is the "word-level abstraction" payoff the paper targets (Sec. II-B):
once the adder tree is known, the multiplier collapses from tens of
thousands of AND nodes to a few hundred arithmetic slices.

Array core
----------
:func:`analyze_adder_tree` runs on the tree's struct-of-arrays core:
ranks come from a Kahn wavefront over the cached CSR link index, leaf
classification and output linkage are single vectorized membership
passes, and no per-adder Python walk remains.  The original per-adder
loop lives on in ``tests/oracles/`` as the differential-test oracle and
the runtime baseline of ``benchmarks/bench_wordlevel_fast.py``.  The
:class:`WordLevelReport` normalizes its collections on construction
(sorted lists), so equality is well-defined and stable across runs
regardless of which implementation — or which set-iteration order —
built it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.aig.graph import AIG
from repro.reasoning.adder_tree import KIND_FA, KIND_HA, AdderTree
from repro.kernels.registry import get_kernel
from repro.utils.arrays import in_sorted

__all__ = [
    "WordLevelReport",
    "analyze_adder_tree",
    "analyze_adder_trees",
    "partial_product_leaves",
    "compare_adder_trees",
]


@dataclass
class WordLevelReport:
    """Summary of an extracted adder tree as a word-level structure.

    All collections are normalized on construction — ``ranks`` levels are
    ascending adder indexes, ``pp_leaves`` / ``pi_leaves`` /
    ``output_roots`` are sorted deduplicated lists — so two reports over
    the same tree compare equal no matter which code built them or what
    iteration order their inputs arrived in (sets used to leak their
    run-dependent order here).
    """

    num_full_adders: int
    num_half_adders: int
    num_links: int
    ranks: list[list[int]] = field(default_factory=list)  # adder indexes by depth
    pp_leaves: list[int] = field(default_factory=list)  # leaves that are PP ANDs
    pi_leaves: list[int] = field(default_factory=list)  # leaves that are PIs
    output_roots: list[int] = field(default_factory=list)  # roots driving POs

    def __post_init__(self) -> None:
        self.ranks = [sorted(int(i) for i in level) for level in self.ranks]
        self.pp_leaves = sorted({int(v) for v in self.pp_leaves})
        self.pi_leaves = sorted({int(v) for v in self.pi_leaves})
        self.output_roots = sorted({int(v) for v in self.output_roots})

    @property
    def depth(self) -> int:
        return len(self.ranks)

    @property
    def num_adders(self) -> int:
        return self.num_full_adders + self.num_half_adders

    def summary(self) -> str:
        return (
            f"adder tree: {self.num_full_adders} FA + {self.num_half_adders} HA, "
            f"{self.num_links} links, depth {self.depth}, "
            f"{len(self.pp_leaves)} partial-product leaves, "
            f"{len(self.pi_leaves)} PI leaves, "
            f"{len(self.output_roots)} output-driving roots"
        )


def partial_product_leaves(aig: AIG, tree: AdderTree) -> tuple[set[int], set[int]]:
    """Split adder-tree leaves into partial-product ANDs and direct PIs.

    In a multiplier, every leaf that is not another adder's output should be
    either a primary input or an AND of primary inputs (a partial product) —
    a useful sanity invariant that tests assert on generated multipliers.
    """
    pp_arr, pi_arr = _classify_external_leaves(aig, tree)
    return set(pp_arr.tolist()), set(pi_arr.tolist())


def _classify_external_leaves(aig: AIG,
                              tree: AdderTree) -> tuple[np.ndarray, np.ndarray]:
    """Sorted (pp, pi) leaf arrays: one vectorized membership pass."""
    core = tree.arrays()
    leaves = core.leaf_vars()
    external = leaves[~in_sorted(leaves, core.root_vars())]
    first_and = 1 + aig.num_inputs
    pp = external[(external >= first_and) & (external < aig.num_vars)]
    pi = external[(external >= 1) & (external < first_and)]
    return pp, pi


def compare_adder_trees(reference: AdderTree, candidate: AdderTree) -> dict[str, float]:
    """Precision/recall/F1 of ``candidate`` slices against ``reference``.

    A slice matches when both roots coincide — the criterion that matters
    for downstream rewriting.  Used to score prediction-based extraction
    against exact reasoning (the gap of the paper's Fig. 3(d) vs 3(e)).
    Joins the two trees' cached packed root-pair keys
    (:meth:`~repro.reasoning.adder_tree.AdderTreeArrays.root_pair_keys`)
    instead of rebuilding Python pair sets on every call.
    """
    ref_keys = reference.arrays().root_pair_keys()
    cand_keys = candidate.arrays().root_pair_keys()
    if not len(ref_keys) and not len(cand_keys):
        return {"precision": 1.0, "recall": 1.0, "f1": 1.0}
    hits = len(np.intersect1d(ref_keys, cand_keys, assume_unique=True))
    precision = hits / len(cand_keys) if len(cand_keys) else 0.0
    recall = hits / len(ref_keys) if len(ref_keys) else 0.0
    f1 = (
        2.0 * precision * recall / (precision + recall)
        if precision + recall > 0
        else 0.0
    )
    return {"precision": precision, "recall": recall, "f1": f1}


def _core_ranks(core) -> np.ndarray:
    """Longest-path rank per adder row of one (or a merged) array core.

    Runs the registered ``kahn_propagate`` kernel (:mod:`repro.kernels`,
    shared with :meth:`AIG.levels_array`): a frontier of rank-final adders
    pushes ``rank + 1`` through the CSR fan-out index; an adder joins the
    next frontier when its last incoming edge resolves.  The adder DAG
    inherits acyclicity
    from the AIG (links follow variable topological order), so every adder
    is processed exactly once.  On a block-diagonal merged core the
    components are disjoint, so ranks equal the per-tree ones.
    """
    num_adders = len(core)
    src, dst = core.link_edges()
    rank = np.zeros(num_adders, dtype=np.int64)
    if len(src):
        indptr, consumers = core.link_csr()
        indegree = np.bincount(dst, minlength=num_adders)
        get_kernel("kahn_propagate")(
            np.asarray(indptr, dtype=np.int64),
            np.asarray(consumers, dtype=np.int64),
            indegree, rank,
        )
    return rank


def _ranks_to_levels(rank: np.ndarray) -> list[list[int]]:
    """Group row indexes by rank: ``levels[d]`` lists rank-``d`` adders."""
    if not len(rank):
        return []
    order = np.argsort(rank, kind="stable")  # ascending index per rank
    ordered = rank[order]
    depth = int(ordered[-1]) + 1
    bounds = np.searchsorted(ordered, np.arange(depth + 1))
    return [order[bounds[level]:bounds[level + 1]].tolist()
            for level in range(depth)]


def analyze_adder_tree(aig: AIG, tree: AdderTree) -> WordLevelReport:
    """Build the word-level report: ranks, leaf classes, output linkage.

    Runs entirely on the tree's array core — a Kahn wavefront over the
    cached CSR link index for the ranks, one membership pass each for leaf
    classes and output roots.
    """
    core = tree.arrays()
    src, _ = core.link_edges()
    ranks = _ranks_to_levels(_core_ranks(core))
    pp, pi = _classify_external_leaves(aig, tree)
    out_vars = np.unique(np.asarray(aig.outputs, dtype=np.int64) >> 1)
    output_roots = out_vars[in_sorted(out_vars, core.root_vars())]
    return WordLevelReport(
        num_full_adders=int(np.count_nonzero(core.kind == KIND_FA)),
        num_half_adders=int(np.count_nonzero(core.kind == KIND_HA)),
        num_links=len(src),
        ranks=ranks,
        pp_leaves=pp.tolist(),
        pi_leaves=pi.tolist(),
        output_roots=output_roots.tolist(),
    )


def analyze_adder_trees(items) -> list[WordLevelReport]:
    """Batched :func:`analyze_adder_tree` over ``(aig, tree)`` pairs.

    Concatenates the trees' :class:`~repro.reasoning.adder_tree.AdderTreeArrays`
    cores into one block-diagonal core — each tree's variable columns
    offset by its circuit's cumulative ``num_vars``, exactly the
    :func:`~repro.learn.data.batch_graphs` idiom — and runs the link
    derivation plus the Kahn rank wavefront **once** over the merged rows.
    The variable ranges are disjoint, so no link can cross trees and the
    merged ranks equal the per-tree ones; per-circuit leaf classification
    and output linkage then shell out the merged arrays by row/var range.

    Returns one :class:`WordLevelReport` per input pair, in order, equal
    to calling :func:`analyze_adder_tree` per pair (the differential tests
    pin this).
    """
    items = list(items)
    if not items:
        return []

    from repro.reasoning.adder_tree import _LEAF_PAD, AdderTreeArrays

    cores = [tree.arrays() for _, tree in items]
    rows = np.fromiter((len(c) for c in cores), np.int64, len(cores))
    row_base = np.concatenate([[0], np.cumsum(rows)])
    var_counts = np.fromiter((aig.num_vars for aig, _ in items),
                             np.int64, len(items))
    var_base = np.concatenate([[0], np.cumsum(var_counts)])
    # AdderTreeArrays stores int32 columns; the merged variable space must
    # fit or the offsets would silently wrap.  Batches anywhere near 2**31
    # total variables shard upstream long before word-level analysis.
    if var_base[-1] >= np.iinfo(np.int32).max:
        return [analyze_adder_tree(aig, tree) for aig, tree in items]

    width = max(3, max(c.leaves.shape[1] for c in cores))
    merged_leaves = np.full((int(row_base[-1]), width), _LEAF_PAD,
                            dtype=np.int64)
    merged_sum = np.zeros(int(row_base[-1]), dtype=np.int64)
    merged_carry = np.zeros_like(merged_sum)
    for index, core in enumerate(cores):
        lo, hi = row_base[index], row_base[index + 1]
        if lo == hi:
            continue
        base = var_base[index]
        merged_sum[lo:hi] = core.sum_var.astype(np.int64) + base
        merged_carry[lo:hi] = core.carry_var.astype(np.int64) + base
        block = core.leaves.astype(np.int64)
        live = block != _LEAF_PAD
        merged_leaves[lo:hi, :block.shape[1]] = np.where(
            live, block + base, _LEAF_PAD
        )
    merged = AdderTreeArrays(
        np.concatenate([c.kind for c in cores]),
        merged_sum, merged_carry, merged_leaves,
        np.concatenate([c.leaf_count for c in cores]),
    )

    rank = _core_ranks(merged)
    src, dst = merged.link_edges()
    # Edges never cross trees, so the consumer row locates each edge's tree.
    links_per = np.bincount(
        np.searchsorted(row_base, dst, side="right") - 1, minlength=len(items)
    ) if len(dst) else np.zeros(len(items), dtype=np.int64)

    # External leaves of the merged core, split back per tree by var range.
    merged_roots = merged.root_vars()
    merged_leaf_vars = merged.leaf_vars()
    external = merged_leaf_vars[~in_sorted(merged_leaf_vars, merged_roots)]
    ext_bounds = np.searchsorted(external, var_base)

    reports: list[WordLevelReport] = []
    for index, (aig, _) in enumerate(items):
        core = cores[index]
        base = var_base[index]
        local_rank = rank[row_base[index]:row_base[index + 1]]
        local_external = (
            external[ext_bounds[index]:ext_bounds[index + 1]] - base
        )
        first_and = 1 + aig.num_inputs
        pp = local_external[(local_external >= first_and)
                            & (local_external < aig.num_vars)]
        pi = local_external[(local_external >= 1)
                            & (local_external < first_and)]
        out_vars = np.unique(np.asarray(aig.outputs, dtype=np.int64) >> 1)
        output_roots = out_vars[in_sorted(out_vars + base, merged_roots)]
        reports.append(WordLevelReport(
            num_full_adders=int(np.count_nonzero(core.kind == KIND_FA)),
            num_half_adders=int(np.count_nonzero(core.kind == KIND_HA)),
            num_links=int(links_per[index]),
            ranks=_ranks_to_levels(local_rank),
            pp_leaves=pp.tolist(),
            pi_leaves=pi.tolist(),
            output_roots=output_roots.tolist(),
        ))
    return reports
