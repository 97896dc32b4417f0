"""Vectorized k ≤ 3 priority-cut enumeration over struct-of-arrays storage.

This is the array-shaped twin of :mod:`repro.aig.cuts`: instead of per-node
Python loops over :class:`~repro.aig.cuts.Cut` dataclasses, the whole graph
is swept bottom-up in one registered-kernel call: the NumPy reference goes
one topological level at a time, and every step of the merge — leaf union,
feasibility, truth recomputation, dedup, dominance filtering, ranking — is
a NumPy pass over all nodes of the level at once; the compiled backend
walks the nodes once in variable-id order.
With k ≤ 3 every cut function fits in a uint8 and every truth manipulation
becomes a table lookup, which is what makes the sweep array-shaped.

Array cut format
----------------
A :class:`CutArrays` holds, for ``N = aig.num_vars`` and ``C = max_cuts + 1``
slots per node (the ``+ 1`` is the trivial cut):

``leaves`` : ``(N, C, 3) int32``
    Cut leaves, ascending within each slot, padded with ``pad = num_vars``
    (an id no real variable can take).  Slot order is *identical* to the
    Cut-object enumerator's list order: non-trivial cuts ranked by
    ``(size, leaves)``, dominance-filtered, truncated to ``max_cuts``, then
    the trivial cut ``(var,)`` last.
``truths`` : ``(N, C) uint8``
    Truth table of the root over the slot's leaves (root positive polarity),
    masked to the cut's ``2**size`` valid bits — numerically equal to the
    :attr:`Cut.truth` integer.
``sizes`` : ``(N, C) int8``
    Number of leaves per slot (0 for unused slots).
``counts`` : ``(N,) int32``
    Number of valid slots per node; PIs and the constant node have exactly
    their trivial cut.

Equivalence with the Cut-object enumerator (same cuts, same truths, same slot
order, including truncation and dominance edge cases) is enforced by
``tests/test_fast_cuts.py``; the Cut-object API remains the differential
oracle and the entry point for ``k > 3`` (technology mapping).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.aig.cuts import TRIVIAL_TRUTH, Cut, CutSet
from repro.aig.graph import AIG
from repro.kernels.numpy_backend import _SAFE_PACK_LIMIT, EXPAND_LUT  # noqa: F401
from repro.kernels.registry import get_kernel

__all__ = [
    "CutArrays",
    "enumerate_cuts_arrays",
    "classify_cut_arrays",
    "matched_leaf_sets",
]


@dataclass
class CutArrays:
    """Struct-of-arrays priority cuts for every variable (format above)."""

    leaves: np.ndarray  # (N, C, 3) int32, padded with num_vars
    truths: np.ndarray  # (N, C) uint8
    sizes: np.ndarray  # (N, C) int8
    counts: np.ndarray  # (N,) int32
    k: int
    max_cuts: int

    @property
    def num_vars(self) -> int:
        return self.leaves.shape[0]

    def cuts_of(self, var: int) -> CutSet:
        """``list[Cut]`` adapter for one variable (slot order kept)."""
        out: CutSet = []
        for slot in range(int(self.counts[var])):
            size = int(self.sizes[var, slot])
            out.append(
                Cut(
                    tuple(int(x) for x in self.leaves[var, slot, :size]),
                    int(self.truths[var, slot]),
                )
            )
        return out

    def to_cutsets(self) -> list[CutSet]:
        """Full conversion to Cut-object per-variable cut lists."""
        return [self.cuts_of(var) for var in range(self.num_vars)]

    def __repr__(self) -> str:
        return (
            f"CutArrays(num_vars={self.num_vars}, k={self.k}, "
            f"max_cuts={self.max_cuts}, total_cuts={int(self.counts.sum())})"
        )


def enumerate_cuts_arrays(aig: AIG, k: int = 3, max_cuts: int = 8,
                          include_trivial: bool = True,
                          pack_limit: int | None = None,
                          restrict_to=None) -> CutArrays:
    """Enumerate priority cuts for the whole graph in one bottom-up sweep.

    Produces exactly the cuts (and slot order) of
    :func:`repro.aig.cuts.enumerate_cuts` with the same parameters, but as
    :class:`CutArrays` and with all per-node work in one kernel call.  Only
    ``k ∈ {2, 3}`` is supported — larger cuts do not fit the uint8 truth
    domain; use the Cut-object enumerator for those.

    ``pack_limit`` overrides the int64-packing threshold that triggers the
    NumPy merge's per-level leaf compaction on huge graphs (testing hook: a
    small value forces the compaction path on small graphs; the compiled
    merge never packs keys).

    ``restrict_to`` limits the sweep to the transitive fan-in cones of the
    given root variables: nodes outside the cones keep ``counts == 0``.
    Restricted nodes get *exactly* the cuts the full sweep would give them
    (a node's cuts depend only on its fan-in cone), so consumers that only
    read cone nodes — e.g. LSB repair — can skip the rest of the graph.
    """
    if k < 2:
        raise ValueError("cut size k must be at least 2")
    if k > 3:
        raise ValueError(
            f"fast cut engine handles k <= 3 (got k={k}); "
            "use repro.aig.cuts.enumerate_cuts for wider cuts"
        )
    if max_cuts < 1:
        raise ValueError("max_cuts must be at least 1")
    num_vars = aig.num_vars
    slots = max_cuts + (1 if include_trivial else 0)
    # Slot capacity never exceeded: ranked cuts are truncated to max_cuts
    # and the trivial cut takes one more slot.
    pad = num_vars
    leaves = np.full((num_vars, slots, 3), pad, dtype=np.int32)
    truths = np.zeros((num_vars, slots), dtype=np.uint8)
    sizes = np.zeros((num_vars, slots), dtype=np.int8)
    counts = np.zeros(num_vars, dtype=np.int32)

    # Constant node and PIs carry only their trivial cut (as in
    # repro.aig.cuts: the constant is treated as an opaque leaf variable).
    boundary = np.arange(aig.num_inputs + 1)
    leaves[boundary, 0, 0] = boundary
    truths[boundary, 0] = TRIVIAL_TRUTH
    sizes[boundary, 0] = 1
    counts[boundary] = 1

    if aig.num_ands == 0:
        return CutArrays(leaves, truths, sizes, counts, k, max_cuts)

    fanin0, fanin1 = aig.fanin_arrays()
    if pack_limit is None:
        pack_limit = _SAFE_PACK_LIMIT
    elif pack_limit < 6 * slots + 2:
        # Even a single-node chunk brings up to 6*slots distinct leaves
        # (plus the pad) into one compacted universe; a limit below that
        # cannot be honored and would wrap the int64 rank keys.
        raise ValueError(
            f"pack_limit must be at least {6 * slots + 2} "
            f"for max_cuts={max_cuts}, got {pack_limit}"
        )
    first = 1 + aig.num_inputs
    if restrict_to is None:
        nodes = np.arange(first, num_vars, dtype=np.int64)
        level_batches = aig.and_level_batches()
    else:
        cone = aig.transitive_fanin_array(restrict_to)
        nodes = cone[cone >= first]
        level_batches = _cone_level_batches(aig, nodes)
    # The sweep's merge is a registered kernel (repro.kernels): a compiled
    # one walks `nodes` in id order in one call, the numpy one merges the
    # lazy level batches; both fill the same columns bit-identically.
    if len(nodes):
        get_kernel("merge_level")(
            nodes, level_batches, fanin0, fanin1, leaves, truths, sizes,
            counts, k=k, max_cuts=max_cuts, include_trivial=include_trivial,
            pad=pad, pack_limit=pack_limit)
    return CutArrays(leaves, truths, sizes, counts, k, max_cuts)


def _cone_level_batches(aig: AIG, nodes: np.ndarray):
    """:meth:`AIG.and_level_batches` narrowed to ``nodes``, empties dropped."""
    in_cone = np.zeros(aig.num_vars, dtype=bool)
    in_cone[nodes] = True
    for batch in aig.and_level_batches():
        batch = batch[in_cone[batch]]
        if len(batch):
            yield batch


def classify_cut_arrays(cuts: CutArrays) -> tuple[np.ndarray, np.ndarray]:
    """Per-slot XOR/MAJ membership masks, one fancy-indexing expression each.

    Returns boolean ``(N, C)`` arrays ``(is_xor, is_maj)``: slot matches the
    NPN class of XOR2 (2-leaf cuts) / XOR3 / MAJ3 (3-leaf cuts).  The two
    masks are disjoint because NPN orbits partition the truth tables.
    """
    from repro.aig.npn import IS_MAJ3_LUT, IS_XOR2_LUT, IS_XOR3_LUT

    valid = (
        np.arange(cuts.truths.shape[1])[None, :] < cuts.counts[:, None]
    )
    two = valid & (cuts.sizes == 2)
    three = valid & (cuts.sizes == 3)
    is_xor = (two & IS_XOR2_LUT[cuts.truths]) | (three & IS_XOR3_LUT[cuts.truths])
    is_maj = three & IS_MAJ3_LUT[cuts.truths]
    return is_xor, is_maj


def _collect_leaf_sets(cuts: CutArrays,
                       mask: np.ndarray) -> dict[int, list[tuple[int, ...]]]:
    """Group a slot mask into the ``var -> [leaf tuples]`` detection mapping."""
    rows, slot = np.nonzero(mask)
    out: dict[int, list[tuple[int, ...]]] = {}
    if rows.size == 0:
        return out
    picked_leaves = cuts.leaves[rows, slot].tolist()
    picked_sizes = cuts.sizes[rows, slot].tolist()
    for var, leaf_row, size in zip(rows.tolist(), picked_leaves, picked_sizes):
        out.setdefault(var, []).append(tuple(leaf_row[:size]))
    return out


def matched_leaf_sets(
    cuts: CutArrays,
) -> tuple[dict[int, list[tuple[int, ...]]], dict[int, list[tuple[int, ...]]]]:
    """XOR- and MAJ-matching cuts of every node, in detection-dict shape.

    Returns ``(xor_sets, maj_sets)`` where each maps a root variable to its
    matching leaf tuples in slot (= Cut-object list) order — the exact payload
    :class:`~repro.reasoning.xor_maj.XorMajDetection` stores.
    """
    is_xor, is_maj = classify_cut_arrays(cuts)
    return _collect_leaf_sets(cuts, is_xor), _collect_leaf_sets(cuts, is_maj)
