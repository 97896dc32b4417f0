"""Array-shaped FA/HA pairing: the vectorized twin of the extraction loops.

This is to :func:`repro.reasoning.adder_tree.extract_adder_tree` what
:mod:`repro.aig.fast_cuts` is to the Cut-object enumerator: the same
result, produced by whole-graph array passes instead of per-root Python
loops.  The stages map one-to-one onto the per-root extractor kept as the
test oracle (``tests/oracles/``):

* **candidate grouping** — XOR/MAJ roots and their matching leaf sets are
  flattened into struct-of-arrays form (:class:`PairingCandidates`), either
  straight from a :class:`~repro.aig.fast_cuts.CutArrays` sweep (label
  generation and the array-native serving path, which also filters rows
  with :meth:`PairingCandidates.select_roots` /
  :meth:`~PairingCandidates.restrict_roots` instead of rebuilding dicts)
  or from a prediction-verified
  :class:`~repro.reasoning.xor_maj.XorMajDetection`
  (:meth:`~PairingCandidates.to_detection` is the inverse adapter).  Rows
  are canonically sorted, which is what makes the whole pipeline
  independent of dict-insertion order;
* **FA edge construction** — MAJ and XOR3 candidates are joined on a packed
  leaf-triple key with one ``searchsorted`` pass (sort-based grouping
  instead of per-root dict probing), self-pairs dropped, and parallel
  ``(maj, xor)`` edges collapsed to their lexicographically smallest shared
  leaf set;
* **matching** — connected components that are a single MAJ–XOR pair (the
  overwhelming majority on adder trees) are matched wholesale in array
  form; only the ambiguous remainder — e.g. Booth netlists where several
  roots share coincident leaf sets — goes through the deterministic
  :func:`~repro.reasoning.matching.maximum_bipartite_matching`.  The split
  is exact: an isolated pair is matched by Kuhn's algorithm no matter when
  it is visited, so pre-matching it cannot change the rest of the matching;
* **cone consumption** — matched slices' interiors are computed for *all*
  adders at once by a level-ordered frontier sweep over ``(node, owner)``
  pairs (:func:`batched_cones`) instead of one ``_cone_between`` DFS per
  root, and conflicts (a root claimed by an earlier slice's interior) are
  detected vectorized; only when one exists — never on clean adder trees —
  does emission fall back to the sequential consume-as-you-go order;
* **HA selection** — the carry pool comes from the cached
  :meth:`AIG.and_pair_groups <repro.aig.graph.AIG.and_pair_groups>` index
  (built once per graph, not once per call), candidates interior to their
  own XOR are filtered in one vectorized membership pass, and the remaining
  first-free-carry scan is O(1) boolean-array probes per root.

Matched slices are emitted straight into the tree's struct-of-arrays core
(:class:`~repro.reasoning.adder_tree.AdderTreeArrays`) — the
``ExtractedAdder`` objects, the ``consumed`` set and the detection dicts
exist only as lazy views on the result.  Bit-for-bit equivalence with
that oracle — same adders, same order, same ``consumed`` set — is enforced
by ``tests/test_fast_pairing.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.aig.graph import AIG
from repro.kernels.registry import get_kernel
from repro.reasoning.adder_tree import (
    KIND_FA,
    KIND_HA,
    AdderTree,
    AdderTreeArrays,
)
from repro.reasoning.matching import maximum_bipartite_matching
from repro.reasoning.xor_maj import XorMajDetection
from repro.utils.arrays import in_sorted, ragged_gather, sorted_unique

__all__ = [
    "PairingCandidates",
    "batched_cones",
    "fast_extract_adder_tree",
    "pair_candidates",
]

def _flatten_leaf_sets(
    leaf_sets_by_var: dict[int, list[tuple[int, ...]]],
) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Split a ``var -> [leaf tuples]`` mapping into 2- and 3-leaf arrays.

    Returns ``((vars2, leaves2_flat), (vars3, leaves3_flat))``.  The
    iteration stays at C speed (``chain.from_iterable`` + ``fromiter``):
    per-tuple Python work is what made dict flattening a hot spot.
    """
    from itertools import chain

    count = len(leaf_sets_by_var)
    sets_per_var = np.fromiter(
        map(len, leaf_sets_by_var.values()), np.int64, count
    )
    num_sets = int(sets_per_var.sum())
    if num_sets == 0:
        empty = np.zeros(0, dtype=np.int64)
        return (empty, empty), (empty, empty)
    var_of_set = np.repeat(
        np.fromiter(leaf_sets_by_var.keys(), np.int64, count), sets_per_var
    )
    flat_sets = list(chain.from_iterable(leaf_sets_by_var.values()))
    widths = np.fromiter(map(len, flat_sets), np.int64, num_sets)
    flat_leaves = np.fromiter(
        chain.from_iterable(flat_sets), np.int64, int(widths.sum())
    )
    offsets = np.concatenate([[0], np.cumsum(widths)[:-1]])
    rows2 = np.flatnonzero(widths == 2)
    rows3 = np.flatnonzero(widths == 3)
    return (
        (var_of_set[rows2],
         flat_leaves[offsets[rows2][:, None] + np.arange(2)].ravel()),
        (var_of_set[rows3],
         flat_leaves[offsets[rows3][:, None] + np.arange(3)].ravel()),
    )


def _canonical_rows(vars_: list[int] | np.ndarray,
                    leaves: list | np.ndarray,
                    width: int) -> tuple[np.ndarray, np.ndarray]:
    """Sort candidate rows by ``(var, leaves)`` and drop exact duplicates.

    This is the determinism anchor: whatever order the detection inserted
    roots or listed leaf sets, candidates come out in one canonical order
    (the order the per-root loop sees after its own sort).  ``leaves`` may be
    a flat sequence of ``len(vars_) * width`` ints.
    """
    if len(vars_) == 0:
        return (np.zeros(0, dtype=np.int64),
                np.zeros((0, width), dtype=np.int64))
    var_column = np.asarray(vars_, dtype=np.int64)
    leaf_rows = np.asarray(leaves, dtype=np.int64).reshape(len(var_column),
                                                           width)
    order = np.lexsort(
        tuple(leaf_rows[:, col] for col in range(width - 1, -1, -1))
        + (var_column,)
    )
    var_column, leaf_rows = var_column[order], leaf_rows[order]
    if len(var_column) > 1:
        distinct = np.r_[
            True,
            (var_column[1:] != var_column[:-1])
            | np.any(leaf_rows[1:] != leaf_rows[:-1], axis=1),
        ]
        var_column, leaf_rows = var_column[distinct], leaf_rows[distinct]
    return var_column, leaf_rows


@dataclass
class PairingCandidates:
    """XOR/MAJ candidate cuts flattened to arrays, in canonical row order.

    ``xor2_*`` rows are the half-adder sum candidates (2-leaf XOR cuts),
    ``xor3_*`` / ``maj_*`` the full-adder sum/carry candidates.  Every
    array pair is sorted by ``(root var, leaves)`` with duplicates removed.
    """

    num_vars: int
    xor2_var: np.ndarray  # (X2,) int64
    xor2_leaves: np.ndarray  # (X2, 2) int64, ascending per row
    xor3_var: np.ndarray  # (X3,) int64
    xor3_leaves: np.ndarray  # (X3, 3) int64
    maj_var: np.ndarray  # (M,) int64
    maj_leaves: np.ndarray  # (M, 3) int64

    @classmethod
    def from_detection(cls, detection: XorMajDetection,
                       num_vars: int) -> "PairingCandidates":
        """Flatten a (possibly arbitrarily ordered) detection result."""
        x2, x3_xor = _flatten_leaf_sets(detection.xor_roots)
        _, maj3 = _flatten_leaf_sets(detection.maj_roots)
        return cls(num_vars, *_canonical_rows(*x2, 2),
                   *_canonical_rows(*x3_xor, 3),
                   *_canonical_rows(*maj3, 3))

    @classmethod
    def from_cut_arrays(cls, cuts) -> "PairingCandidates":
        """Build straight from a whole-graph cut sweep — no dicts probed."""
        from repro.aig.fast_cuts import classify_cut_arrays

        is_xor, is_maj = classify_cut_arrays(cuts)
        xr, xs = np.nonzero(is_xor)
        two = cuts.sizes[xr, xs] == 2
        mr, ms = np.nonzero(is_maj)
        return cls(
            cuts.num_vars,
            *_canonical_rows(xr[two], cuts.leaves[xr[two], xs[two], :2], 2),
            *_canonical_rows(xr[~two], cuts.leaves[xr[~two], xs[~two]], 3),
            *_canonical_rows(mr, cuts.leaves[mr, ms], 3),
        )

    # ------------------------------------------------------------------
    # Array-native filtering (the serving path never builds dicts)
    # ------------------------------------------------------------------
    def xor_root_vars(self) -> np.ndarray:
        """Sorted unique variables with at least one XOR candidate cut."""
        cached = getattr(self, "_xor_root_vars", None)
        if cached is None:
            cached = sorted_unique(np.concatenate([self.xor2_var,
                                                   self.xor3_var]))
            self._xor_root_vars = cached
        return cached

    def maj_root_vars(self) -> np.ndarray:
        """Sorted unique variables with at least one MAJ candidate cut."""
        cached = getattr(self, "_maj_root_vars", None)
        if cached is None:
            cached = sorted_unique(self.maj_var)
            self._maj_root_vars = cached
        return cached

    def select_roots(self, xor_allowed: np.ndarray,
                     maj_allowed: np.ndarray) -> "PairingCandidates":
        """Rows whose root is in the given sorted allow-lists.

        One membership pass per row group — the vectorized equivalent of
        building a prediction-verified :class:`XorMajDetection` and
        re-flattening it, minus every dict.  Canonical row order is
        preserved (filtering a sorted array keeps it sorted).
        """
        keep2 = in_sorted(self.xor2_var, xor_allowed)
        keep3 = in_sorted(self.xor3_var, xor_allowed)
        keepm = in_sorted(self.maj_var, maj_allowed)
        return PairingCandidates(
            self.num_vars,
            self.xor2_var[keep2], self.xor2_leaves[keep2],
            self.xor3_var[keep3], self.xor3_leaves[keep3],
            self.maj_var[keepm], self.maj_leaves[keepm],
        )

    def restrict_roots(self, allowed: np.ndarray) -> "PairingCandidates":
        """Rows whose root is in one sorted allow-list (LSB-cone repair)."""
        return self.select_roots(allowed, allowed)

    def to_detection(self) -> XorMajDetection:
        """Dict-form adapter for the public API and the test oracle.

        Reconstructs exactly the mapping
        :func:`~repro.aig.fast_cuts.matched_leaf_sets` would have produced
        for these rows: per variable, 2-leaf cuts before 3-leaf cuts, each
        group in ascending leaf order — the enumerators' slot order.  Only
        adapter/compat paths call this; extraction itself never does.
        """
        xor_roots: dict[int, list[tuple[int, ...]]] = {}
        for var, row in zip(self.xor2_var.tolist(),
                            self.xor2_leaves.tolist()):
            xor_roots.setdefault(var, []).append(tuple(row))
        for var, row in zip(self.xor3_var.tolist(),
                            self.xor3_leaves.tolist()):
            xor_roots.setdefault(var, []).append(tuple(row))
        maj_roots: dict[int, list[tuple[int, ...]]] = {}
        for var, row in zip(self.maj_var.tolist(), self.maj_leaves.tolist()):
            maj_roots.setdefault(var, []).append(tuple(row))
        return XorMajDetection(xor_roots=xor_roots, maj_roots=maj_roots)


def batched_cones(aig: AIG, root_vars: np.ndarray, root_owner: np.ndarray,
                  leaf_matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Interior ``(node, owner)`` pairs of many cones in one frontier sweep.

    ``leaf_matrix`` holds one row of leaf variables per owner (one matched
    adder / HA candidate); ``root_owner[i]`` is the row owning root
    ``root_vars[i]``, so an owner may contribute several roots (an FA's sum
    and carry).  The pairs returned are exactly what ``_cone_between``
    collects: AND variables reachable from the owner's roots without
    crossing that owner's leaves, the roots themselves included.  Instead
    of one DFS per root, every cone advances together, one level of its own
    depth per round: the frontier holds ``(node, owner)`` pairs packed into
    int64 keys, a round expands the whole frontier with a handful of NumPy
    passes, and leaf crossings are caught by comparing each child against
    its owner's leaf row — a couple of gathers, no sorted-set probing.  The
    round count is the deepest cone's leaf-free path length — a few levels
    for real adder slices — while each round's cost is one pass over all
    live cones at that depth, no matter how many adders the wavefront
    spans.

    The sweep itself is the ``cone_sweep`` registered kernel
    (:mod:`repro.kernels`): the numpy implementation advances all cones'
    frontiers together with whole-array passes, a compiled backend runs
    one stamped DFS per owner — both return the same sorted pairs.
    """
    fanin0, fanin1 = aig.fanin_arrays()
    return get_kernel("cone_sweep")(
        1 + aig.num_inputs,
        fanin0 >> 1,
        fanin1 >> 1,
        np.asarray(root_vars, dtype=np.int64),
        np.asarray(root_owner, dtype=np.int64),
        np.asarray(leaf_matrix, dtype=np.int64),
    )


# ---------------------------------------------------------------------------
# Full adders
# ---------------------------------------------------------------------------

def _full_adder_edges(cands: PairingCandidates
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Candidate ``(maj, xor)`` pairs with their canonical shared leaves.

    One sort-based join on the packed leaf-triple key replaces per-root
    dict probing; parallel edges (a pair sharing several leaf
    sets) collapse to the smallest leaf triple, matching the determinized
    per-root loop's first-in-sorted-order choice.
    """
    if not len(cands.maj_var) or not len(cands.xor3_var):
        return (np.zeros(0, dtype=np.int64),) * 2 + (
            np.zeros((0, 3), dtype=np.int64),)
    # Packed leaf-triple keys.  A raw num_vars**3 pack overflows int64 past
    # ~2M variables; only then compact the leaf universe to dense ids first
    # (order-preserving, so key comparisons are unchanged).
    lut = None
    ml, xl = cands.maj_leaves, cands.xor3_leaves
    if cands.num_vars ** 3 >= np.iinfo(np.int64).max:  # Python ints: exact
        lut = sorted_unique(np.concatenate([ml.ravel(), xl.ravel()]))
        assert len(lut) ** 3 < np.iinfo(np.int64).max, "leaf universe too large"
        ml = np.searchsorted(lut, ml)
        xl = np.searchsorted(lut, xl)
        stride = np.int64(len(lut))
    else:
        stride = np.int64(cands.num_vars)
    maj_key = (ml[:, 0] * stride + ml[:, 1]) * stride + ml[:, 2]
    xor_key = (xl[:, 0] * stride + xl[:, 1]) * stride + xl[:, 2]

    # The join itself is the ``fa_join`` registered kernel; key packing and
    # leaf unpacking stay here so every backend sees the same int64 keys.
    edge_maj, edge_xor, edge_key = get_kernel("fa_join")(
        np.asarray(cands.maj_var, dtype=np.int64), maj_key,
        np.asarray(cands.xor3_var, dtype=np.int64), xor_key,
    )
    if not len(edge_maj):
        return (np.zeros(0, dtype=np.int64),) * 2 + (
            np.zeros((0, 3), dtype=np.int64),)
    inner = edge_key // stride
    leaves = np.column_stack([inner // stride, inner % stride,
                              edge_key % stride])
    if lut is not None:
        leaves = lut[leaves]
    return edge_maj, edge_xor, leaves


def _match_full_adders(edge_maj: np.ndarray, edge_xor: np.ndarray,
                       edge_leaves: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic maximum matching over the candidate edges.

    Isolated pairs — a MAJ with one partner whose partner has only it —
    are matched in one vectorized pass; every such pair belongs to the
    maximum matching Kuhn's algorithm returns, independent of visit order,
    because no augmenting path can route through a degree-1–degree-1 edge.
    Only the ambiguous remainder runs the Python matcher.
    """
    if not len(edge_maj):
        return edge_maj, edge_xor, edge_leaves
    _, maj_inverse, maj_degree = np.unique(
        edge_maj, return_inverse=True, return_counts=True
    )
    _, xor_inverse, xor_degree = np.unique(
        edge_xor, return_inverse=True, return_counts=True
    )
    isolated = (maj_degree[maj_inverse] == 1) & (xor_degree[xor_inverse] == 1)
    picked = [np.flatnonzero(isolated)]
    rest = np.flatnonzero(~isolated)
    if len(rest):
        adjacency: dict[int, list[int]] = {}
        for maj, xor in zip(edge_maj[rest].tolist(), edge_xor[rest].tolist()):
            adjacency.setdefault(maj, []).append(xor)
        matching = maximum_bipartite_matching(adjacency)
        if matching:
            # Edges are sorted by (maj, xor): locate each matched pair's row
            # (and thereby its canonical leaves) by packed-key search.
            span = np.int64(np.max(edge_xor)) + 1
            pair_keys = edge_maj * span + edge_xor
            wanted = np.array(sorted(matching.items()), dtype=np.int64)
            picked.append(
                np.searchsorted(pair_keys, wanted[:, 0] * span + wanted[:, 1])
            )
    rows = np.sort(np.concatenate(picked))
    # Emission order is ascending MAJ var; rows are sorted by (maj, xor)
    # and each maj appears in at most one match, so row order is maj order.
    return edge_maj[rows], edge_xor[rows], edge_leaves[rows]


def _emit_full_adders(aig: AIG, consumed: np.ndarray,
                      fa_maj: np.ndarray, fa_xor: np.ndarray,
                      fa_leaves: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Matched FA columns in ascending-MAJ order, cones consumed.

    Returns ``(sum_var, carry_var, leaves)`` columns for the emitted rows
    (the array core's FA block — no per-adder objects are created).  The
    batched path emits every matched pair and consumes the union of
    interiors in two array stores.  That is exactly the sequential result
    unless some pair's root lies inside another pair's cone (or doubles as
    the other side of a second pair) — detected vectorized; only then does
    the sequential consume-as-you-go loop run, over interiors that were still
    computed in one batched sweep.
    """
    count = len(fa_maj)
    if count == 0:
        return fa_xor, fa_maj, fa_leaves
    owner = np.arange(count, dtype=np.int64)
    root_vars = np.concatenate([fa_xor, fa_maj])
    root_owner = np.concatenate([owner, owner])
    interior_node, interior_owner = batched_cones(
        aig, root_vars, root_owner, fa_leaves,
    )

    roots_sorted = np.sort(root_vars)
    conflict = bool(len(roots_sorted) > 1
                    and np.any(roots_sorted[1:] == roots_sorted[:-1]))
    if not conflict:
        owner_of_root = np.full(aig.num_vars, -1, dtype=np.int64)
        owner_of_root[root_vars] = root_owner
        hit = owner_of_root[interior_node]
        conflict = bool(np.any((hit >= 0) & (hit != interior_owner)))
    if not conflict:
        consumed[interior_node] = True
        consumed[root_vars] = True  # non-AND roots are outside the sweep
        return fa_xor, fa_maj, fa_leaves

    maj_list = fa_maj.tolist()
    xor_list = fa_xor.tolist()
    order = np.argsort(interior_owner, kind="stable")
    interior_node = interior_node[order]
    starts = np.searchsorted(interior_owner[order],
                             np.arange(count + 1)).tolist()
    kept: list[int] = []
    for index in range(count):
        maj, xor = maj_list[index], xor_list[index]
        if consumed[maj] or consumed[xor]:
            continue
        kept.append(index)
        consumed[interior_node[starts[index]:starts[index + 1]]] = True
        consumed[maj] = True
        consumed[xor] = True
    rows = np.asarray(kept, dtype=np.int64)
    return fa_xor[rows], fa_maj[rows], fa_leaves[rows]


# ---------------------------------------------------------------------------
# Half adders
# ---------------------------------------------------------------------------

def _emit_half_adders(aig: AIG, consumed: np.ndarray,
                      cands: PairingCandidates
                      ) -> tuple[list[int], list[int], list[list[int]]]:
    """Match XOR2 roots with free carry ANDs, in canonical order.

    Returns ``(sum_vars, carry_vars, leaf_rows)`` columns for the emitted
    HA rows.  Everything order-dependent is precomputed in array form — the
    carry pool slice per candidate (own-interior ANDs already filtered out
    by one vectorized membership pass) and the per-candidate interior node
    lists — so the remaining scan is the per-root selection semantics at O(1)
    Python work per candidate: first non-consumed carry wins, its cone is
    consumed, later candidates of the same root are skipped.
    """
    ha_sum: list[int] = []
    ha_carry: list[int] = []
    ha_leaves: list[list[int]] = []
    if not len(cands.xor2_var):
        return ha_sum, ha_carry, ha_leaves
    pool_keys, pool_starts, pool_members = aig.and_pair_groups()
    stride = np.int64(aig.num_vars)
    pair_key = cands.xor2_leaves[:, 0] * stride + cands.xor2_leaves[:, 1]
    if len(pool_keys) == 0:
        return ha_sum, ha_carry, ha_leaves
    group = np.searchsorted(pool_keys, pair_key)
    group_clipped = np.minimum(group, len(pool_keys) - 1)
    has_pool = (group < len(pool_keys)) & (pool_keys[group_clipped] == pair_key)
    # Roots already consumed (FA interiors and roots) can only be skipped
    # by the selection loop; dropping them here keeps the cone sweep and
    # carry filtering proportional to the *live* candidates.  ``consumed``
    # only grows during selection, so the prefilter can never unskip one.
    active = np.flatnonzero(has_pool & ~consumed[cands.xor2_var])
    if not len(active):
        return ha_sum, ha_carry, ha_leaves
    owner = np.arange(len(active), dtype=np.int64)
    interior_node, interior_owner = batched_cones(
        aig, cands.xor2_var[active], owner, cands.xor2_leaves[active],
    )
    interior_keys = np.sort(interior_owner * stride + interior_node)

    slice_start = pool_starts[group_clipped[active]]
    slice_end = pool_starts[group_clipped[active] + 1]
    flat = ragged_gather(slice_start, slice_end)
    carry = pool_members[flat]
    carry_owner = np.repeat(owner, slice_end - slice_start)
    outside = ~in_sorted(carry_owner * stride + carry, interior_keys)
    carry = carry[outside]
    carry_owner = carry_owner[outside]
    carry_starts = np.searchsorted(
        carry_owner, np.arange(len(active) + 1)
    ).tolist()
    carry_list = carry.tolist()

    order = np.argsort(interior_owner, kind="stable")
    interior_sorted = interior_node[order]
    interior_starts = np.searchsorted(
        interior_owner[order], np.arange(len(active) + 1)
    ).tolist()

    var_list = cands.xor2_var[active].tolist()
    leaf_rows = cands.xor2_leaves[active].tolist()
    for index in range(len(active)):
        xor = var_list[index]
        if consumed[xor]:
            continue
        matched_carry = -1
        for candidate in carry_list[
            carry_starts[index]:carry_starts[index + 1]
        ]:
            if not consumed[candidate]:
                matched_carry = candidate
                break
        if matched_carry < 0:
            continue
        ha_sum.append(xor)
        ha_carry.append(matched_carry)
        ha_leaves.append(leaf_rows[index])
        consumed[
            interior_sorted[interior_starts[index]:interior_starts[index + 1]]
        ] = True
        consumed[xor] = True
        consumed[matched_carry] = True
    return ha_sum, ha_carry, ha_leaves


def _assemble_core(fa_sum: np.ndarray, fa_carry: np.ndarray,
                   fa_leaves: np.ndarray, ha_sum: list[int],
                   ha_carry: list[int],
                   ha_leaves: list[list[int]]) -> AdderTreeArrays:
    """Concatenate the FA block and HA rows into one array core."""
    num_fa, num_ha = len(fa_sum), len(ha_sum)
    count = num_fa + num_ha
    if count == 0:
        return AdderTreeArrays.empty()
    kind = np.empty(count, dtype=np.uint8)
    kind[:num_fa] = KIND_FA
    kind[num_fa:] = KIND_HA
    sum_var = np.empty(count, dtype=np.int32)
    sum_var[:num_fa] = fa_sum
    sum_var[num_fa:] = ha_sum
    carry_var = np.empty(count, dtype=np.int32)
    carry_var[:num_fa] = fa_carry
    carry_var[num_fa:] = ha_carry
    leaves = np.full((count, 3), -1, dtype=np.int32)
    leaves[:num_fa] = fa_leaves
    if num_ha:
        leaves[num_fa:, :2] = ha_leaves
    leaf_count = np.empty(count, dtype=np.int8)
    leaf_count[:num_fa] = 3
    leaf_count[num_fa:] = 2
    return AdderTreeArrays(kind, sum_var, carry_var, leaves, leaf_count)


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def pair_candidates(aig: AIG, cands: PairingCandidates,
                    detection: XorMajDetection | None = None) -> AdderTree:
    """Pair candidate arrays into an :class:`AdderTree`, dict-free.

    The array-native pairing core: FA matching, cone consumption and HA
    selection all run on the candidate arrays, the result is emitted
    straight into the tree's struct-of-arrays core, and the ``consumed``
    set / ``adders`` list / ``detection`` dicts exist only as lazy views.
    ``detection``, when the caller already has one, is attached for the
    object view; otherwise ``tree.detection`` adapts from ``cands`` on
    first access.
    """
    consumed = np.zeros(aig.num_vars, dtype=bool)
    fa_sum, fa_carry, fa_leaves = _emit_full_adders(
        aig, consumed,
        *_match_full_adders(*_full_adder_edges(cands)),
    )
    ha_sum, ha_carry, ha_leaves = _emit_half_adders(aig, consumed, cands)
    core = _assemble_core(fa_sum, fa_carry, fa_leaves,
                          ha_sum, ha_carry, ha_leaves)
    return AdderTree(core=core, consumed_mask=consumed,
                     detection=detection, candidates=cands)


def fast_extract_adder_tree(aig: AIG,
                            detection: XorMajDetection | None = None,
                            max_cuts: int = 10,
                            candidates: PairingCandidates | None = None,
                            ) -> AdderTree:
    """The array-shaped FA/HA pairing behind ``extract_adder_tree``.

    With ``candidates`` the caller already holds the flattened rows (the
    array-native post-processing path) and pairing runs directly on them;
    with ``detection`` the dict form is flattened first (public-API
    compatibility); with neither, the whole pipeline — cut
    sweep, classification, pairing — shares one
    :class:`~repro.aig.fast_cuts.CutArrays` pass and the candidate arrays
    are built straight from the classification masks.  Every route is
    bit-identical to the per-root oracle loop: same adders in the same
    order, same ``consumed`` set.
    """
    if candidates is not None:
        cands = candidates
    elif detection is not None:
        cands = PairingCandidates.from_detection(detection, aig.num_vars)
    else:
        from repro.aig.fast_cuts import enumerate_cuts_arrays

        arrays = enumerate_cuts_arrays(aig, k=3, max_cuts=max_cuts)
        cands = PairingCandidates.from_cut_arrays(arrays)
    return pair_candidates(aig, cands, detection=detection)
