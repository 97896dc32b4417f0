"""Pure-NumPy reference implementations of the five hot-path kernels.

These are the always-present backend and the bit-identity oracle for any
compiled backend.  Each kernel's signature is the pinned contract both
backends implement:

``merge_level(batch, fanin0, fanin1, leaves, truths, sizes, counts, *,
k, max_cuts, include_trivial, pad, pack_limit)``
    Merge, rank and store the priority cuts of one topological level's
    AND nodes into the ``CutArrays`` columns, in place.  ``batch`` holds
    the level's variable ids; ``fanin0/fanin1`` are the whole graph's
    fanin *literal* arrays.  The NumPy implementation chunks the level to
    bound scratch memory and compacts the leaf universe when ids would
    overflow the packed int64 rank keys (``pack_limit``); a scalar
    backend may ignore both knobs — they change footprint, not output.

``cone_sweep(first_and, f0v, f1v, root_vars, root_owner, leaf_matrix)``
    Interior ``(nodes, owners)`` pairs of many cones, sorted by
    ``(owner, node)``: AND variables reachable from each owner's roots
    without crossing that owner's leaf row.  ``f0v/f1v`` are fanin
    *variable* arrays for the whole graph; owner ids index
    ``leaf_matrix`` rows (dense ``0..num_owners-1``).

``fa_join(maj_var, maj_key, xor_var, xor_key) -> (maj, xor, key)``
    Candidate FA pairs: every (MAJ row, XOR3 row) sharing a packed
    leaf-triple key, self-pairs dropped, parallel ``(maj, xor)`` edges
    collapsed to their smallest shared key, sorted by ``(maj, xor)``.
    Key packing/unpacking stays with the caller — both backends see the
    same int64 keys.

``kahn_propagate(indptr, consumers, indegree, values)``
    In-place longest-path propagation over a CSR producer→consumer
    index: nodes with ``indegree == 0`` are final; resolving one relaxes
    ``values[c] = max(values[c], values[node] + 1)`` on each consumer and
    releases it when its last incoming edge resolves.  ``indegree`` is
    consumed as scratch.  Longest-path values are unique regardless of
    processing order, which is what makes backends bit-identical here.

``halo_prefix_counts(indptr, indices, targets, num_hops) -> (sizes, edges)``
    Halo-block sizes of every prefix of a streaming window, for the
    window planner.  ``indptr``/``indices`` are the adjacency operator's
    CSR index arrays (int64); ``targets`` are distinct node ids in the
    planner's level-major order (not sorted).  Row ``p`` of the int64
    ``sizes`` ``(L, K+1)`` and ``edges`` ``(L, K)`` describes the window
    ``targets[:p+1]``: ``sizes[p]`` equals ``[b.size for b in
    halo_blocks(adj, np.sort(targets[:p+1]), K)]`` and ``edges[p, j]`` is
    the row-degree sum over block ``j + 1``.  Pure: no state between calls.
"""

from __future__ import annotations

import numpy as np

from repro.aig.cuts import TRIVIAL_TRUTH
from repro.kernels.registry import register
from repro.utils.arrays import in_sorted, ragged_gather, sorted_unique

__all__ = [
    "EXPAND_LUT",
    "TRIVIAL_TRUTH",
    "merge_level",
    "cone_sweep",
    "fa_join",
    "kahn_propagate",
    "halo_prefix_counts",
]

# ---------------------------------------------------------------------------
# merge_level — vectorized k <= 3 priority-cut merge (moved verbatim from
# repro.aig.fast_cuts; that module now dispatches through the registry)
# ---------------------------------------------------------------------------

# Truth-domain mask by cut size: 2**(2**size) - 1, saturated past size 3
# (oversized unions are infeasible and masked out later anyway).
_WIDTH_MASK = np.array([1, 3, 15, 255, 255, 255, 255], dtype=np.uint8)

# Union-slot bit by leaf position (slots 0..2); positions 3..5 only occur
# on infeasible unions and contribute nothing.
_SLOT_BIT = np.array([1, 2, 4, 0, 0, 0], dtype=np.uint8)

# Upper bound on candidate cells materialized per vectorized chunk; keeps
# peak scratch memory level-independent on huge levels.  The merge holds a
# handful of (cells, 6) int32/int64 scratch arrays at once, so 2^18 cells
# bounds the transient footprint to a few tens of MiB.
_CHUNK_CELLS = 1 << 18


def _safe_pack_limit() -> int:
    """Largest leaf-universe size ``v`` with ``5 * v**3 < 2**63``.

    The rank key packs ``size * vp**3 + leaves`` into one int64 with
    ``size <= k + 1 <= 4``; any pad-inclusive universe up to this bound is
    overflow-free.  Computed exactly (integer arithmetic, no float cube
    root) so the boundary cannot be off by one.
    """
    limit = int(round((np.iinfo(np.int64).max // 5) ** (1.0 / 3.0)))
    while 5 * limit ** 3 >= np.iinfo(np.int64).max:
        limit -= 1
    while 5 * (limit + 1) ** 3 < np.iinfo(np.int64).max:
        limit += 1
    return limit


_SAFE_PACK_LIMIT = _safe_pack_limit()


def _build_expand_lut() -> np.ndarray:
    """``EXPAND_LUT[mask, t]``: re-express truth ``t`` on 3 variables.

    ``t`` is a function of ``popcount(mask)`` variables; source variable
    ``i`` becomes the ``i``-th set bit of ``mask`` in the 3-variable target
    domain.  Entry 0 is unused (every cut has at least one leaf).
    """
    lut = np.zeros((8, 256), dtype=np.uint8)
    minterms = np.arange(8, dtype=np.uint16)
    tables = np.arange(256, dtype=np.uint16)
    for mask in range(1, 8):
        positions = [p for p in range(3) if (mask >> p) & 1]
        src = np.zeros(8, dtype=np.uint16)
        for i, pos in enumerate(positions):
            src |= ((minterms >> pos) & 1) << i
        bits = (tables[:, None] >> src[None, :]) & 1  # (256 tables, 8 minterms)
        lut[mask] = (bits << minterms[None, :]).sum(axis=1).astype(np.uint8)
    return lut


EXPAND_LUT = _build_expand_lut()

_ARANGE_CACHE: dict[int, np.ndarray] = {}
_ARANGE_CACHE_MAX = 512  # cache only small sizes (cut-slot counts, narrow
# levels): bounds the module-global to <1 MiB total while covering the
# sizes that recur every level; big per-chunk aranges are cheap relative
# to the passes around them and would pin memory for the process lifetime.


def _arange(n: int) -> np.ndarray:
    if n > _ARANGE_CACHE_MAX:
        return np.arange(n)
    got = _ARANGE_CACHE.get(n)
    if got is None:
        got = _ARANGE_CACHE[n] = np.arange(n)
    return got


@register("merge_level", "numpy")
def merge_level(batch: np.ndarray, fanin0: np.ndarray, fanin1: np.ndarray,
                leaves: np.ndarray, truths: np.ndarray, sizes: np.ndarray,
                counts: np.ndarray, *, k: int, max_cuts: int,
                include_trivial: bool, pad: int, pack_limit: int) -> None:
    """One level's cut merge; chunked to bound scratch and key packing."""
    slots = leaves.shape[1]
    # Chunk size bounds two things at once: scratch memory (fixed cell
    # budget per chunk) and — on graphs big enough to need per-level leaf
    # compaction — the compacted leaf universe, which must stay under the
    # int64 packing limit (each node contributes at most 6*slots leaves).
    step = max(1, min(_CHUNK_CELLS // (slots * slots),
                      (pack_limit - 2) // (6 * slots)))
    state = (leaves, truths, sizes, counts)
    for chunk in range(0, len(batch), step):
        _merge_chunk(batch[chunk:chunk + step], fanin0, fanin1, state,
                     k=k, max_cuts=max_cuts, include_trivial=include_trivial,
                     pad=pad, pack_limit=pack_limit)


def _merge_chunk(batch: np.ndarray, fanin0: np.ndarray, fanin1: np.ndarray,
                 state, *, k: int, max_cuts: int, include_trivial: bool,
                 pad: int, pack_limit: int) -> None:
    """Merge, rank and store the cuts of one chunk's nodes, vectorized."""
    leaves, truths, sizes, counts = state
    m = len(batch)
    v0 = fanin0[batch] >> 1
    v1 = fanin1[batch] >> 1

    c0 = counts[v0]
    c1 = counts[v1]
    C0 = int(c0.max())
    C1 = int(c1.max())

    # Candidate grid: every (cut of fanin0) x (cut of fanin1) combination.
    l0 = leaves[v0, :C0]  # (m, C0, 3)
    l1 = leaves[v1, :C1]
    t0 = truths[v0, :C0]  # (m, C0)
    t1 = truths[v1, :C1]

    # Leaf ids must fit the packed int64 sort/dominance keys below; when
    # the graph is too large for that (~beyond 1.2M variables), compact
    # this level's leaf universe to dense local ids first.
    lut = None
    if pad + 1 > pack_limit:
        lut = np.unique(
            np.concatenate([l0.reshape(m, -1), l1.reshape(m, -1)], axis=1)
        )
        if lut[-1] != pad:
            lut = np.append(lut, np.int32(pad))
        l0 = np.searchsorted(lut, l0).astype(np.int32)
        l1 = np.searchsorted(lut, l1).astype(np.int32)
        pad = len(lut) - 1
        # Guaranteed by the chunk sizing (<= 6*slots leaves per node); a
        # violation would silently wrap the int64 rank keys.
        assert pad + 1 <= pack_limit, "compacted leaf universe too large"

    valid = (
        (_arange(C0)[None, :, None] < c0[:, None, None])
        & (_arange(C1)[None, None, :] < c1[:, None, None])
    )  # (m, C0, C1)

    # Leaf union via one sort over the 6 padded leaf slots.  Each leaf is
    # tagged with its provenance (bit 0: fan-in 0, bit 1: fan-in 1) in the
    # two low key bits, so sorting keeps duplicate leaves adjacent (run
    # length at most 2 — leaves are unique within one cut) and the tags
    # recover, per unique leaf, which fan-in cut(s) contributed it.
    tagged = np.concatenate(
        [
            np.broadcast_to((l0 * 4 + 1)[:, :, None, :], (m, C0, C1, 3)),
            np.broadcast_to((l1 * 4 + 2)[:, None, :, :], (m, C0, C1, 3)),
        ],
        axis=-1,
    )  # (m, C0, C1, 6)
    merged = np.sort(tagged, axis=-1)
    leaf = merged >> 2
    tag = merged & 3
    same = leaf[..., 1:] == leaf[..., :-1]
    fresh = np.empty(leaf.shape, dtype=bool)
    fresh[..., 0] = leaf[..., 0] != pad
    fresh[..., 1:] = ~same & (leaf[..., 1:] != pad)
    run_tags = tag.copy()
    run_tags[..., :-1] |= np.where(same, tag[..., 1:], 0)
    size = fresh.sum(axis=-1, dtype=np.int16)  # (m, C0, C1)
    # Oversized unions get size k+1: infeasible, and ranked past every
    # real cut by the size-major sort key below.
    size = np.where(valid & (size <= k), size, np.int16(k + 1))

    # Compact each union to its first three slots (slot 3 is a spill bin
    # for duplicate/pad/overflow entries; feasible unions never reach it).
    position = np.cumsum(fresh, axis=-1) - 1
    slot = np.where(fresh & (position < 3), position, 3)
    union = np.full((m, C0, C1, 4), pad, dtype=np.int32)
    cells = m * C0 * C1
    union.reshape(-1)[
        (_arange(cells).reshape(m, C0, C1, 1) * 4 + slot).reshape(-1)
    ] = leaf.reshape(-1)
    union = union[..., :3]

    # Where each fan-in cut's leaves sit inside the union, as a 3-bit
    # position mask — the key into EXPAND_LUT.
    bits = _SLOT_BIT[position] * fresh
    mask0 = (bits * (run_tags & 1).astype(np.uint8)).sum(
        axis=-1, dtype=np.uint8
    )
    mask1 = (bits * ((run_tags >> 1) & 1).astype(np.uint8)).sum(
        axis=-1, dtype=np.uint8
    )

    # Truth of the AND over the union leaves: expand each fan-in function,
    # complement negated edges (byte-wide flip, masked to the domain), AND.
    flip0 = ((fanin0[batch] & 1) * 0xFF).astype(np.uint8)
    flip1 = ((fanin1[batch] & 1) * 0xFF).astype(np.uint8)
    t0e = EXPAND_LUT[mask0, np.broadcast_to(t0[:, :, None], (m, C0, C1))]
    t1e = EXPAND_LUT[mask1, np.broadcast_to(t1[:, None, :], (m, C0, C1))]
    truth = ((t0e ^ flip0[:, None, None]) & (t1e ^ flip1[:, None, None])
             & _WIDTH_MASK[size])

    # Flatten the candidate grid and rank per node by (size, leaves) — the
    # Cut-object enumerator's sort key — as one packed int64 key per candidate.
    grid = C0 * C1
    cand_size = size.reshape(m, grid)
    vp = np.int64(pad + 1)
    u64 = union.reshape(m, grid, 3).astype(np.int64)
    packed = (u64[..., 0] * vp + u64[..., 1]) * vp + u64[..., 2]
    order = np.argsort(cand_size * (vp * vp * vp) + packed, axis=-1)

    flat = (_arange(m)[:, None] * grid + order).reshape(-1)
    packed = packed.reshape(-1)[flat].reshape(m, grid)
    cand_size = cand_size.reshape(-1)[flat].reshape(m, grid)
    cand_leaves = union.reshape(-1, 3)[flat].reshape(m, grid, 3)
    cand_ok = cand_size <= k

    # Dedup: merge paths reproducing the same leaf set produce the same
    # root function, so keeping the first occurrence matches the Cut-object
    # enumerator's ``setdefault`` exactly.
    live = cand_ok.copy()
    if grid > 1:
        live[:, 1:] &= packed[:, 1:] != packed[:, :-1]

    # Dominance: a cut is dropped when a strictly smaller live cut is a
    # leaf-subset.  With k ≤ 3 the only dominators are singletons and
    # pairs, so subset testing is a few keyed membership checks.
    dominated = _dominated(cand_leaves, cand_size, live, vp)
    keep = live & ~dominated
    rank = np.cumsum(keep, axis=1) - 1
    final = keep & (rank < max_cuts)

    rows, cols = np.nonzero(final)
    dest = batch[rows]
    dest_slot = rank[rows, cols]
    picked = cand_leaves[rows, cols]
    if lut is not None:
        picked = lut[picked]
    leaves[dest, dest_slot] = picked
    truths[dest, dest_slot] = truth.reshape(m, grid)[rows, order[rows, cols]]
    sizes[dest, dest_slot] = cand_size[rows, cols].astype(np.int8)
    kept = final.sum(axis=1)
    if include_trivial:
        leaves[batch, kept, 0] = batch.astype(np.int32)
        truths[batch, kept] = TRIVIAL_TRUTH
        sizes[batch, kept] = 1
        counts[batch] = kept + 1
    else:
        counts[batch] = kept


def _member(values: np.ndarray, sorted_keys: np.ndarray) -> np.ndarray:
    """Membership of ``values`` in a sorted 1D key array, searchsorted-style."""
    index = np.searchsorted(sorted_keys, values)
    np.minimum(index, len(sorted_keys) - 1, out=index)
    return sorted_keys[index] == values


def _dominated(cand_leaves: np.ndarray, cand_size: np.ndarray,
               live: np.ndarray, vp: np.int64) -> np.ndarray:
    """Which live candidates are dominated by a smaller live candidate.

    Exactness note: testing against *all* live smaller cuts (not just the
    ones the sequential loop had kept so far) is equivalent — dominance is
    transitive, the sort is by size, and a dominating cut always precedes
    its victim — so this reproduces the sequential filter bit for bit.
    """
    m, grid = cand_size.shape
    l64 = cand_leaves.astype(np.int64)
    node_base = (np.arange(m, dtype=np.int64) * vp)[:, None]
    dominated = np.zeros((m, grid), dtype=bool)

    single = live & (cand_size == 1)
    if single.any():
        bigger = live & (cand_size >= 2)
        if bigger.any():
            single_keys = np.sort((node_base + l64[..., 0])[single])
            hit = _member(node_base[:, :, None] + l64, single_keys)
            dominated |= bigger & hit.any(axis=-1)

    pair = live & (cand_size == 2)
    if pair.any():
        triple = live & (cand_size == 3)
        if triple.any():
            pair_base = (node_base * vp)[:, :, None]
            sub_pairs = l64[..., [0, 0, 1]] * vp + l64[..., [1, 2, 2]]
            keys = np.sort(
                (pair_base[..., 0] + l64[..., 0] * vp + l64[..., 1])[pair]
            )
            hit = _member(pair_base + sub_pairs, keys)
            dominated |= triple & hit.any(axis=-1)
    return dominated


# ---------------------------------------------------------------------------
# cone_sweep — batched cone interiors (moved from fast_pairing.batched_cones)
# ---------------------------------------------------------------------------

@register("cone_sweep", "numpy")
def cone_sweep(first_and: int, f0v: np.ndarray, f1v: np.ndarray,
               root_vars: np.ndarray, root_owner: np.ndarray,
               leaf_matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every cone advances together, one level of its own depth per round.

    The frontier holds ``(node, owner)`` pairs packed into int64 keys, a
    round expands the whole frontier with a handful of NumPy passes, and
    leaf crossings are caught by comparing each child against its owner's
    leaf row.  Real cones are so shallow that revisit bookkeeping costs
    more than the few duplicate expansions it would save, so rounds expand
    raw and one final sort dedups the result; a guard switches to exact
    per-round visited filtering as soon as the sweep runs deep or the
    frontier outgrows everything collected so far.
    """
    stride = np.int64(f0v.shape[0])
    width = leaf_matrix.shape[1]

    def crosses_leaf(nodes: np.ndarray, owners: np.ndarray) -> np.ndarray:
        hit = leaf_matrix[owners, 0] == nodes
        for column in range(1, width):
            hit |= leaf_matrix[owners, column] == nodes
        return hit

    admit = (root_vars >= first_and) & ~crosses_leaf(root_vars, root_owner)
    frontier = sorted_unique(root_owner[admit] * stride + root_vars[admit])
    collected = [frontier]
    total = len(frontier)
    seen: np.ndarray | None = None
    rounds = 0
    while len(frontier):
        nodes = frontier % stride
        owners = frontier // stride
        children = np.concatenate([f0v[nodes], f1v[nodes]])
        child_owner = np.concatenate([owners, owners])
        inside = children >= first_and
        children, child_owner = children[inside], child_owner[inside]
        keep = ~crosses_leaf(children, child_owner)
        child_keys = child_owner[keep] * stride + children[keep]
        rounds += 1
        if seen is not None or rounds >= 8 or len(child_keys) > 2 * total:
            if seen is None:
                seen = sorted_unique(np.concatenate(collected))
            child_keys = sorted_unique(child_keys)
            child_keys = child_keys[~in_sorted(child_keys, seen)]
            seen = sorted_unique(np.concatenate([seen, child_keys]))
        collected.append(child_keys)
        total += len(child_keys)
        frontier = child_keys
    pairs = sorted_unique(np.concatenate(collected))
    return pairs % stride, pairs // stride


# ---------------------------------------------------------------------------
# fa_join — packed-key MAJ x XOR3 join (moved from _full_adder_edges)
# ---------------------------------------------------------------------------

@register("fa_join", "numpy")
def fa_join(maj_var: np.ndarray, maj_key: np.ndarray, xor_var: np.ndarray,
            xor_key: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort-based grouping instead of per-root dict probing."""
    empty = np.zeros(0, dtype=np.int64)
    xorder = np.argsort(xor_key, kind="stable")
    xor_key_sorted = xor_key[xorder]
    xor_var_sorted = xor_var[xorder]
    lo = np.searchsorted(xor_key_sorted, maj_key, side="left")
    hi = np.searchsorted(xor_key_sorted, maj_key, side="right")
    flat = ragged_gather(lo, hi)
    if not len(flat):
        return empty, empty, empty
    maj_row = np.repeat(np.arange(len(maj_key)), hi - lo)
    edge_maj = maj_var[maj_row]
    edge_xor = xor_var_sorted[flat]
    edge_key = maj_key[maj_row]
    keep = edge_maj != edge_xor
    edge_maj, edge_xor, edge_key = edge_maj[keep], edge_xor[keep], edge_key[keep]

    order = np.lexsort((edge_key, edge_xor, edge_maj))
    edge_maj, edge_xor, edge_key = (
        edge_maj[order], edge_xor[order], edge_key[order]
    )
    unique_pair = np.r_[
        True,
        (edge_maj[1:] != edge_maj[:-1]) | (edge_xor[1:] != edge_xor[:-1]),
    ]
    return (edge_maj[unique_pair], edge_xor[unique_pair],
            edge_key[unique_pair])


# ---------------------------------------------------------------------------
# kahn_propagate — longest-path wavefront shared by AIG.levels_array and
# the word-level rank pass
# ---------------------------------------------------------------------------

@register("kahn_propagate", "numpy")
def kahn_propagate(indptr: np.ndarray, consumers: np.ndarray,
                   indegree: np.ndarray, values: np.ndarray) -> None:
    """Frontier-at-a-time relaxation; ``indegree`` is consumed as scratch."""
    frontier = np.flatnonzero(indegree == 0)
    while len(frontier):
        starts, ends = indptr[frontier], indptr[frontier + 1]
        flat = ragged_gather(starts, ends)
        if not len(flat):
            break
        children = consumers[flat]
        parents = np.repeat(frontier, ends - starts)
        np.maximum.at(values, children, values[parents] + 1)
        np.subtract.at(indegree, children, 1)
        unique_children = np.unique(children)
        frontier = unique_children[indegree[unique_children] == 0]


# ---------------------------------------------------------------------------
# halo_prefix_counts — per-prefix halo sizes for the streaming window planner
# ---------------------------------------------------------------------------

def _first_entries(nodes: np.ndarray, first: np.ndarray,
                   length: int) -> tuple[np.ndarray, np.ndarray]:
    """Each distinct node with its smallest ``first``, sorted by node."""
    keys = np.sort(nodes * length + first)
    node = keys // length
    keep = np.ones(len(keys), dtype=bool)
    keep[1:] = node[1:] != node[:-1]
    return node[keep], keys[keep] % length


@register("halo_prefix_counts", "numpy")
def halo_prefix_counts(indptr: np.ndarray, indices: np.ndarray,
                       targets: np.ndarray,
                       num_hops: int) -> tuple[np.ndarray, np.ndarray]:
    """Hop-wise min-propagation of each node's entry prefix.

    ``first`` is the first prefix whose block holds each node: targets
    enter ``B_K`` at their own position, and a node enters ``B_j`` at the
    smallest entry prefix of itself or any ``B_{j+1}`` row that reads it.
    Counting entries per prefix and summing gives every prefix at once.
    """
    length = len(targets)
    sizes = np.zeros((length, num_hops + 1), dtype=np.int64)
    edges = np.zeros((length, num_hops), dtype=np.int64)
    if length == 0:
        return sizes, edges
    nodes, first = _first_entries(np.asarray(targets, dtype=np.int64),
                                  np.arange(length, dtype=np.int64), length)
    for block in range(num_hops, 0, -1):
        np.cumsum(np.bincount(first, minlength=length), out=sizes[:, block])
        starts, ends = indptr[nodes], indptr[nodes + 1]
        degree = ends - starts
        # Float64 bin sums are exact while the edge count stays < 2**53.
        edges[:, block - 1] = np.cumsum(
            np.bincount(first, weights=degree, minlength=length))
        cols = indices[ragged_gather(starts, ends)].astype(np.int64,
                                                            copy=False)
        nodes, first = _first_entries(
            np.concatenate([nodes, cols]),
            np.concatenate([first, np.repeat(first, degree)]),
            length,
        )
    np.cumsum(np.bincount(first, minlength=length), out=sizes[:, 0])
    return sizes, edges
