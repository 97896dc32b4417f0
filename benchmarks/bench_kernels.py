"""Kernel backends head-to-head: numpy reference vs the C lane.

Micro-benchmarks each of the six registered hot-path kernels
(:mod:`repro.kernels`) in isolation on the 64-bit CSA multiplier — the
whole-graph cut merge, the structural hash's mixing sweep, the cone
frontier sweep, the packed-key FA join, the Kahn longest-path wavefront
and the window planner's per-prefix halo counts — with the *same*
prebuilt inputs for every backend, so the comparison times nothing but
the kernel.  The two bottom-up sweeps are timed as the one call per
graph that serving makes; their level batches are computed once up
front, as numpy consumes them and C ignores them.

The numpy baseline always runs and appends a record to
``BENCH_kernels.json``.  The C lane needs only a working system C
compiler: one smoke test times the four kernels the ``c`` backend
implements (``merge_level``, ``shash_sweep``, ``kahn_propagate``,
``halo_prefix_counts``) on the same inputs, asserts their outputs — and
the structural-hash digest — are **bit-identical** to the numpy
reference (here, not just in the unit suite), prints the table, and
pins >= 5x on ``merge_level``.  Each kernel gets one untimed warmup
call before timing, like the serving daemon's boot-time warmup.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from common import (
    emit,
    emit_json,
    format_table,
    keep_under_benchmark_only,
    bench_multiplier,
)
from repro.aig.aiger import dumps_aag, loads_aag
from repro.aig.cuts import TRIVIAL_TRUTH
from repro.kernels import registry, set_backend
from repro.kernels.numpy_backend import _SAFE_PACK_LIMIT
from repro.learn import build_graph_data
from repro.reasoning.fast_pairing import (
    PairingCandidates,
    _full_adder_edges,
    _match_full_adders,
)

WIDTH = 64
K, MAX_CUTS = 3, 10
REPEATS = 3
# What the c backend ports.
C_KERNELS = ("merge_level", "shash_sweep", "kahn_propagate",
             "halo_prefix_counts")
HALO_HOPS = 4  # the shallow model's conv layers
C_SMOKE_MIN_SPEEDUP = 5.0  # CI smoke bar, on merge_level

needs_c = pytest.mark.skipif(
    not registry._load_backend("c"),
    reason="C kernel backend unavailable (no working C compiler)",
)


def backend_impl(kernel: str, backend: str):
    """A backend's raw kernel implementation, bypassing global selection."""
    assert registry._load_backend(backend), backend
    return registry._impls[(kernel, backend)]


# ---------------------------------------------------------------------------
# Shared inputs: built once from the 64-bit multiplier, identical for
# every backend (in-place kernels get fresh scratch copies per run).
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def inputs():
    aig = bench_multiplier(WIDTH).aig
    fanin0, fanin1 = aig.fanin_arrays()
    fanin0 = np.asarray(fanin0, dtype=np.int64)
    fanin1 = np.asarray(fanin1, dtype=np.int64)
    num_vars = aig.num_vars
    first = 1 + aig.num_inputs
    batches = list(aig.and_level_batches())
    # structural_hash's seeds for the constant and the inputs: the sweep
    # fills everything after them.
    shash_seed = np.zeros(num_vars, dtype=np.uint64)
    shash_seed[:first] = np.arange(1, first + 1, dtype=np.uint64)

    # cone_sweep / fa_join inputs: the real matched-FA frontier of this
    # multiplier, reconstructed through the (backend-independent) pairing
    # preamble so both kernels see serving-shaped data.
    from repro.aig.fast_cuts import enumerate_cuts_arrays

    cuts = enumerate_cuts_arrays(aig, k=K, max_cuts=MAX_CUTS)
    cands = PairingCandidates.from_cut_arrays(cuts)
    fa_maj, fa_xor, fa_leaves = _match_full_adders(*_full_adder_edges(cands))
    owner = np.arange(len(fa_maj), dtype=np.int64)
    stride = np.int64(num_vars)
    ml, xl = cands.maj_leaves, cands.xor3_leaves
    # halo_prefix_counts input: every node in the window planner's
    # level-major order, i.e. the prefixes of one graph-sized window.
    graph = build_graph_data(aig, with_labels=False)
    return {
        "aig": aig,
        "num_vars": num_vars,
        "first_and": first,
        "fanin0": fanin0,
        "fanin1": fanin1,
        "f0v": fanin0 >> 1,
        "f1v": fanin1 >> 1,
        "batches": batches,
        "nodes": np.arange(first, num_vars, dtype=np.int64),
        "shash_seed": shash_seed,
        "num_ands": aig.num_ands,
        "root_vars": np.concatenate([fa_xor, fa_maj]),
        "root_owner": np.concatenate([owner, owner]),
        "leaf_matrix": np.asarray(fa_leaves, dtype=np.int64),
        "maj_var": np.asarray(cands.maj_var, dtype=np.int64),
        "maj_key": (ml[:, 0] * stride + ml[:, 1]) * stride + ml[:, 2],
        "xor_var": np.asarray(cands.xor3_var, dtype=np.int64),
        "xor_key": (xl[:, 0] * stride + xl[:, 1]) * stride + xl[:, 2],
        "num_adders": len(fa_maj),
        "adj_indptr": graph.adjacency.indptr.astype(np.int64),
        "adj_indices": graph.adjacency.indices.astype(np.int64),
        "level_order": np.argsort(graph.node_levels(), kind="stable"),
    }


def run_merge_level(impl, inp):
    num_vars = inp["num_vars"]
    slots = MAX_CUTS + 1
    pad = num_vars
    leaves = np.full((num_vars, slots, 3), pad, dtype=np.int32)
    truths = np.zeros((num_vars, slots), dtype=np.uint8)
    sizes = np.zeros((num_vars, slots), dtype=np.int8)
    counts = np.zeros(num_vars, dtype=np.int32)
    boundary = np.arange(inp["first_and"])
    leaves[boundary, 0, 0] = boundary
    truths[boundary, 0] = TRIVIAL_TRUTH
    sizes[boundary, 0] = 1
    counts[boundary] = 1
    impl(inp["nodes"], inp["batches"], inp["fanin0"], inp["fanin1"], leaves,
         truths, sizes, counts, k=K, max_cuts=MAX_CUTS, include_trivial=True,
         pad=pad, pack_limit=_SAFE_PACK_LIMIT)
    return leaves, truths, sizes, counts


def run_shash_sweep(impl, inp):
    node = inp["shash_seed"].copy()
    impl(inp["fanin0"], inp["fanin1"], inp["first_and"], node, inp["batches"])
    return (node,)


def run_cone_sweep(impl, inp):
    return impl(inp["first_and"], inp["f0v"], inp["f1v"],
                inp["root_vars"], inp["root_owner"], inp["leaf_matrix"])


def run_fa_join(impl, inp):
    return impl(inp["maj_var"], inp["maj_key"],
                inp["xor_var"], inp["xor_key"])


def run_kahn_propagate(impl, inp):
    first, n_ands = inp["first_and"], inp["num_ands"]
    f0v = inp["f0v"][first:]
    f1v = inp["f1v"][first:]
    indegree = (f0v >= first).astype(np.int64) + (f1v >= first)
    src = np.concatenate([f0v, f1v]) - first
    dst = np.concatenate([np.arange(n_ands), np.arange(n_ands)])
    keep = src >= 0
    src, dst = src[keep], dst[keep]
    order = np.argsort(src, kind="stable")
    bounds = np.searchsorted(src[order], np.arange(n_ands + 1))
    values = np.ones(n_ands, dtype=np.int64)
    impl(bounds, dst[order], indegree, values)
    return (values,)


def run_halo_prefix_counts(impl, inp):
    return impl(inp["adj_indptr"], inp["adj_indices"], inp["level_order"],
                HALO_HOPS)


RUNNERS = {
    "merge_level": run_merge_level,
    "shash_sweep": run_shash_sweep,
    "cone_sweep": run_cone_sweep,
    "fa_join": run_fa_join,
    "kahn_propagate": run_kahn_propagate,
    "halo_prefix_counts": run_halo_prefix_counts,
}


def measure(kernel: str, backend: str, inp) -> tuple[tuple, float]:
    """Best-of-``REPEATS`` wall clock; result from the last run."""
    impl = backend_impl(kernel, backend)
    runner = RUNNERS[kernel]
    runner(impl, inp)  # untimed warmup: first-call costs, warm caches
    best = float("inf")
    result = None
    for _ in range(REPEATS):
        started = time.perf_counter()
        result = runner(impl, inp)
        best = min(best, time.perf_counter() - started)
    return result, best


def assert_identical(kernel: str, ref: tuple, got: tuple,
                     backend: str) -> None:
    assert len(ref) == len(got), kernel
    for index, (want, have) in enumerate(zip(ref, got)):
        np.testing.assert_array_equal(
            want, have,
            err_msg=f"{kernel}: {backend} output {index} diverged from numpy",
        )


def compare_backend(backend: str, kernels, inputs):
    """Time ``kernels`` under numpy and ``backend``; assert bit-identity.

    Returns ``(table rows, {kernel: speedup})``.
    """
    rows, speedups = [], {}
    for kernel in kernels:
        ref, ref_seconds = measure(kernel, "numpy", inputs)
        got, seconds = measure(kernel, backend, inputs)
        assert_identical(kernel, ref, got, backend)
        speedups[kernel] = ref_seconds / max(seconds, 1e-9)
        rows.append([kernel, f"{ref_seconds * 1e3:.2f}",
                     f"{seconds * 1e3:.2f}", f"{speedups[kernel]:.1f}x"])
    return rows, speedups


@pytest.fixture(scope="module")
def numpy_times(inputs):
    return {kernel: measure(kernel, "numpy", inputs)
            for kernel in registry.KERNEL_NAMES}


def test_kernels_numpy_baseline(benchmark, inputs, numpy_times):
    """Always-on lane: sanity-check and record the reference timings."""
    keep_under_benchmark_only(benchmark)
    (leaves, _, _, counts), _ = numpy_times["merge_level"]
    assert int(counts.sum()) > inputs["num_vars"]  # cuts actually stored
    (node,), _ = numpy_times["shash_sweep"]
    assert len(np.unique(node)) > inputs["num_ands"]  # every AND mixed
    (nodes, owners), _ = numpy_times["cone_sweep"]
    assert len(nodes) == len(owners) > 0
    (edge_maj, edge_xor, _), _ = numpy_times["fa_join"]
    assert len(edge_maj) == len(edge_xor) >= inputs["num_adders"]
    (values,), _ = numpy_times["kahn_propagate"]
    assert values.max() > 1
    (sizes, edges), _ = numpy_times["halo_prefix_counts"]
    assert sizes[-1].tolist() == [inputs["num_vars"]] * (HALO_HOPS + 1)
    assert edges[-1].tolist() == [len(inputs["adj_indices"])] * HALO_HOPS
    emit_json("BENCH_kernels", {
        "width": WIDTH,
        "backend": "numpy",
        "seconds": {k: t for k, (_, t) in numpy_times.items()},
    })


@needs_c
def test_kernels_c_smoke(benchmark, inputs):
    """CI guard: the C merge must clear 5x, and every C kernel matches."""
    keep_under_benchmark_only(benchmark)
    rows, speedups = compare_backend("c", C_KERNELS, inputs)
    text = dumps_aag(inputs["aig"])
    digests = {}
    try:
        for backend in ("numpy", "c"):
            set_backend(backend)
            digests[backend] = loads_aag(text).structural_hash()
    finally:
        set_backend(None)
    assert digests["c"] == digests["numpy"], digests
    emit("kernels_backends_c_smoke", format_table(
        f"C kernel backend, {WIDTH}-bit CSA (best of {REPEATS})",
        ["kernel", "numpy ms", "c ms", "speedup"], rows,
    ))
    emit_json("BENCH_kernels", {
        "smoke": True,
        "width": WIDTH,
        "backend": "c",
        "speedups": speedups,
    })
    assert speedups["merge_level"] >= C_SMOKE_MIN_SPEEDUP, (
        f"merge_level: {speedups['merge_level']:.2f}x under c (need >= "
        f"{C_SMOKE_MIN_SPEEDUP}x)"
    )
