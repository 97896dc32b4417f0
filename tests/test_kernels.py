"""Kernel backend registry semantics and numpy/compiled bit-identity.

Three invariant families:

* **Registry semantics** — selection precedence (``set_backend`` beats
  ``REPRO_KERNEL`` beats ``auto``), graceful degradation (an explicit
  ``c`` request that cannot build warns and serves numpy — never an
  ImportError on a serving path), custom test backends with per-kernel
  numpy fallback, dispatch counting, and the one shared scalar-levels
  cutoff constant.  These run everywhere.
* **Differential bit-identity** — the compiled backend (c, when the
  system compiler builds it) must produce *exactly* the numpy
  reference's output (same arrays, same
  dtypes-relevant values, same ordering) over the adder-tree circuit
  families, the degenerate graphs and random AIGs.  Bit-identity is what
  lets the result cache ignore the backend entirely, which the
  cache-sharing regression test at the bottom pins structurally.
* **C backend failure modes** — no compiler, bad arguments, concurrent
  callers and truncated cached builds all end in numpy service or a
  typed error, never in a crash.
"""

import os
import shutil
import sys
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig import AIG
from repro.aig.fast_cuts import enumerate_cuts_arrays
from repro.generators import booth_multiplier, csa_multiplier
from repro.generators.adders import ripple_carry_adder
from repro.kernels import numpy_backend, registry
from repro.kernels.registry import (
    BACKEND_ENV,
    KERNEL_NAMES,
    LEVELS_SCALAR_CUTOFF,
    active_backend,
    dispatch_counts,
    get_kernel,
    kernel_stats,
    register,
    requested_backend,
    reset_dispatch_counts,
    resolve_backend,
    set_backend,
    warmup,
)
from repro.learn import build_graph_data, halo_blocks
from repro.learn.fast import compile_inference
from repro.learn.model import GamoraNet, shallow_config
from repro.reasoning.fast_pairing import fast_extract_adder_tree
from repro.reasoning.wordlevel import analyze_adder_tree
from repro.utils.random_circuits import random_aig

needs_c = pytest.mark.skipif(
    not registry._load_backend("c"),
    reason="C kernel backend unavailable (no working C compiler)",
)

# Every compiled backend and the kernels it implements itself (the rest
# are served by numpy through the registry's per-kernel fallback).
COMPILED = {
    "c": ("merge_level", "shash_sweep", "kahn_propagate",
          "halo_prefix_counts"),
}
COMPILED_BACKENDS = [
    pytest.param("c", marks=needs_c),
]


@pytest.fixture(autouse=True)
def clean_registry(monkeypatch):
    """Every test sees (and leaves behind) a pristine backend selection."""
    monkeypatch.delenv(BACKEND_ENV, raising=False)
    set_backend(None)
    reset_dispatch_counts()
    saved = dict(registry._impls)
    saved_unavailable = dict(registry._unavailable)
    yield
    with registry._lock:
        registry._impls.clear()
        registry._impls.update(saved)
        registry._loaded_backends.intersection_update({"numpy", "c"})
        registry._unavailable.clear()
        registry._unavailable.update(saved_unavailable)
    # Teardown runs before the env monkeypatch is undone: drop a test's
    # REPRO_KERNEL (it may name a retired backend) and resolve quietly.
    monkeypatch.delenv(BACKEND_ENV, raising=False)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        set_backend(None)
    reset_dispatch_counts()


def ripple(width: int) -> AIG:
    aig = AIG()
    a_bits = aig.add_inputs(width, "a")
    b_bits = aig.add_inputs(width, "b")
    sums, cout = ripple_carry_adder(aig, a_bits, b_bits)
    for s in sums:
        aig.add_output(s)
    aig.add_output(cout)
    return aig


def one_level() -> AIG:
    aig = AIG()
    a, b = aig.add_inputs(2)
    aig.add_output(aig.add_and(a, b))
    return aig


def empty() -> AIG:
    aig = AIG()
    aig.add_inputs(3)
    return aig


# Fixture families: the adder-tree shapes the paper cares about plus the
# degenerate edges (single AND, no ANDs at all) and reconvergent noise.
CIRCUITS = {
    "ripple8": lambda: ripple(8),
    "csa8_array": lambda: csa_multiplier(8).aig,
    "csa8_wallace": lambda: csa_multiplier(8, style="wallace").aig,
    "csa6_dadda": lambda: csa_multiplier(6, style="dadda").aig,
    "booth8": lambda: booth_multiplier(8).aig,
    "random0": lambda: random_aig(num_inputs=5, num_ands=60,
                                  num_outputs=3, seed=0),
    "random1": lambda: random_aig(num_inputs=4, num_ands=80,
                                  num_outputs=2, seed=1),
    "one_level": one_level,
    "empty": empty,
}


# ---------------------------------------------------------------------------
# Registry semantics (run with or without a C compiler)
# ---------------------------------------------------------------------------

class TestRegistrySelection:
    def test_default_is_auto(self):
        assert requested_backend() == "auto"
        assert active_backend() in ("numpy", "c")

    def test_env_var_selects(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "numpy")
        set_backend(None)  # re-read the env
        assert requested_backend() == "numpy"
        assert active_backend() == "numpy"

    def test_set_backend_beats_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "auto")
        assert set_backend("numpy") == "numpy"
        assert requested_backend() == "numpy"
        assert set_backend(None) == resolve_backend("auto")

    def test_unknown_backend_raises(self, monkeypatch):
        # "numba" is a retired backend: it is an unknown name like any other.
        for name in ("fortran", "numba"):
            with pytest.raises(ValueError, match="unknown kernel backend"):
                set_backend(name)
            monkeypatch.setenv(BACKEND_ENV, name)
            with pytest.raises(ValueError, match="unknown kernel backend"):
                set_backend(None)

    def test_register_rejects_unknown_kernel(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            register("not_a_kernel", "numpy")

    def test_explicit_c_missing_falls_back_with_warning(self, monkeypatch):
        # Simulate an environment without a compiled backend regardless
        # of this one (auto would otherwise pick c).
        real_load = registry._load_backend
        monkeypatch.setattr(
            registry, "_load_backend",
            lambda b: False if b == "c" else real_load(b),
        )
        with pytest.warns(RuntimeWarning, match="falling back"):
            assert set_backend("c") == "numpy"
        # auto quietly resolves to numpy, no warning.
        assert set_backend("auto") == "numpy"

    def test_serving_path_never_importerror(self, monkeypatch):
        """REPRO_KERNEL=c with the C backend unavailable must still serve."""
        monkeypatch.setenv(BACKEND_ENV, "c")
        real_load = registry._load_backend
        monkeypatch.setattr(
            registry, "_load_backend",
            lambda b: False if b == "c" else real_load(b),
        )
        with pytest.warns(RuntimeWarning):
            set_backend(None)
        assert active_backend() == "numpy"
        record = warmup()  # the daemon boot path
        assert record["backend"] == "numpy"
        tree = fast_extract_adder_tree(csa_multiplier(4).aig)
        assert tree.num_full_adders > 0


class TestDispatchCounting:
    def test_pipeline_counts_every_kernel(self):
        set_backend("numpy")
        reset_dispatch_counts()
        aig = csa_multiplier(6).aig
        tree = fast_extract_adder_tree(aig)
        analyze_adder_tree(aig, tree)
        counts = dispatch_counts()
        for kernel in ("merge_level", "cone_sweep", "fa_join",
                       "kahn_propagate"):
            assert counts[kernel]["numpy"] > 0, kernel
        reset_dispatch_counts()
        assert dispatch_counts() == {}

    def test_kernel_stats_shape(self):
        set_backend("numpy")
        stats = kernel_stats()
        assert stats["backend"] == "numpy"
        assert stats["requested"] == "numpy"
        assert set(stats) == {"backend", "requested", "warmup",
                              "dispatch_counts"}

    def test_warmup_runs_all_kernels_then_resets(self):
        set_backend("numpy")
        record = warmup()
        assert record["backend"] == "numpy"
        assert record["seconds"] >= 0
        # Counters were reset after the warmup's own dispatches.
        assert dispatch_counts() == {}
        assert kernel_stats()["warmup"]["backend"] == "numpy"

        # Every registered kernel runs during the warmup.
        ran = set()
        for kernel in KERNEL_NAMES:
            def probe(*args, _kernel=kernel, **kwargs):
                ran.add(_kernel)
                return getattr(numpy_backend, _kernel)(*args, **kwargs)

            register(kernel, "probe")(probe)
        assert warmup("probe")["backend"] == "probe"
        assert ran == set(KERNEL_NAMES)
        assert dispatch_counts() == {}


class TestCustomBackends:
    def test_partial_backend_falls_back_per_kernel(self):
        calls = []

        @register("fa_join", "probe")
        def probe_join(maj_var, maj_key, xor_var, xor_key):
            calls.append(len(maj_var))
            from repro.kernels.numpy_backend import fa_join
            return fa_join(maj_var, maj_key, xor_var, xor_key)

        set_backend("probe")
        assert active_backend() == "probe"
        aig = csa_multiplier(5).aig
        tree = fast_extract_adder_tree(aig)
        assert tree.num_full_adders > 0
        assert calls, "custom fa_join was not dispatched"
        counts = dispatch_counts()
        # The implemented kernel is counted under the custom backend; the
        # rest transparently served (and counted) as numpy.
        assert counts["fa_join"] == {"probe": len(calls)}
        assert counts["merge_level"] == {"numpy":
                                         counts["merge_level"]["numpy"]}
        assert counts["cone_sweep"]["numpy"] > 0

    def test_unknown_kernel_name_raises(self):
        set_backend("numpy")
        with pytest.raises(KeyError):
            get_kernel("transpose")


class TestLevelsCutoff:
    def test_single_shared_constant(self):
        assert AIG._LEVELS_VECTOR_MIN == LEVELS_SCALAR_CUTOFF

    def test_cutoff_still_monkeypatchable(self, monkeypatch):
        """Tests force the vector path by lowering the class attribute."""
        monkeypatch.setattr(AIG, "_LEVELS_VECTOR_MIN", 0)
        set_backend("numpy")
        reset_dispatch_counts()
        aig = csa_multiplier(4).aig
        lev = aig.levels_array()
        assert dispatch_counts()["kahn_propagate"]["numpy"] == 1
        scalar = [0] * aig.num_vars
        f0, f1 = aig.fanin_arrays()
        for var in range(1 + aig.num_inputs, aig.num_vars):
            scalar[var] = 1 + max(scalar[f0[var] >> 1], scalar[f1[var] >> 1])
        assert lev.tolist() == scalar


# ---------------------------------------------------------------------------
# kahn_propagate unit tests (numpy reference vs brute force)
# ---------------------------------------------------------------------------

def brute_longest_path(num: int, edges: list[tuple[int, int]],
                       seed: np.ndarray) -> np.ndarray:
    values = seed.astype(np.int64).copy()
    changed = True
    while changed:
        changed = False
        for src, dst in edges:
            relaxed = max(values[dst], values[src] + 1)
            if relaxed != values[dst]:
                values[dst] = relaxed
                changed = True
    return values


def csr_from_edges(num: int, edges: list[tuple[int, int]]):
    src = np.array([e[0] for e in edges], dtype=np.int64)
    dst = np.array([e[1] for e in edges], dtype=np.int64)
    order = np.argsort(src, kind="stable")
    indptr = np.searchsorted(src[order], np.arange(num + 1))
    indegree = np.bincount(dst, minlength=num).astype(np.int64)
    return indptr, dst[order], indegree


@pytest.mark.parametrize("seed", range(5))
def test_kahn_matches_brute_force(seed):
    set_backend("numpy")
    rng = np.random.default_rng(seed)
    num = 30
    edges = [(a, b) for a in range(num) for b in range(a + 1, num)
             if rng.random() < 0.15]
    if not edges:
        edges = [(0, 1)]
    start = rng.integers(0, 3, size=num)
    indptr, consumers, indegree = csr_from_edges(num, edges)
    values = start.astype(np.int64).copy()
    get_kernel("kahn_propagate")(indptr, consumers, indegree, values)
    assert np.array_equal(values, brute_longest_path(num, edges, start))


def test_kahn_empty_graph():
    set_backend("numpy")
    values = np.arange(4, dtype=np.int64)
    get_kernel("kahn_propagate")(
        np.zeros(5, dtype=np.int64), np.zeros(0, dtype=np.int64),
        np.zeros(4, dtype=np.int64), values,
    )
    assert np.array_equal(values, np.arange(4))


# ---------------------------------------------------------------------------
# Differential suite: every compiled backend must be bit-identical to numpy
# ---------------------------------------------------------------------------

def run_pipeline(aig: AIG, backend: str):
    """Everything the kernels touch, captured under one backend."""
    set_backend(backend)
    cuts = enumerate_cuts_arrays(aig, k=3, max_cuts=10)
    tree = fast_extract_adder_tree(aig)
    report = analyze_adder_tree(aig, tree)
    return cuts, tree, report


def assert_same_cuts(ref, got) -> None:
    assert np.array_equal(ref.leaves, got.leaves)
    assert np.array_equal(ref.truths, got.truths)
    assert np.array_equal(ref.sizes, got.sizes)
    assert np.array_equal(ref.counts, got.counts)


class TestCompiledBitIdentity:
    @pytest.fixture(autouse=True, params=COMPILED_BACKENDS)
    def backend(self, request):
        warmup(request.param)
        return request.param

    @pytest.mark.parametrize("name", sorted(CIRCUITS), ids=str)
    def test_pipeline_identical(self, name, backend):
        build = CIRCUITS[name]
        ref_cuts, ref_tree, ref_report = run_pipeline(build(), "numpy")
        got_cuts, got_tree, got_report = run_pipeline(build(), backend)
        assert_same_cuts(ref_cuts, got_cuts)
        assert got_tree.adders == ref_tree.adders
        assert got_tree.consumed == ref_tree.consumed
        assert got_report == ref_report

    @pytest.mark.parametrize("name", sorted(CIRCUITS), ids=str)
    def test_levels_identical(self, name, backend, monkeypatch):
        monkeypatch.setattr(AIG, "_LEVELS_VECTOR_MIN", 0)
        build = CIRCUITS[name]
        set_backend("numpy")
        ref = np.asarray(build().levels_array())
        set_backend(backend)
        got = np.asarray(build().levels_array())
        assert np.array_equal(ref, got)

    @pytest.mark.parametrize("name", sorted(CIRCUITS), ids=str)
    def test_structural_hash_identical(self, name, backend):
        build = CIRCUITS[name]
        digests = {}
        for served_by in ("numpy", backend):
            set_backend(served_by)
            digests[served_by] = build().structural_hash()
        assert digests[backend] == digests["numpy"]

    def test_backend_actually_dispatches(self, backend):
        set_backend(backend)
        reset_dispatch_counts()
        aig = csa_multiplier(6).aig
        aig.structural_hash()
        analyze_adder_tree(aig, fast_extract_adder_tree(aig))
        model = compile_inference(GamoraNet(shallow_config()))
        build_graph_data(aig, with_labels=False).window_plan(10**5, model)
        counts = dispatch_counts()
        for kernel in KERNEL_NAMES:
            served = set(counts.get(kernel, {}))
            expected = backend if kernel in COMPILED[backend] else "numpy"
            assert served == {expected}, (kernel, counts)

    def test_small_pack_limit_identical(self, backend):
        """The compaction path (tiny pack_limit) stays backend-identical."""
        aig = csa_multiplier(6).aig
        set_backend("numpy")
        ref = enumerate_cuts_arrays(aig, max_cuts=6, pack_limit=128)
        set_backend(backend)
        got = enumerate_cuts_arrays(aig, max_cuts=6, pack_limit=128)
        assert_same_cuts(ref, got)

    @pytest.mark.parametrize("seed", range(5))
    def test_kahn_matches_brute_force(self, backend, seed):
        set_backend(backend)
        rng = np.random.default_rng(100 + seed)
        num = 40
        # Edges between random (not index-ordered) node pairs of a hidden
        # topological order, so the stack order differs from numpy's.
        rank = rng.permutation(num)
        edges = [(a, b) for a in range(num) for b in range(num)
                 if rank[a] < rank[b] and rng.random() < 0.1]
        start = rng.integers(0, 4, size=num)
        indptr, consumers, indegree = csr_from_edges(num, edges)
        values = start.astype(np.int64).copy()
        get_kernel("kahn_propagate")(indptr, consumers, indegree, values)
        assert np.array_equal(values, brute_longest_path(num, edges, start))

    @pytest.mark.parametrize("name", sorted(CIRCUITS), ids=str)
    @pytest.mark.parametrize("num_hops", [0, 1, 4])
    def test_halo_prefix_counts_identical(self, name, backend, num_hops):
        """c == numpy == per-prefix halo_blocks, on level-major and
        shuffled target orders."""
        data = build_graph_data(CIRCUITS[name](), with_labels=False)
        indptr = data.adjacency.indptr.astype(np.int64)
        indices = data.adjacency.indices.astype(np.int64)
        level_major = np.argsort(data.node_levels(), kind="stable")
        shuffled = np.random.default_rng(7).permutation(data.num_nodes)
        for order in (level_major, shuffled):
            targets = np.ascontiguousarray(order[:40], dtype=np.int64)
            want_sizes, want_edges = [], []
            for p in range(len(targets)):
                blocks = halo_blocks(data.adjacency, np.sort(targets[:p + 1]),
                                     num_hops)
                want_sizes.append([b.size for b in blocks])
                want_edges.append([int(np.diff(indptr)[rows].sum())
                                   for rows in blocks[1:]])
            results = {}
            for served_by in ("numpy", backend):
                set_backend(served_by)
                results[served_by] = get_kernel("halo_prefix_counts")(
                    indptr, indices, targets, num_hops)
            for sizes, edges in results.values():
                assert sizes.dtype == edges.dtype == np.int64
                assert sizes.shape == (len(targets), num_hops + 1)
                assert edges.shape == (len(targets), num_hops)
                assert sizes.tolist() == want_sizes
                assert edges.tolist() == want_edges


@needs_c
@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    num_inputs=st.integers(1, 8),
    num_ands=st.integers(0, 150),
    k=st.sampled_from([2, 3]),
    max_cuts=st.integers(1, 10),
    include_trivial=st.booleans(),
    roots=st.none() | st.lists(st.integers(0, 10**6), min_size=1,
                               max_size=4),
)
def test_c_cut_columns_match_numpy(seed, num_inputs, num_ands, k, max_cuts,
                                   include_trivial, roots):
    """Property: on random AIGs the C merge fills all four CutArrays
    columns exactly like numpy, restricted to random roots or not."""
    aig = random_aig(num_inputs=num_inputs, num_ands=num_ands,
                     num_outputs=2, seed=seed)
    restrict_to = None
    if roots is not None:
        restrict_to = sorted({root % aig.num_vars for root in roots})
    results = []
    for backend in ("numpy", "c"):
        set_backend(backend)
        results.append(enumerate_cuts_arrays(
            aig, k=k, max_cuts=max_cuts, include_trivial=include_trivial,
            restrict_to=restrict_to,
        ))
    assert_same_cuts(*results)


@needs_c
@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    num_inputs=st.integers(0, 8),
    num_ands=st.integers(0, 150),
    num_outputs=st.integers(0, 4),
)
def test_c_structural_hash_matches_numpy(seed, num_inputs, num_ands,
                                        num_outputs):
    """Property: the C hash sweep gives numpy's digest on random AIGs,
    including graphs with no ANDs, no inputs and constant outputs."""
    def build() -> AIG:
        if num_inputs == 0:
            aig = AIG()  # only constants to drive: no AND can exist
            for index in range(num_outputs):
                aig.add_output((seed >> index) & 1)
            return aig
        return random_aig(num_inputs=num_inputs, num_ands=num_ands,
                          num_outputs=num_outputs, seed=seed,
                          allow_constants=True)

    digests = []
    for backend in ("numpy", "c"):
        set_backend(backend)
        digests.append(build().structural_hash())
    assert digests[0] == digests[1]


# ---------------------------------------------------------------------------
# C backend failure modes
# ---------------------------------------------------------------------------

def fresh_columns(aig: AIG, slots: int = 4):
    """Valid merge_level arguments for a sweep of ``aig``'s first level."""
    fanin0, fanin1 = aig.fanin_arrays()
    num = aig.num_vars
    leaves = np.full((num, slots, 3), num, dtype=np.int32)
    truths = np.zeros((num, slots), dtype=np.uint8)
    sizes = np.zeros((num, slots), dtype=np.int8)
    counts = np.zeros(num, dtype=np.int32)
    boundary = np.arange(1 + aig.num_inputs)
    leaves[boundary, 0, 0] = boundary
    sizes[boundary, 0] = 1
    counts[boundary] = 1
    batch = next(aig.and_level_batches())
    return [batch, [batch], fanin0, fanin1, leaves, truths, sizes, counts]


@needs_c
class TestCBackendFailureModes:
    @pytest.fixture
    def c_backend(self):
        from repro.kernels import c_backend
        return c_backend

    def test_no_compiler_serves_numpy(self, monkeypatch):
        monkeypatch.setattr(shutil, "which", lambda *args, **kwargs: None)
        monkeypatch.delitem(sys.modules, "repro.kernels.c_backend")
        monkeypatch.setattr(registry, "_loaded_backends", {"numpy"})
        monkeypatch.setattr(registry, "_unavailable", {})
        monkeypatch.setattr(registry, "_impls", {
            key: impl for key, impl in registry._impls.items()
            if key[1] != "c"
        })
        assert set_backend("auto") == "numpy"
        assert "no C compiler" in registry._unavailable["c"]
        with pytest.warns(RuntimeWarning, match="falling back"):
            assert set_backend("c") == "numpy"
        reset_dispatch_counts()
        assert fast_extract_adder_tree(csa_multiplier(4).aig).num_full_adders
        assert set(dispatch_counts()["merge_level"]) == {"numpy"}

    def test_wrapper_rejects_bad_arguments(self, c_backend):
        aig = csa_multiplier(4).aig
        knobs = dict(k=3, max_cuts=3, include_trivial=True,
                     pad=aig.num_vars, pack_limit=1 << 20)
        merge = c_backend.merge_level

        args = fresh_columns(aig)
        args[4] = args[4].astype(np.int64)  # leaves must be int32
        with pytest.raises(TypeError, match="leaves"):
            merge(*args, **knobs)

        args = fresh_columns(aig)
        args[0] = args[0].astype(np.int32)  # nodes must be int64
        with pytest.raises(TypeError, match="nodes"):
            merge(*args, **knobs)

        args = fresh_columns(aig)
        wide = np.zeros((aig.num_vars, 8), dtype=np.uint8)
        args[5] = wide[:, ::2]  # right shape, strided
        with pytest.raises(ValueError, match="C-contiguous"):
            merge(*args, **knobs)

        args = fresh_columns(aig)
        with pytest.raises(ValueError, match="k=4"):
            merge(*args, **{**knobs, "k": 4})

        args = fresh_columns(aig)
        with pytest.raises(ValueError, match="slots"):
            merge(*args, **{**knobs, "max_cuts": 4})

        # Out-of-range indices are caught inside C before any write.
        args = fresh_columns(aig)
        args[0] = np.array([aig.num_vars], dtype=np.int64)
        before = [column.copy() for column in args[4:]]
        with pytest.raises(ValueError, match="out of range"):
            merge(*args, **knobs)
        for old, new in zip(before, args[4:]):
            assert np.array_equal(old, new)

        kahn = c_backend.kahn_propagate
        indptr = np.array([0, 1, 1], dtype=np.int64)
        consumers = np.array([1], dtype=np.int64)
        with pytest.raises(TypeError, match="indegree"):
            kahn(indptr, consumers, np.array([0, 1], dtype=np.int32),
                 np.zeros(2, dtype=np.int64))
        with pytest.raises(ValueError, match="indptr"):
            kahn(indptr[:2], consumers, np.array([0, 1], dtype=np.int64),
                 np.zeros(2, dtype=np.int64))
        with pytest.raises(ValueError, match="out of range"):
            kahn(indptr, np.array([7], dtype=np.int64),
                 np.array([0, 1], dtype=np.int64),
                 np.zeros(2, dtype=np.int64))

        halo = c_backend.halo_prefix_counts
        indptr = np.array([0, 0, 1, 2], dtype=np.int64)  # row i reads i - 1
        indices = np.array([0, 1], dtype=np.int64)
        targets = np.array([2, 0], dtype=np.int64)
        with pytest.raises(TypeError, match="targets"):
            halo(indptr, indices, targets.astype(np.int32), 2)
        with pytest.raises(TypeError, match="indices"):
            halo(indptr, indices.astype(np.int32), targets, 2)
        with pytest.raises(ValueError, match="C-contiguous"):
            halo(indptr, indices, np.array([2, 9, 0, 9])[::2], 2)
        with pytest.raises(ValueError, match="num_hops"):
            halo(indptr, indices, targets, -1)
        with pytest.raises(ValueError, match="num_hops"):
            halo(indptr, indices, targets, 255)
        with pytest.raises(ValueError, match="indptr"):
            halo(indptr[:0], indices, targets, 2)
        # Out-of-range ids are caught inside C before they are read.
        for bad in ([2, 3], [-1]):
            with pytest.raises(ValueError, match="out of range"):
                halo(indptr, indices, np.array(bad, dtype=np.int64), 2)
        with pytest.raises(ValueError, match="out of range"):
            halo(indptr, np.array([0, 5], dtype=np.int64), targets, 2)
        with pytest.raises(ValueError, match="out of range"):
            halo(np.array([0, 0, 1, 9], dtype=np.int64), indices, targets, 2)
        with pytest.raises(ValueError, match="out of range"):
            halo(np.array([0, 0, 2, 1], dtype=np.int64), indices, targets, 2)
        sizes, edges = halo(indptr, indices, targets, 2)
        assert sizes.tolist() == [[3, 2, 1], [3, 3, 2]]
        assert edges.tolist() == [[2, 1], [2, 1]]

    def test_merge_rejects_misordered_sweeps(self, c_backend):
        """A node list out of id order, or a fan-in at or after its node,
        is refused before C writes a single cut."""
        aig = csa_multiplier(4).aig
        knobs = dict(k=3, max_cuts=3, include_trivial=True,
                     pad=aig.num_vars, pack_limit=1 << 20)
        first = 1 + aig.num_inputs
        ands = np.arange(first, aig.num_vars, dtype=np.int64)
        fanin0, fanin1 = aig.fanin_arrays()
        late = fanin1.copy()
        late[first] = 2 * first  # reads itself
        later = fanin0.copy()
        later[first] = 2 * (first + 1) + 1  # reads the next AND
        cases = [
            (ands[::-1].copy(), fanin0, fanin1),  # descending
            (np.r_[ands[:3], ands[2:]], fanin0, fanin1),  # repeated id
            (ands, fanin0, late),
            (ands, later, fanin1),
        ]
        for nodes, f0, f1 in cases:
            args = fresh_columns(aig)
            args[:4] = [nodes, [nodes], f0, f1]
            before = [column.copy() for column in args[4:]]
            with pytest.raises(ValueError, match="ascending.*precede"):
                c_backend.merge_level(*args, **knobs)
            for old, new in zip(before, args[4:]):
                assert np.array_equal(old, new)

    def test_shash_sweep_rejects_bad_arguments(self, c_backend):
        aig = csa_multiplier(4).aig
        first = 1 + aig.num_inputs
        fanin0, fanin1 = aig.fanin_arrays()
        sweep = c_backend.shash_sweep

        def seeded():
            node = np.zeros(aig.num_vars, dtype=np.uint64)
            node[:first] = np.arange(1, first + 1, dtype=np.uint64)
            return node

        with pytest.raises(TypeError, match="node"):
            sweep(fanin0, fanin1, first, seeded().astype(np.int64), None)
        with pytest.raises(TypeError, match="fanin1"):
            sweep(fanin0, fanin1.astype(np.int32), first, seeded(), None)
        with pytest.raises(ValueError, match="disagree"):
            sweep(fanin0[:-1], fanin1[:-1], first, seeded(), None)
        with pytest.raises(ValueError, match="first"):
            sweep(fanin0, fanin1, aig.num_vars + 1, seeded(), None)
        late = fanin0.copy()
        late[-1] = 2 * (aig.num_vars - 1)  # the last AND reads itself
        negative = fanin1.copy()
        negative[first] = -1
        for f0, f1 in ((late, fanin1), (fanin0, negative)):
            node = seeded()
            before = node.copy()
            with pytest.raises(ValueError, match="precede"):
                sweep(f0, f1, first, node, None)
            assert np.array_equal(node, before)
        # A well-formed sweep fills exactly node[first:].
        node = seeded()
        sweep(fanin0, fanin1, first, node, None)
        assert np.array_equal(node[:first], seeded()[:first])
        assert np.all(node[first:] != 0)

    def test_threads_match_sequential(self, monkeypatch):
        """More sweeping threads than cores, on different graphs, with a
        short switch interval: every result equals the sequential one."""
        monkeypatch.setattr(AIG, "_LEVELS_VECTOR_MIN", 0)
        set_backend("c")
        builds = [lambda: csa_multiplier(12).aig,
                  lambda: booth_multiplier(10).aig,
                  lambda: csa_multiplier(10, style="wallace").aig,
                  lambda: random_aig(num_inputs=8, num_ands=400, seed=3)]

        def sweep(build):
            aig = build()
            return (enumerate_cuts_arrays(aig, k=3, max_cuts=8),
                    np.asarray(aig.levels_array()), aig.structural_hash())

        expected = [sweep(build) for build in builds]
        results: dict[tuple[int, int], tuple] = {}
        barrier = threading.Barrier(len(builds))

        def worker(index):
            barrier.wait(timeout=30)
            for repeat in range(3):
                results[index, repeat] = sweep(builds[index])

        threads = [threading.Thread(target=worker, args=(index,))
                   for index in range(len(builds))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == 3 * len(builds)
        for (index, _), (cuts, levels, digest) in results.items():
            assert_same_cuts(expected[index][0], cuts)
            assert np.array_equal(expected[index][1], levels)
            assert digest == expected[index][2]

    def test_truncated_cache_is_rebuilt(self, c_backend, tmp_path):
        cache = str(tmp_path / "rebuild")
        path = c_backend.cached_library(cache)
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.truncate(size // 2)
        assert not c_backend._elf_complete(path)
        assert c_backend.cached_library(cache) == path
        assert os.path.getsize(path) == size
        lib = c_backend.load_library(cache)
        assert lib.repro_kahn_propagate is not None

    def test_truncated_cache_without_compiler_is_unavailable(
            self, c_backend, tmp_path, monkeypatch):
        cache = str(tmp_path / "stale")
        path = c_backend.cached_library(cache)
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) // 2)
        monkeypatch.setattr(shutil, "which", lambda *args, **kwargs: None)
        with pytest.raises(ImportError, match="no C compiler"):
            c_backend.load_library(cache)
        assert not c_backend._elf_complete(path)

    def test_unwritable_cache_builds_privately(self, c_backend, tmp_path,
                                               monkeypatch):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        made = []
        real_mkdtemp = tempfile.mkdtemp

        def recording_mkdtemp(*args, **kwargs):
            made.append(real_mkdtemp(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(tempfile, "mkdtemp", recording_mkdtemp)
        lib = c_backend.load_library(str(blocker / "cache"))
        assert lib.repro_merge_level is not None
        assert len(made) == 1 and not os.path.exists(made[0])


# ---------------------------------------------------------------------------
# Satellite: backend choice must not fragment the result cache
# ---------------------------------------------------------------------------

class TestCacheSharingAcrossBackends:
    def test_result_cache_hits_across_backends(self):
        """A result computed under one backend is served from cache under
        another: the backend is structurally absent from the options key.

        Uses a numpy-aliasing custom backend so the test runs (and means
        the same thing) whether or not the C backend builds; the
        differential suite above is what makes the aliasing sound for the
        real pair.
        """
        from repro.core import Gamora
        from repro.kernels import numpy_backend
        from repro.learn import TrainConfig
        from repro.serve import ReasoningService

        for kernel in KERNEL_NAMES:
            register(kernel, "mirror")(getattr(numpy_backend, kernel))

        gamora = Gamora(model="shallow", train_config=TrainConfig(epochs=30))
        gamora.fit([csa_multiplier(4)])
        service = ReasoningService(gamora)
        circuit = csa_multiplier(5).aig

        set_backend("numpy")
        service.reason_many([circuit])
        first = service.cache_stats()["result"]
        assert first["misses"] >= 1

        set_backend("mirror")
        service.reason_many([circuit])
        second = service.cache_stats()["result"]
        assert second["hits"] == first["hits"] + 1
        assert second["misses"] == first["misses"]


# ---------------------------------------------------------------------------
# Daemon surfacing
# ---------------------------------------------------------------------------

class TestDaemonSurfacing:
    @pytest.fixture(scope="class")
    def gamora(self):
        from repro.core import Gamora
        from repro.learn import TrainConfig

        model = Gamora(model="shallow", train_config=TrainConfig(epochs=30))
        model.fit([csa_multiplier(4)])
        return model

    def test_ping_and_stats_report_backend(self, gamora):
        from repro.serve import DaemonClient, GamoraDaemon

        set_backend("numpy")
        with GamoraDaemon(gamora) as daemon:
            assert daemon.kernel_warmup is not None
            assert daemon.kernel_warmup["backend"] == "numpy"
            client = DaemonClient(daemon)
            pong = client.ping()
            assert pong["ok"] and pong["kernel_backend"] == "numpy"
            reply = client.reason(csa_multiplier(4).aig, request_id="r1")
            assert reply["ok"]
            assert reply["stats"]["kernel_backend"] == "numpy"
            snap = client.stats()
            kernels = snap["stats"]["kernels"]
            assert kernels["backend"] == "numpy"
            assert kernels["warmup"]["backend"] == "numpy"
            assert kernels["dispatch_counts"], "no dispatches recorded"

    def test_unknown_backend_fails_daemon_boot(self, gamora, monkeypatch):
        """REPRO_KERNEL naming a retired backend ("numba") stops the daemon
        in start(), before its scheduler runs or any socket binds."""
        from repro.serve import GamoraDaemon

        monkeypatch.setenv(BACKEND_ENV, "numba")
        monkeypatch.setattr(registry, "_requested", None)
        monkeypatch.setattr(registry, "_active", None)
        daemon = GamoraDaemon(gamora)
        try:
            with pytest.raises(ValueError, match="unknown kernel backend"):
                daemon.start()
            assert daemon.scheduler._thread is None
        finally:
            daemon.close()
