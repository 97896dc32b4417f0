"""Backend registry for the array hot-path kernels.

The hot paths run on six well-defined array contracts: the two bottom-up
graph sweeps (the priority-cut merge and the structural hash's mixing
pass), three more on the post-GNN path (the cone frontier sweep, the
packed-key FA join, and the Kahn longest-path wavefront) and the
streaming window planner's per-prefix halo counts.  Each is a
*registered kernel*: a name plus a pinned signature, with one
implementation per *backend*.  Two backends ship:

* ``numpy`` — always present, the reference and bit-identity oracle;
  its bottom-up sweeps run one topological level per vectorized batch;
* ``c`` — compiled ``merge_level``, ``shash_sweep``, ``kahn_propagate``
  and ``halo_prefix_counts``, built once with the system C compiler and
  loaded through ``ctypes``, gated on the build succeeding
  (:mod:`repro.kernels.c_backend`).  Each bottom-up sweep is one call
  per graph in variable-id order, which an AIG guarantees is
  topological.

The compiled backend must be bit-identical to numpy — the differential
suite in ``tests/test_kernels.py`` pins that, which is also what makes
backend choice invisible to the result cache.

Selection is process-global, not per-call: the ``REPRO_KERNEL`` env var
(one of :data:`BACKEND_CHOICES`) picks the default, :func:`set_backend`
overrides it (the CLI's ``--kernel`` flag lands here).  ``auto`` resolves
c → numpy, taking the first that loads; an *explicit* ``c`` request that
cannot load warns and falls back to numpy — never an ImportError on a
serving path.  A backend that failed to load is not
retried in the same process (a failed C build is not re-run per
resolve).  Backends may implement any subset of the kernels; missing
ones transparently fall back to numpy, which is also how test-only
backends hook in (:func:`register` accepts arbitrary backend names).

Every dispatch is counted per ``(kernel, backend)`` so the serving daemon
can surface what actually ran (``stats``/``stats.json``).
"""

from __future__ import annotations

import importlib
import os
import threading
import warnings
from typing import Callable

__all__ = [
    "BACKEND_CHOICES",
    "BACKEND_ENV",
    "KERNEL_NAMES",
    "LEVELS_SCALAR_CUTOFF",
    "active_backend",
    "dispatch_counts",
    "get_kernel",
    "kernel_stats",
    "register",
    "requested_backend",
    "reset_dispatch_counts",
    "resolve_backend",
    "set_backend",
    "warmup",
]

BACKEND_ENV = "REPRO_KERNEL"

# Accepted values of REPRO_KERNEL and the CLI's --kernel flag.
BACKEND_CHOICES = ("auto", "numpy", "c")

# Compiled backends: importing the module registers its kernels, and an
# ImportError means "unavailable here".
_BACKEND_MODULES = {
    "c": "repro.kernels.c_backend",
}

# The six pinned kernel contracts (see numpy_backend for the reference
# implementations and the signature documentation).
KERNEL_NAMES = ("merge_level", "shash_sweep", "cone_sweep", "fa_join",
                "kahn_propagate", "halo_prefix_counts")

# Below this many AND nodes, AIG.levels_array() keeps its per-node Python
# recurrence: the wavefront kernel's per-round call overhead (a few µs per
# topological level, regardless of backend) only amortizes once levels are
# wide enough.  One tunable constant — `AIG._LEVELS_VECTOR_MIN` is
# initialized from it — measured by the `kahn_propagate` rows of
# `benchmarks/bench_kernels.py` (the 64-bit multiplier, ~40k ANDs, sits
# far above the cutoff; shrink it only with numbers from that benchmark).
LEVELS_SCALAR_CUTOFF = 4096

_impls: dict[tuple[str, str], Callable] = {}
_loaded_backends: set[str] = set()
_unavailable: dict[str, str] = {}  # backend -> why its import failed
_requested: str | None = None  # explicit set_backend choice (beats the env)
_active: str | None = None  # cached resolution; invalidated by set_backend
_counts: dict[tuple[str, str], int] = {}
_warmup_info: dict | None = None
_lock = threading.RLock()


def register(kernel: str, backend: str) -> Callable[[Callable], Callable]:
    """Decorator: register an implementation of ``kernel`` for ``backend``."""
    if kernel not in KERNEL_NAMES:
        raise ValueError(
            f"unknown kernel {kernel!r}; expected one of {KERNEL_NAMES}"
        )

    def decorate(fn: Callable) -> Callable:
        with _lock:
            _impls[(kernel, backend)] = fn
        return fn

    return decorate


def _load_backend(backend: str) -> bool:
    """Make ``backend``'s kernels registered; False when unavailable."""
    with _lock:
        if backend in _loaded_backends:
            return True
        if backend in _unavailable:
            return False
        if backend == "numpy":
            from repro.kernels import numpy_backend  # noqa: F401
        elif backend in _BACKEND_MODULES:
            try:
                importlib.import_module(_BACKEND_MODULES[backend])
            except ImportError as exc:
                _unavailable[backend] = str(exc)
                return False
        elif not any(key[1] == backend for key in _impls):
            # Custom backends (tests, experiments) register their kernels
            # up front; an unknown name has nothing to load.
            return False
        _loaded_backends.add(backend)
        return True


def requested_backend() -> str:
    """What was asked for: ``set_backend`` choice, else env, else ``auto``."""
    with _lock:
        if _requested is not None:
            return _requested
    return os.environ.get(BACKEND_ENV, "auto").strip().lower() or "auto"


def resolve_backend(name: str | None = None) -> str:
    """Resolve a requested backend name to the one that will serve.

    ``auto`` takes c when it loads, else numpy; an explicit ``c`` request
    that cannot load warns and degrades to numpy (a serving process must come up
    regardless); anything else must be a registered backend name.
    """
    name = (name or requested_backend()).strip().lower()
    if name == "auto":
        if _load_backend("c"):
            return "c"
        return "numpy"
    if name == "numpy":
        _load_backend("numpy")
        return "numpy"
    if name in _BACKEND_MODULES:
        if _load_backend(name):
            return name
        reason = _unavailable.get(name, "not loadable")
        warnings.warn(
            f"kernel backend {name!r} requested but unavailable ({reason}); "
            "falling back to the numpy backend",
            RuntimeWarning,
            stacklevel=2,
        )
        return "numpy"
    if _load_backend(name):
        return name
    raise ValueError(
        f"unknown kernel backend {name!r}; expected one of "
        f"{BACKEND_CHOICES} or a registered custom backend"
    )


def set_backend(name: str | None) -> str:
    """Select the process-wide backend; returns the resolved name.

    ``None`` clears any explicit choice and re-reads ``REPRO_KERNEL``.
    """
    global _requested, _active
    with _lock:
        _requested = None if name is None else str(name).strip().lower()
        _active = resolve_backend()
        return _active


def active_backend() -> str:
    """The backend dispatch currently serves (resolving lazily once)."""
    global _active
    with _lock:
        if _active is None:
            _active = resolve_backend()
        return _active


def get_kernel(name: str) -> Callable:
    """The active backend's ``name`` implementation, dispatch-counted.

    Backends may implement a subset of the kernels: anything missing is
    served by the numpy reference implementation (and counted as numpy).
    """
    backend = active_backend()
    with _lock:
        impl = _impls.get((name, backend))
        if impl is None:
            _load_backend("numpy")
            impl = _impls.get((name, "numpy"))
            if impl is None:
                raise KeyError(f"unknown kernel {name!r}")
            backend = "numpy"
    key = (name, backend)

    def dispatched(*args, **kwargs):
        with _lock:
            _counts[key] = _counts.get(key, 0) + 1
        return impl(*args, **kwargs)

    return dispatched


def dispatch_counts() -> dict[str, dict[str, int]]:
    """``{kernel: {backend: invocations}}`` since the last reset."""
    out: dict[str, dict[str, int]] = {}
    with _lock:
        items = sorted(_counts.items())
    for (kernel, backend), count in items:
        out.setdefault(kernel, {})[backend] = count
    return out


def reset_dispatch_counts() -> None:
    with _lock:
        _counts.clear()


def kernel_stats() -> dict:
    """JSON-ready snapshot for the daemon's ``stats`` surface."""
    with _lock:
        warmed = dict(_warmup_info) if _warmup_info is not None else None
    return {
        "backend": active_backend(),
        "requested": requested_backend(),
        "warmup": warmed,
        "dispatch_counts": dispatch_counts(),
    }


def warmup(backend: str | None = None) -> dict:
    """Prime the active backend on a tiny synthetic AIG; returns a record.

    Runs the real pipeline — structural hash, cut sweep, FA join, cone
    consumption, word-level ranks — over a small CSA multiplier so every
    registered kernel executes at least once (the C backend was already built when it
    resolved; this pays its first-call costs).  Small graphs take the
    scalar ``levels_array()`` fallback and the pipeline plans no streaming
    windows, so the Kahn and halo-count kernels are additionally driven
    directly on a hand-built CSR.  Dispatch counters are reset
    afterwards: serving stats start at zero, first-call cost is paid
    before the first request.
    """
    global _warmup_info
    import time

    import numpy as np

    if backend is not None:
        set_backend(backend)
    resolved = active_backend()
    started = time.perf_counter()

    from repro.generators import csa_multiplier
    from repro.reasoning.fast_pairing import fast_extract_adder_tree
    from repro.reasoning.wordlevel import analyze_adder_tree

    aig = csa_multiplier(4).aig
    aig.structural_hash()
    tree = fast_extract_adder_tree(aig)
    analyze_adder_tree(aig, tree)

    indptr = np.array([0, 1, 2, 2], dtype=np.int64)
    consumers = np.array([1, 2], dtype=np.int64)
    indegree = np.array([0, 1, 1], dtype=np.int64)
    values = np.zeros(3, dtype=np.int64)
    get_kernel("kahn_propagate")(indptr, consumers, indegree, values)
    assert values[2] == 2, "kahn warmup produced a wrong longest path"
    # The same chain as a fan-in adjacency (row 2 reads 1, row 1 reads
    # 0): a window on node 2 pulls in 1, then 0.
    sizes, edges = get_kernel("halo_prefix_counts")(
        np.array([0, 0, 1, 2], dtype=np.int64),
        np.array([0, 1], dtype=np.int64),
        np.array([2, 0], dtype=np.int64), 2)
    assert sizes.tolist() == [[3, 2, 1], [3, 3, 2]] \
        and edges.tolist() == [[2, 1], [2, 1]], \
        "halo warmup produced wrong block counts"

    reset_dispatch_counts()
    record = {
        "backend": resolved,
        "seconds": time.perf_counter() - started,
    }
    with _lock:
        _warmup_info = dict(record)
    return record
