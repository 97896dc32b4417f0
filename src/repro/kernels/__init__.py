"""Pluggable compiled-kernel backends for the array hot paths.

``repro.kernels`` dispatches six array kernels — the two bottom-up graph
sweeps (the priority-cut merge and the structural hash's mixing pass),
the cone frontier sweep, the packed-key FA join, the Kahn longest-path
wavefront and the streaming window planner's per-prefix halo counts — to
a selected backend: the pure-NumPy reference (always present) or the C
backend (:mod:`repro.kernels.c_backend`: ``merge_level``,
``shash_sweep``, ``kahn_propagate`` and ``halo_prefix_counts`` compiled
once with the system C compiler and loaded through ``ctypes``).
``auto``, the default, resolves c → numpy.  See :mod:`repro.kernels.registry` for selection semantics
(``REPRO_KERNEL``, ``set_backend``, :data:`BACKEND_CHOICES`) and
:mod:`repro.kernels.numpy_backend` for the pinned kernel signatures.

This package import stays light: backend modules load lazily on first
dispatch, so importing :mod:`repro.aig.graph` (which reads the levels
threshold constant from here) costs nothing extra.
"""

from repro.kernels.registry import (
    BACKEND_CHOICES,
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
