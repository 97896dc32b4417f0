"""Multiprocess post-processing pool for the reasoning service.

Post-processing (cut verification + adder-tree extraction) dominates the
CPU cost of serving — roughly 30:1 over inference on the reproduction's
workloads — and is embarrassingly parallel across circuits.
:class:`PostprocessPool` fans :func:`~repro.core.postprocess.extract_from_predictions`
calls out to ``fork``-ed worker processes so one shard's extraction can run
while the next shard's forward pass executes in the parent.

Design constraints, in order:

* **Correctness over speed** — a worker failure (exception, broken pool,
  unpicklable payload) never loses a result: the parent re-runs that
  circuit in-process and counts it in ``fallbacks``.
* **Graceful degradation** — ``workers=0``, platforms without the ``fork``
  start method (the payloads are cheap to fork, expensive to re-import
  under ``spawn``), or a pool that fails to start all collapse to
  synchronous in-process execution with identical results.
* **Adaptive sizing** — ``workers=None`` asks :func:`resolve_workers` to
  pick a worker count from ``os.cpu_count()`` and the workload hints the
  caller provides (payload count, total AND nodes).  Tiny workloads stay
  in-process: forking costs more than extracting a few thousand nodes.
* **Ordered reassembly** — :meth:`submit` returns a handle per circuit;
  callers collect handles in whatever order they need, so results always
  land back in input order regardless of worker scheduling.

The pool is intentionally per-call scoped (a context manager): the service
creates one around a ``reason_many`` pipeline and tears it down afterwards,
so no worker processes outlive a request.

Worker results are :class:`~repro.core.postprocess.PredictedExtraction`
objects carrying the array-core
:class:`~repro.reasoning.adder_tree.AdderTree` (int32 columns, lazy
detection/adders/consumed views): what crosses the process boundary is a
handful of NumPy arrays, not per-adder objects or leaf-set dicts, so the
pickle cost of reassembly stays proportional to the slice count.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from repro.core.postprocess import PredictedExtraction, extract_from_predictions
from repro.serve import resilience
from repro.utils.timing import Timer

__all__ = ["PostprocessPool", "fork_available", "resolve_workers",
           "AUTO_MIN_TOTAL_ANDS", "MAX_EXECUTOR_RESTARTS"]

# Below this many total AND nodes across the batch's unique circuits,
# auto-sizing stays in-process: the vectorized extractor clears such
# workloads in well under the cost of forking and pickling results back.
AUTO_MIN_TOTAL_ANDS = 20_000

# How many times a pool may replace an executor whose workers hard-crashed
# (OOM-kill, segfault) before giving up on parallel mode for good.  One
# poisoned payload must not permanently disable parallel post-processing in
# a long-lived daemon, but a systematically crashing environment (e.g. a
# cgroup OOM-killing every fork) must not restart forever either.
MAX_EXECUTOR_RESTARTS = 3


def fork_available() -> bool:
    """Whether the ``fork`` start method exists on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()


def resolve_workers(workers: int | None, num_payloads: int | None = None,
                    total_ands: int | None = None) -> int:
    """Effective worker count for a batch.

    An explicit ``workers`` wins unchanged (clamped at 0).  ``None`` means
    auto: 0 when fork is unavailable, the machine has a single core, the
    batch has at most one unique circuit, or the workload is tiny
    (``total_ands < AUTO_MIN_TOTAL_ANDS``); otherwise one worker per
    circuit, capped at ``cpu_count() - 1`` so the parent keeps a core for
    the overlapped forward passes.
    """
    if workers is not None:
        return max(0, int(workers))
    if not fork_available():
        return 0
    cpus = os.cpu_count() or 1
    if cpus < 2:
        return 0
    if num_payloads is not None and num_payloads <= 1:
        return 0
    if total_ands is not None and total_ands < AUTO_MIN_TOTAL_ANDS:
        return 0
    limit = cpus - 1
    if num_payloads is not None:
        limit = min(limit, num_payloads)
    return max(0, limit)


def _run_extraction(payload) -> tuple[PredictedExtraction, float]:
    aig, labels, root_filter, correct_lsb, lsb_outputs = payload
    with Timer() as timer:
        extraction = extract_from_predictions(
            aig, labels, root_filter=root_filter,
            correct_lsb=correct_lsb, lsb_outputs=lsb_outputs,
        )
    return extraction, timer.elapsed


def _worker_task(payload) -> tuple[PredictedExtraction, float]:
    # Only the worker hits this point, so the parent's in-process fallback
    # (which calls _run_extraction directly) is never faulted.
    resilience.fire("postprocess.worker")  # exit kind: OOM-kill / segfault
    return _run_extraction(payload)


class PostprocessHandle:
    """Deferred result of one submitted extraction.

    Wraps either a live future (parallel mode) or an already-computed
    value (synchronous mode).  :meth:`get` retries the work in the parent
    process if the worker failed, so it always returns.
    """

    def __init__(self, pool: "PostprocessPool", payload,
                 future=None, value=None) -> None:
        self._pool = pool
        self._payload = payload
        self._future = future
        self._value = value

    def get(self) -> tuple[PredictedExtraction, float]:
        if self._value is None:
            try:
                # A worker that raises propagates its exception here; a
                # worker that dies outright (OOM-kill, segfault) surfaces
                # as BrokenProcessPool — the executor, unlike
                # multiprocessing.Pool, never leaves a lost task pending
                # forever.  Both routes land in the fallback below.
                self._value = self._future.result()
            except Exception as error:
                if isinstance(error, BrokenProcessPool):
                    # The whole executor died, not just this task: flag it
                    # so the next submit replaces it (bounded) instead of
                    # falling back in-process forever.
                    self._pool._note_broken()
                self._pool.fallbacks += 1
                self._value = _run_extraction(self._payload)
            self._payload = None  # allow the arrays to be collected
        return self._value


class PostprocessPool:
    """A bounded pool of post-processing workers with in-process fallback.

    ``workers=0`` (or an unavailable ``fork``) makes :meth:`submit` run the
    extraction synchronously — same results, no processes.  ``workers=None``
    auto-sizes through :func:`resolve_workers` using the optional
    ``num_payloads`` / ``total_ands`` workload hints.  ``parallel`` reports
    which mode is active; ``fallbacks`` counts worker failures that were
    recovered in-process.

    A hard worker crash (OOM-kill, segfault) breaks the whole
    ``ProcessPoolExecutor``, not just the lost task.  The pool *replaces*
    a broken executor on the next :meth:`submit` — up to
    :data:`MAX_EXECUTOR_RESTARTS` times, counted in ``restarts`` — so one
    poisoned payload costs one fallback, not parallel mode for the rest of
    the pool's life.  Restarts exhausted (or failing) collapse to
    in-process permanently, preserving the old behavior as the floor.
    """

    def __init__(self, workers: int | None = 0,
                 num_payloads: int | None = None,
                 total_ands: int | None = None) -> None:
        self.requested_workers = resolve_workers(workers, num_payloads,
                                                 total_ands)
        self.fallbacks = 0
        self.restarts = 0
        self._broken = False
        self._closed = False
        # submit() and handle.get() normally run on one thread, but the
        # daemon's drain path may collect handles while a scheduler thread
        # still submits; the executor swap must not race.
        self._restart_lock = threading.Lock()
        self._executor = self._make_executor() if self.requested_workers else None
        self.workers = self.requested_workers if self._executor is not None else 0

    def _make_executor(self) -> ProcessPoolExecutor | None:
        if self.requested_workers <= 0 or not fork_available():
            return None
        try:
            return ProcessPoolExecutor(
                max_workers=self.requested_workers,
                mp_context=multiprocessing.get_context("fork"),
            )
        except OSError:
            return None

    def _note_broken(self) -> None:
        """Mark the current executor as dead (called from handle fallback)."""
        self._broken = True

    def _healthy_executor(self) -> ProcessPoolExecutor | None:
        """The live executor, replacing a broken one within the retry budget."""
        with self._restart_lock:
            if not self._broken or self._closed:
                return self._executor
            # Replace the broken executor (its pending futures already
            # resolved as BrokenProcessPool; shutdown just reaps it).
            if self._executor is not None:
                self._executor.shutdown(wait=False, cancel_futures=True)
                self._executor = None
            if self.restarts >= MAX_EXECUTOR_RESTARTS:
                self.workers = 0  # give up on parallel mode for good
                return None
            self.restarts += 1
            self._executor = self._make_executor()
            self._broken = False
            if self._executor is None:
                self.workers = 0
            return self._executor

    @property
    def parallel(self) -> bool:
        return self._executor is not None and not self._broken

    def submit(self, aig, labels, root_filter: bool, correct_lsb: bool,
               lsb_outputs: int) -> PostprocessHandle:
        """Queue one extraction; returns a handle to collect it from."""
        payload = (aig, labels, root_filter, correct_lsb, lsb_outputs)
        executor = self._healthy_executor()
        if executor is None:
            return PostprocessHandle(self, None, value=_run_extraction(payload))
        try:
            future = executor.submit(_worker_task, payload)
        except Exception:
            # The executor broke since the health check (a crash can land
            # at any time).  Flag it for the next submit's restart and
            # serve this payload in-process.
            self._note_broken()
            self.fallbacks += 1
            return PostprocessHandle(self, None, value=_run_extraction(payload))
        return PostprocessHandle(self, payload, future=future)

    def close(self) -> None:
        with self._restart_lock:
            self._closed = True
            if self._executor is not None:
                self._executor.shutdown(wait=True, cancel_futures=True)
                self._executor = None

    def __enter__(self) -> "PostprocessPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        mode = f"workers={self.workers}" if self.parallel else "in-process"
        return (f"PostprocessPool({mode}, fallbacks={self.fallbacks}, "
                f"restarts={self.restarts})")
