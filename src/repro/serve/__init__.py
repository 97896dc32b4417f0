"""Serving layer: planned, parallel, cached reasoning over trained Gamoras.

``ReasoningService`` plans each batch with
:func:`repro.serve.sharding.plan_shards` — a :class:`BatchPlan` of steps,
each a block-diagonal merge plus the :class:`repro.learn.data.WindowPlan`
that runs it — and executes every step through one streamed forward pass.
One inference-memory budget, ``max_window_bytes``, bounds every window:
merges are packed under it, and a circuit whose standalone estimate
exceeds it is still admitted, streamed level window by level window under
the same budget — bit-identical labels, peak activation memory bounded by
the budget instead of the circuit size.  The service deduplicates
structurally identical requests, caches encodings and results in
structural-hash keyed LRUs, and fans per-circuit post-processing out to
worker processes (``postprocess_workers``, via
:class:`repro.serve.workers.PostprocessPool`) overlapped with the next
step's forward pass.  See :mod:`repro.serve.service` for the pipeline
and caching semantics.

On top of the batch service sits the always-on daemon
(:mod:`repro.serve.daemon`): ``GamoraDaemon`` keeps the caches warm
across requests (and across restarts, via the persistent spill),
``MicroBatchScheduler`` (:mod:`repro.serve.scheduler`) coalesces
concurrent requests into shared ``reason_many`` micro-batches, and
``DaemonServer``/``SocketDaemonClient`` speak line-delimited JSON over a
Unix domain socket (``python -m repro serve``).

Resilience (:mod:`repro.serve.resilience`) makes the stack's failure
behavior first-class: requests carry deadlines that the scheduler honors
at dequeue, clients retry retriable errors under a jittered
``RetryPolicy``, a deterministic ``FaultPlan`` injects crashes / slow
stages / socket drops / cache corruption / OOMs at named fault points for
chaos testing, and degradation paths (streamed OOM fallback, cache
quarantine, scheduler watchdog) keep the daemon answering when parts of
it misbehave.
"""

from repro.serve.cache import StructuralHashCache, exact_fingerprint
from repro.serve.daemon import (
    DaemonClient,
    DaemonServer,
    GamoraDaemon,
    SocketDaemonClient,
)
from repro.serve.resilience import (
    DeadlineExceededError,
    FaultPlan,
    InjectedFaultError,
    RetryPolicy,
    SchedulerWedgedError,
    Watchdog,
)
from repro.serve.scheduler import (
    MicroBatchScheduler,
    QueueFullError,
    RequestStats,
    RequestTicket,
    SchedulerClosedError,
)
from repro.serve.service import BatchReasoningOutcome, BatchStats, ReasoningService
from repro.serve.sharding import BatchPlan, PlanStep, plan_shards
from repro.serve.workers import PostprocessPool, fork_available, resolve_workers

__all__ = [
    "StructuralHashCache",
    "exact_fingerprint",
    "BatchReasoningOutcome",
    "BatchStats",
    "ReasoningService",
    "BatchPlan",
    "PlanStep",
    "plan_shards",
    "PostprocessPool",
    "fork_available",
    "resolve_workers",
    "MicroBatchScheduler",
    "QueueFullError",
    "RequestStats",
    "RequestTicket",
    "SchedulerClosedError",
    "GamoraDaemon",
    "DaemonClient",
    "DaemonServer",
    "SocketDaemonClient",
    "DeadlineExceededError",
    "FaultPlan",
    "InjectedFaultError",
    "RetryPolicy",
    "SchedulerWedgedError",
    "Watchdog",
]
