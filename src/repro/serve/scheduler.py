"""Cross-request micro-batching for the serving daemon.

:class:`MicroBatchScheduler` sits between concurrent request producers
(socket connections, in-process clients, test threads) and one
:class:`~repro.serve.service.ReasoningService`.  Producers enqueue single
circuits; a dedicated scheduler thread coalesces everything that arrived
within a small window (measured from the *first* waiting request) into
one ``reason_many`` call.  That is where the batching machinery pays off
across users: structurally identical circuits from different clients
dedup to one forward pass, the shard planner packs the distinct ones
block-diagonally, and the warm result LRU serves repeats outright.

The window closes early once no one else can join the batch.  A daemon
socket connection holds at most one request in flight, so the scheduler
counts open connections (:meth:`~MicroBatchScheduler.connection_opened`
/ :meth:`~MicroBatchScheduler.connection_closed`) and the queued requests
that came over one (``submit_async(..., from_connection=True)``): once at
least one connection is open and every open connection has its request
queued, the batch dispatches at once.  A lone client is answered without
waiting out the window, and two closed-loop clients still ride in pairs.
One idle open connection restores the full window for everyone, since
its next request could still arrive in time.  Requests submitted
in-process never count toward the rule, and with no connection open the
scheduler waits exactly one window (or until ``max_batch`` requests are
queued).

Admission control is depth-based and fail-fast: once ``max_queue_depth``
requests are waiting, :meth:`~MicroBatchScheduler.submit` raises
:class:`QueueFullError` (``retriable=True``) immediately instead of
blocking the producer — the daemon's socket layer turns that into a
retriable error response, so backpressure reaches clients as a signal,
not as latency.

Every request gets a :class:`RequestStats` record — queue wait, the
micro-batch it rode in, its shard assignment, whether it was a cache
hit, and the batch's full per-stage :class:`~repro.serve.service.BatchStats`
— resolved through its :class:`RequestTicket` and, when ``run_dir`` is
set, written to ``<run_dir>/<request_id>/stats.json``.

Requests with different post-processing options cannot share a
``reason_many`` call (options apply batch-wide), so a popped micro-batch
is grouped by normalized options and runs one service call per group;
under homogeneous traffic — the common case — that is exactly one call.

The scheduler is one-shot: :meth:`start` it, :meth:`stop` it (draining
the queue by default), then build a new one.  All mutable state is
guarded by a single condition variable; the scheduler thread is the only
consumer, so requests resolve in arrival order within a batch.
"""

from __future__ import annotations

import json
import math
import re
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path

from repro.core.api import ReasoningOutcome, _as_aig
from repro.kernels.registry import active_backend
from repro.serve import resilience
from repro.serve.resilience import DeadlineExceededError
from repro.serve.service import ReasoningService, _normalize_options
from repro.utils.timing import Timer

__all__ = [
    "MicroBatchScheduler",
    "QueueFullError",
    "RequestStats",
    "RequestTicket",
    "SchedulerClosedError",
]


class QueueFullError(RuntimeError):
    """Admission control rejected a request: the queue is at capacity.

    Always ``retriable`` — the queue drains at batch cadence, so the same
    request a moment later may well be admitted.  Raised from ``submit``
    before the request is enqueued; nothing is left behind to clean up.
    """

    retriable = True

    def __init__(self, depth: int, limit: int) -> None:
        super().__init__(
            f"request queue full ({depth}/{limit} waiting); retry later"
        )
        self.depth = depth
        self.limit = limit


class SchedulerClosedError(RuntimeError):
    """The scheduler has been stopped and accepts no new requests."""


@dataclass
class RequestStats:
    """Per-request accounting, JSON-ready via :meth:`to_dict`.

    ``batch_size`` counts every request coalesced into the micro-batch;
    ``group_size`` the subset sharing this request's post-processing
    options (one ``reason_many`` call per group).  ``shard_index`` is the
    block-diagonal shard that ran this circuit's forward pass, ``None``
    when the outcome came straight from the warm result cache
    (``result_hit``).  ``batch_stats`` embeds the group's full
    :class:`~repro.serve.service.BatchStats` — per-stage timings included
    — so one stats file tells the whole story of the batch it rode in.
    """

    request_id: str
    batch_id: int
    batch_size: int
    group_size: int
    batch_unique: int  # distinct structures the group actually computed
    num_shards: int
    shard_index: int | None
    result_hit: bool
    streamed: bool  # forward pass ran level-windowed under a window budget
    degraded: bool  # full pass OOMed; served by the streamed fallback
    kernel_backend: str  # hot-path kernel backend that served the batch
    queue_wait_seconds: float
    deadline_ms: float | None  # the caller's deadline, if it set one
    service_seconds: float  # the group's reason_many wall clock
    total_seconds: float  # submit -> resolved
    batch_stats: dict

    def to_dict(self) -> dict:
        return dict(vars(self))


class RequestTicket:
    """A caller's handle on one in-flight request.

    ``submit_async`` returns immediately with a ticket; :meth:`result`
    blocks until the scheduler resolves it (re-raising the failure if the
    batch errored).  Thread-safe: any thread may wait on any ticket.
    """

    def __init__(self, request_id: str) -> None:
        self.request_id = request_id
        self._done = threading.Event()
        self._outcome: ReasoningOutcome | None = None
        self._stats: RequestStats | None = None
        self._error: BaseException | None = None

    def done(self) -> bool:
        return self._done.is_set()

    def _wait(self, timeout: float | None) -> None:
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"request {self.request_id} not resolved within {timeout}s"
            )
        if self._error is not None:
            raise self._error

    def result(self, timeout: float | None = None) -> ReasoningOutcome:
        """The request's :class:`ReasoningOutcome` (blocks until resolved)."""
        self._wait(timeout)
        return self._outcome

    def stats(self, timeout: float | None = None) -> RequestStats:
        """The request's :class:`RequestStats` (blocks until resolved)."""
        self._wait(timeout)
        return self._stats

    def _resolve(self, outcome: ReasoningOutcome, stats: RequestStats) -> None:
        self._outcome = outcome
        self._stats = stats
        self._done.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._done.set()


class _Request:
    __slots__ = ("request_id", "aig", "options", "enqueued", "ticket",
                 "deadline", "deadline_ms", "from_connection")

    def __init__(self, request_id, aig, options, enqueued, ticket,
                 deadline=None, deadline_ms=None,
                 from_connection=False) -> None:
        self.request_id = request_id
        self.aig = aig
        self.options = options
        self.enqueued = enqueued
        self.ticket = ticket
        self.deadline = deadline  # absolute monotonic, None = no deadline
        self.deadline_ms = deadline_ms  # the caller's original budget
        self.from_connection = from_connection  # counts toward early dispatch


def _safe_component(request_id: str) -> str:
    """A request id reduced to a safe single path component."""
    cleaned = re.sub(r"[^A-Za-z0-9._-]+", "_", request_id).strip(".")
    return cleaned or "request"


class MicroBatchScheduler:
    """Coalesce concurrent requests into ``reason_many`` micro-batches.

    ``batch_window_ms`` is how long the scheduler waits after the first
    queued request for company before dispatching (0 dispatches whatever
    is queued immediately), unless every open connection already has its
    request queued (see the module docstring); ``max_batch`` caps a
    micro-batch's size and dispatches early when reached;
    ``max_queue_depth`` is the admission
    limit beyond which ``submit`` fast-fails with :class:`QueueFullError`.
    Every resolved outcome carries its word-level report (the service
    builds one per computed circuit).  ``run_dir`` enables per-request
    ``stats.json`` files.
    """

    def __init__(self, service: ReasoningService, *,
                 batch_window_ms: float = 5.0, max_batch: int = 32,
                 max_queue_depth: int = 128,
                 run_dir: str | Path | None = None) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be >= 1, got {max_queue_depth}"
            )
        if batch_window_ms < 0:
            raise ValueError(
                f"batch_window_ms must be >= 0, got {batch_window_ms}"
            )
        self.service = service
        self.batch_window_seconds = batch_window_ms / 1000.0
        self.max_batch = max_batch
        self.max_queue_depth = max_queue_depth
        self.run_dir = Path(run_dir) if run_dir is not None else None

        self._cond = threading.Condition()
        self._queue: deque[_Request] = deque()
        self._thread: threading.Thread | None = None
        self._stopping = False
        self._counter = 0
        # The early-dispatch rule: open socket connections, and the queued
        # requests that came over one.
        self._open_connections = 0
        self._queued_from_connections = 0
        # Stamped by the loop thread each iteration and after each batch;
        # the Watchdog reads it through heartbeat_age().
        self._heartbeat = time.monotonic()

        # Counters (mutated under _cond, snapshot by stats()).
        self.accepted = 0
        self.rejected = 0
        self.completed = 0
        self.failed = 0
        self.expired = 0  # deadlines that lapsed before dispatch
        self.batches = 0
        self.coalesced_batches = 0  # micro-batches with > 1 request
        self.max_coalesced = 0  # largest micro-batch dispatched
        self.result_hits = 0  # requests served from the warm result LRU
        self.num_shards = 0  # forward passes across all batches
        self.streamed_requests = 0  # requests run via the windowed pass
        self.degraded_requests = 0  # served by the OOM streamed fallback
        self.stats_write_errors = 0  # run-dir stats.json writes that failed

    # ------------------------------------------------------------------
    def start(self) -> "MicroBatchScheduler":
        """Spawn the scheduler thread (idempotent while running)."""
        with self._cond:
            if self._stopping:
                raise SchedulerClosedError("scheduler already stopped")
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._loop, name="gamora-scheduler", daemon=True
                )
                self._thread.start()
        return self

    def stop(self, drain: bool = True, timeout: float | None = None) -> None:
        """Stop accepting requests and shut the scheduler thread down.

        ``drain=True`` (default) lets the thread execute everything still
        queued — without further window waits — before exiting, so a
        graceful shutdown never drops accepted work.  ``drain=False``
        fails queued requests with :class:`SchedulerClosedError` instead.
        Idempotent.
        """
        with self._cond:
            self._stopping = True
            dropped = [] if drain else list(self._queue)
            if not drain:
                self._queue.clear()
                self._queued_from_connections = 0
            self.failed += len(dropped)
            self._cond.notify_all()
            thread = self._thread
        for request in dropped:
            request.ticket._fail(
                SchedulerClosedError("scheduler stopped before execution")
            )
        if thread is not None:
            thread.join(timeout)
        # A scheduler stopped before ever starting still owes its queued
        # tickets an answer — nothing will ever execute them.
        with self._cond:
            leftovers = list(self._queue)
            self._queue.clear()
            self._queued_from_connections = 0
            self.failed += len(leftovers)
        for request in leftovers:
            request.ticket._fail(
                SchedulerClosedError("scheduler stopped before execution")
            )

    def __enter__(self) -> "MicroBatchScheduler":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        with self._cond:
            return len(self._queue)

    def connection_opened(self) -> None:
        """Count one open connection that submits with ``from_connection``.

        The connection must submit at most one request at a time and call
        :meth:`connection_closed` exactly once when it ends.
        """
        with self._cond:
            self._open_connections += 1

    def connection_closed(self) -> None:
        """Uncount a connection; the rest may now all have requests queued."""
        with self._cond:
            self._open_connections -= 1
            self._cond.notify_all()

    def _every_connection_queued(self) -> bool:
        """No one can join the batch: each open connection has a request
        queued (called under ``_cond``)."""
        return (self._open_connections > 0
                and self._queued_from_connections >= self._open_connections)

    def submit_async(self, circuit, request_id: str | None = None, *,
                     root_filter: bool = False, correct_lsb: bool = True,
                     lsb_outputs: int = 4,
                     deadline_ms: float | None = None,
                     from_connection: bool = False) -> RequestTicket:
        """Enqueue one circuit; returns a :class:`RequestTicket` at once.

        ``deadline_ms`` is the caller's total patience, counted from now:
        if the request is still queued when the scheduler pops it past
        that point, it fails with a retriable
        :class:`~repro.serve.resilience.DeadlineExceededError` *without*
        dispatching a forward pass — a caller that gave up never burns
        compute.  ``from_connection`` marks a request sent over a
        connection registered with :meth:`connection_opened`, for the
        early-dispatch rule.  Raises :class:`QueueFullError` (retriable)
        when the queue is at ``max_queue_depth``,
        :class:`SchedulerClosedError` after :meth:`stop`, and
        ``ValueError`` for a deadline that is not a finite number > 0.
        """
        aig = _as_aig(circuit)
        if deadline_ms is not None:
            deadline_ms = float(deadline_ms)
            if not math.isfinite(deadline_ms) or deadline_ms <= 0:
                raise ValueError(
                    f"deadline_ms must be a finite number > 0, "
                    f"got {deadline_ms}"
                )
        # Requests group by the result-cache options key, so calls that
        # differ only in an ignored field share one reason_many call.
        options = _normalize_options(root_filter, correct_lsb, lsb_outputs)
        with self._cond:
            if self._stopping:
                raise SchedulerClosedError("scheduler is stopped")
            if len(self._queue) >= self.max_queue_depth:
                self.rejected += 1
                raise QueueFullError(len(self._queue), self.max_queue_depth)
            self._counter += 1
            rid = request_id if request_id else f"r{self._counter:06d}"
            ticket = RequestTicket(rid)
            now = time.monotonic()
            deadline = (now + deadline_ms / 1000.0
                        if deadline_ms is not None else None)
            self._queue.append(
                _Request(rid, aig, options, now, ticket, deadline,
                         deadline_ms, from_connection)
            )
            self._queued_from_connections += from_connection
            self.accepted += 1
            self._cond.notify_all()
        return ticket

    def submit(self, circuit, request_id: str | None = None,
               timeout: float | None = None,
               **options) -> tuple[ReasoningOutcome, RequestStats]:
        """Blocking :meth:`submit_async`: enqueue, wait, return the pair."""
        ticket = self.submit_async(circuit, request_id, **options)
        return ticket.result(timeout), ticket.stats(0)

    # ------------------------------------------------------------------
    def _loop(self) -> None:
        while True:
            with self._cond:
                self._heartbeat = time.monotonic()
                while not self._queue and not self._stopping:
                    self._cond.wait()
                if not self._queue:
                    return  # stopping with an empty queue: drained
                if not self._stopping:
                    # The window opens when the first request arrived, not
                    # when we noticed it: a request never waits more than
                    # one window for company.
                    deadline = (self._queue[0].enqueued
                                + self.batch_window_seconds)
                    while (len(self._queue) < self.max_batch
                           and not self._stopping
                           and not self._every_connection_queued()):
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            break
                        self._cond.wait(timeout=remaining)
                take = min(len(self._queue), self.max_batch)
                batch = [self._queue.popleft() for _ in range(take)]
                self._queued_from_connections -= sum(
                    request.from_connection for request in batch)
            self._execute(batch)
            with self._cond:
                self._heartbeat = time.monotonic()

    def heartbeat_age(self) -> float:
        """Seconds since the scheduler loop last proved itself alive."""
        with self._cond:
            return time.monotonic() - self._heartbeat

    def fail_pending(self, error: BaseException) -> int:
        """Fail every *queued* (not yet dispatched) request with ``error``.

        The watchdog's lever: an in-flight batch cannot be interrupted,
        but everything still waiting behind it gets a typed answer now
        instead of an unbounded hang.  Returns how many tickets failed.
        The scheduler keeps accepting and executing afterwards.
        """
        with self._cond:
            drained = list(self._queue)
            self._queue.clear()
            self._queued_from_connections = 0
            self.failed += len(drained)
        for request in drained:
            request.ticket._fail(error)
        return len(drained)

    def _execute(self, batch: list[_Request]) -> None:
        popped_at = time.monotonic()
        with self._cond:
            self.batches += 1
            batch_id = self.batches
            if len(batch) > 1:
                self.coalesced_batches += 1
            self.max_coalesced = max(self.max_coalesced, len(batch))
        # Deadline check happens here, at dequeue: an expired request is
        # failed before its group forms, so it never contributes to a
        # reason_many call — the forward-pass counter provably does not
        # move for callers that already gave up.
        live: list[_Request] = []
        expired: list[_Request] = []
        for request in batch:
            if request.deadline is not None and popped_at > request.deadline:
                expired.append(request)
            else:
                live.append(request)
        if expired:
            with self._cond:
                self.expired += len(expired)
                self.failed += len(expired)
            for request in expired:
                request.ticket._fail(DeadlineExceededError(
                    request.request_id, popped_at - request.enqueued,
                    request.deadline_ms,
                ))
        if not live:
            return
        batch = live
        groups: dict[tuple, list[_Request]] = {}
        for request in batch:
            groups.setdefault(request.options, []).append(request)
        for options, group in groups.items():
            root_filter, correct_lsb, lsb_outputs = options
            try:
                # Chaos hook: a sleep-kind rule here models a slow batch
                # stage; a raise-kind one fails the group, not the loop.
                resilience.fire("scheduler.execute")
                with Timer() as timer:
                    result = self.service.reason_many(
                        [request.aig for request in group],
                        root_filter=root_filter, correct_lsb=correct_lsb,
                        lsb_outputs=lsb_outputs,
                    )
            except Exception as error:  # keep the daemon alive
                with self._cond:
                    self.failed += len(group)
                for request in group:
                    request.ticket._fail(error)
                continue
            batch_stats = dict(vars(result.stats))
            hits = 0
            streamed = 0
            degraded = 0
            for request, outcome in zip(group, result):
                hit = outcome.shard_index is None
                hits += hit
                streamed += outcome.streamed
                degraded += outcome.degraded
                stats = RequestStats(
                    request_id=request.request_id,
                    batch_id=batch_id,
                    batch_size=len(batch),
                    group_size=len(group),
                    batch_unique=result.stats.unique_circuits,
                    num_shards=result.stats.num_shards,
                    shard_index=outcome.shard_index,
                    result_hit=hit,
                    streamed=outcome.streamed,
                    degraded=outcome.degraded,
                    kernel_backend=active_backend(),
                    queue_wait_seconds=popped_at - request.enqueued,
                    deadline_ms=request.deadline_ms,
                    service_seconds=timer.elapsed,
                    total_seconds=time.monotonic() - request.enqueued,
                    batch_stats=batch_stats,
                )
                self._write_stats(stats)
                request.ticket._resolve(outcome, stats)
            with self._cond:
                self.completed += len(group)
                self.result_hits += hits
                self.num_shards += result.stats.num_shards
                self.streamed_requests += streamed
                self.degraded_requests += degraded

    def _write_stats(self, stats: RequestStats) -> None:
        """Spill one request's stats.json; never fails the request."""
        if self.run_dir is None:
            return
        try:
            target = self.run_dir / _safe_component(stats.request_id)
            target.mkdir(parents=True, exist_ok=True)
            with open(target / "stats.json", "w", encoding="utf-8") as stream:
                json.dump(stats.to_dict(), stream, indent=2, sort_keys=True)
                stream.write("\n")
        except OSError:
            with self._cond:
                self.stats_write_errors += 1

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Counter snapshot (JSON-ready)."""
        with self._cond:
            return {
                "queue_depth": len(self._queue),
                "open_connections": self._open_connections,
                "queued_from_connections": self._queued_from_connections,
                "accepted": self.accepted,
                "rejected": self.rejected,
                "completed": self.completed,
                "failed": self.failed,
                "expired": self.expired,
                "batches": self.batches,
                "coalesced_batches": self.coalesced_batches,
                "max_coalesced": self.max_coalesced,
                "result_hits": self.result_hits,
                "num_shards": self.num_shards,
                "streamed_requests": self.streamed_requests,
                "degraded_requests": self.degraded_requests,
                "stats_write_errors": self.stats_write_errors,
                "heartbeat_age_seconds": time.monotonic() - self._heartbeat,
                "batch_window_ms": self.batch_window_seconds * 1000.0,
                "max_batch": self.max_batch,
                "max_queue_depth": self.max_queue_depth,
            }

    def __repr__(self) -> str:
        snapshot = self.stats()
        return (
            f"MicroBatchScheduler(window={snapshot['batch_window_ms']:.1f}ms, "
            f"max_batch={self.max_batch}, depth={snapshot['queue_depth']}/"
            f"{self.max_queue_depth}, accepted={snapshot['accepted']}, "
            f"batches={snapshot['batches']})"
        )
