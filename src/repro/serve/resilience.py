"""Resilience primitives for the serving stack: faults, deadlines, retries.

The serving layers (scheduler → daemon → transport → clients) promise
graceful behavior under load and failure — retriable ``queue_full``
backpressure, drained shutdowns, out-of-memory recovery.  This module
provides the machinery that makes those promises *testable* and extends
them end to end:

* :class:`FaultPlan` / :func:`fire` — a general deterministic
  fault-injection framework.  Production code calls ``faults.fire(point)``
  at named fault points (``"infer.forward"``, ``"server.send"``, ...);
  with no plan armed that is a dict lookup and a ``None`` check, nothing
  more.  A plan — installed programmatically with :func:`install_plan`,
  which ``GamoraDaemon(fault_plan=)`` and ``serve --fault-plan`` (inline
  JSON or a path to a JSON file) both use — arms rules that
  trigger deterministically by per-point hit counts (explicit ``at``
  indices, ``every`` N-th, or a seeded Bernoulli ``rate``) and act by
  raising, sleeping, or signaling the call site
  (``drop``/``corrupt``, whose effect only the call site can apply).
* :class:`RetryPolicy` — exponential backoff with full jitter and a
  deadline-aware budget, built into both daemon clients so retriable
  errors (``queue_full``, ``deadline_exceeded``) and broken sockets are
  survived transparently.
* :class:`DeadlineExceededError` / :class:`SchedulerWedgedError` — the
  typed failures deadline propagation and the scheduler watchdog resolve
  tickets with.
* :class:`Watchdog` — a heartbeat monitor that fails queued tickets when
  the scheduler loop wedges, instead of letting clients hang forever.

Determinism: every trigger decision is a pure function of the plan (its
seed) and the per-point hit counter, so a chaos run replays exactly.
"""

from __future__ import annotations

import json
import random
import threading
import time
import warnings
import zlib

__all__ = [
    "DeadlineExceededError",
    "FaultPlan",
    "FaultRule",
    "InjectedFaultError",
    "RetryPolicy",
    "SchedulerWedgedError",
    "Watchdog",
    "fire",
    "install_plan",
    "fault_stats",
]

# The named fault points production code consults.  Not enforced (a plan
# may name new points a branch adds), but rules whose point matches
# nothing would silently never fire, so FaultPlan.from_dict warns on
# unknown names at parse time.
KNOWN_POINTS = (
    "infer.forward",       # forward pass inside reason_many (memory)
    "scheduler.execute",   # micro-batch execution (sleep: slow stage)
    "server.send",         # response write on the socket server (drop)
    "cache.spill",         # daemon cache spill on close (corrupt)
    "cache.load",          # daemon cache preload on start (raise)
)

_KINDS = ("raise", "memory", "sleep", "drop", "corrupt")


class InjectedFaultError(RuntimeError):
    """An armed ``raise``-kind fault fired at a named point."""

    def __init__(self, point: str) -> None:
        super().__init__(f"injected fault at {point!r}")
        self.point = point


class DeadlineExceededError(RuntimeError):
    """The request's deadline expired before its forward pass ran.

    Retriable: a fresh attempt with a fresh deadline may well make it
    through the queue — expiry says the *queue wait* exceeded the
    caller's budget, not that the circuit is unservable.
    """

    retriable = True

    def __init__(self, request_id: str, waited_seconds: float,
                 deadline_ms: float) -> None:
        super().__init__(
            f"request {request_id} exceeded its {deadline_ms:.0f}ms deadline "
            f"after {waited_seconds * 1e3:.0f}ms in queue; retry with a "
            "fresh deadline"
        )
        self.request_id = request_id
        self.waited_seconds = waited_seconds
        self.deadline_ms = deadline_ms


class SchedulerWedgedError(RuntimeError):
    """The watchdog declared the scheduler loop wedged and failed the queue.

    Retriable: the wedge may be one poisoned batch; a retry lands in the
    queue behind a (possibly recovered) loop, and admission control still
    applies.
    """

    retriable = True

    def __init__(self, heartbeat_age: float, timeout: float) -> None:
        super().__init__(
            f"scheduler heartbeat stale for {heartbeat_age:.1f}s "
            f"(watchdog timeout {timeout:.1f}s); queued requests failed "
            "instead of hanging"
        )
        self.heartbeat_age = heartbeat_age
        self.timeout = timeout


class FaultRule:
    """One armed fault: a point, a kind, and a deterministic trigger.

    Trigger forms (exactly one):

    * ``at`` — explicit 1-based hit indices (``[3]``: only the 3rd hit);
    * ``every`` — every N-th hit (``1``: every hit);
    * ``rate`` — per-hit Bernoulli draw from a :class:`random.Random`
      seeded by the plan seed and the point name, so a given (seed,
      point, hit-count) always decides the same way.

    ``limit`` optionally caps total fires; ``seconds`` parameterizes
    ``sleep``-kind rules.
    """

    def __init__(self, point: str, kind: str, *, at=None, every=None,
                 rate=None, seconds: float = 0.05, limit=None,
                 seed: int = 0) -> None:
        if kind not in _KINDS:
            raise ValueError(f"unknown fault kind {kind!r} (one of {_KINDS})")
        chosen = sum(x is not None for x in (at, every, rate))
        if chosen > 1:
            raise ValueError(
                f"fault at {point!r}: give at most one of at/every/rate"
            )
        if chosen == 0:
            every = 1  # default: every hit
        self.point = point
        self.kind = kind
        self.at = frozenset(int(i) for i in at) if at is not None else None
        self.every = int(every) if every is not None else None
        self.rate = float(rate) if rate is not None else None
        self.seconds = float(seconds)
        self.limit = int(limit) if limit is not None else None
        self.hits = 0
        self.fires = 0
        # Seeded per-rule stream: deterministic for a (seed, point) pair
        # regardless of what other points do in between.
        self._rng = random.Random(seed ^ zlib.crc32(point.encode("utf-8")))

    def should_fire(self) -> bool:
        """Count one hit and decide (deterministically) whether to fire."""
        self.hits += 1
        if self.limit is not None and self.fires >= self.limit:
            return False
        if self.at is not None:
            fire_now = self.hits in self.at
        elif self.rate is not None:
            fire_now = self._rng.random() < self.rate
        else:
            fire_now = self.hits % self.every == 0
        if fire_now:
            self.fires += 1
        return fire_now

    def to_dict(self) -> dict:
        return {
            "point": self.point, "kind": self.kind,
            "hits": self.hits, "fires": self.fires,
        }


class FaultPlan:
    """A set of :class:`FaultRule`\\ s, parseable from JSON.

    JSON shape (``seed`` is optional, rules list required)::

        {"seed": 7, "faults": [
            {"point": "infer.forward", "kind": "memory", "at": [2]},
            {"point": "scheduler.execute", "kind": "sleep",
             "seconds": 0.2, "every": 3},
            {"point": "server.send", "kind": "drop", "rate": 0.1}
        ]}

    A rule naming a point outside :data:`KNOWN_POINTS` parses, but
    :meth:`from_dict` emits a ``RuntimeWarning`` for it: nothing consults
    that point, so the rule would never fire.

    Thread-safe: hit counting is lock-guarded, so concurrent connection
    threads hitting one point still count (and fire) deterministically
    in arrival order.
    """

    def __init__(self, rules: list[FaultRule], seed: int = 0) -> None:
        self.rules = list(rules)
        self.seed = seed
        self._lock = threading.Lock()
        self._by_point: dict[str, list[FaultRule]] = {}
        for rule in self.rules:
            self._by_point.setdefault(rule.point, []).append(rule)

    @classmethod
    def from_dict(cls, spec: dict) -> "FaultPlan":
        if not isinstance(spec, dict) or not isinstance(
                spec.get("faults"), list):
            raise ValueError(
                "fault plan must be an object with a 'faults' list"
            )
        seed = int(spec.get("seed", 0))
        rules = []
        for entry in spec["faults"]:
            if not isinstance(entry, dict) or "point" not in entry \
                    or "kind" not in entry:
                raise ValueError(
                    f"fault rule needs 'point' and 'kind': {entry!r}"
                )
            unknown = set(entry) - {"point", "kind", "at", "every", "rate",
                                    "seconds", "limit"}
            if unknown:
                raise ValueError(
                    f"unknown fault rule keys: {sorted(unknown)}"
                )
            if entry["point"] not in KNOWN_POINTS:
                warnings.warn(
                    f"fault plan names unknown point {entry['point']!r}; "
                    f"no code consults it, so the rule never fires "
                    f"(known points: {', '.join(KNOWN_POINTS)})",
                    RuntimeWarning, stacklevel=2,
                )
            rules.append(FaultRule(
                str(entry["point"]), str(entry["kind"]),
                at=entry.get("at"), every=entry.get("every"),
                rate=entry.get("rate"),
                seconds=float(entry.get("seconds", 0.05)),
                limit=entry.get("limit"), seed=seed,
            ))
        return cls(rules, seed)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Parse inline JSON, or read the file at ``text`` if it's a path."""
        text = text.strip()
        if not text.startswith("{"):
            text = open(text, "r", encoding="utf-8").read()
        return cls.from_dict(json.loads(text))

    def fire(self, point: str) -> str | None:
        """Count a hit at ``point`` and act on the first rule that fires.

        ``raise``/``memory`` raise, ``sleep`` blocks for the rule's ``seconds``; ``drop`` and
        ``corrupt`` only *signal* — the kind is returned for the call
        site to apply (close the socket, mangle the file).  Returns the
        fired kind, or ``None`` when nothing fired.
        """
        rules = self._by_point.get(point)
        if not rules:
            return None
        fired = None
        with self._lock:
            for rule in rules:
                if rule.should_fire():
                    fired = rule
                    break
        if fired is None:
            return None
        if fired.kind == "raise":
            raise InjectedFaultError(point)
        if fired.kind == "memory":
            raise MemoryError(f"injected MemoryError at {point!r}")
        if fired.kind == "sleep":
            time.sleep(fired.seconds)
        return fired.kind

    def stats(self) -> list[dict]:
        with self._lock:
            return [rule.to_dict() for rule in self.rules]

    def __repr__(self) -> str:
        points = sorted({rule.point for rule in self.rules})
        return f"FaultPlan(seed={self.seed}, points={points})"


# ----------------------------------------------------------------------
# Process-global plan registry.  `fire(point)` is what production code
# calls; with nothing armed it costs one attribute read and a None check.
_installed: FaultPlan | None = None


def install_plan(plan: FaultPlan | None) -> None:
    """Arm ``plan`` process-wide (``None`` disarms)."""
    global _installed
    _installed = plan


def fire(point: str) -> str | None:
    """Hit the named fault point (no-op unless a plan is armed)."""
    plan = _installed
    if plan is None:
        return None
    return plan.fire(point)


def fault_stats() -> list[dict]:
    """Per-rule hit/fire counters of the armed plan ([] when unarmed)."""
    plan = _installed
    return plan.stats() if plan is not None else []


# ----------------------------------------------------------------------
class RetryPolicy:
    """Exponential backoff with full jitter and a deadline-aware budget.

    ``delay(attempt)`` for attempt k (0-based count of *failures so far*)
    draws uniformly from ``[0, min(max_delay, base * multiplier**k)]`` —
    AWS-style full jitter, which decorrelates clients hammering one
    recovering daemon far better than synchronized exponential steps.
    ``seed`` pins the jitter stream for reproducible tests; by default
    each policy instance jitters independently.

    ``max_attempts`` counts total tries (first call included), so
    ``max_attempts=1`` disables retrying.  A ``budget_seconds`` (usually
    the request's remaining deadline) caps the *sum* of sleeps: a retry
    that cannot finish inside the budget is not attempted — the caller
    gets the last error instead of a guaranteed-late success.
    """

    def __init__(self, max_attempts: int = 5, base_delay: float = 0.01,
                 multiplier: float = 2.0, max_delay: float = 2.0,
                 seed: int | None = None) -> None:
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if base_delay < 0 or max_delay < 0 or multiplier < 1.0:
            raise ValueError("delays must be >= 0 and multiplier >= 1")
        self.max_attempts = max_attempts
        self.base_delay = base_delay
        self.multiplier = multiplier
        self.max_delay = max_delay
        self._rng = random.Random(seed)

    def delay(self, failures: int) -> float:
        """Jittered sleep before the next try after ``failures`` failures."""
        ceiling = min(self.max_delay,
                      self.base_delay * self.multiplier ** max(failures - 1, 0))
        return self._rng.uniform(0.0, ceiling)

    def call(self, attempt_fn, *, retriable_fn, budget_seconds: float | None = None,
             on_retry=None):
        """Run ``attempt_fn()`` under this policy.

        ``attempt_fn`` either returns a result or raises.
        ``retriable_fn(error_or_result) -> bool`` decides whether the
        raised exception *or returned value* warrants another try (a
        returned value judged retriable is retried too — daemon clients
        use this for ``{"ok": false, "retriable": true}`` envelopes).
        ``on_retry(failures, delay, why)`` observes each backoff.
        The final failure re-raises (or returns) whatever the last
        attempt produced.
        """
        started = time.monotonic()
        failures = 0
        while True:
            try:
                result = attempt_fn()
            except Exception as error:
                if not retriable_fn(error):
                    raise
                failures += 1
                if failures >= self.max_attempts:
                    raise
                why: object = error
            else:
                if not retriable_fn(result):
                    return result
                failures += 1
                if failures >= self.max_attempts:
                    return result
                why = result
            pause = self.delay(failures)
            if budget_seconds is not None:
                remaining = budget_seconds - (time.monotonic() - started)
                if remaining <= pause:
                    # Out of budget: surface the last outcome rather than
                    # sleeping into a deadline we already know we'd miss.
                    if isinstance(why, BaseException):
                        raise why
                    return why
            if on_retry is not None:
                on_retry(failures, pause, why)
            if pause > 0:
                time.sleep(pause)

    def __repr__(self) -> str:
        return (
            f"RetryPolicy(max_attempts={self.max_attempts}, "
            f"base={self.base_delay * 1e3:.0f}ms, x{self.multiplier:g}, "
            f"cap={self.max_delay:g}s)"
        )


# ----------------------------------------------------------------------
class Watchdog:
    """Heartbeat monitor that fails queued tickets when the loop wedges.

    The scheduler stamps a heartbeat at every loop iteration; a batch
    stuck inside a forward pass (or a dead loop thread) stops stamping.
    When requests are *waiting* and the heartbeat is older than
    ``timeout_seconds``, the watchdog fails everything queued with a
    retriable :class:`SchedulerWedgedError` — clients get a typed error
    and their retry policy, not an unbounded hang.  The in-flight batch
    itself is not (cannot be) interrupted; if it eventually completes,
    its own tickets resolve normally.

    The default timeout is deliberately generous: a legitimate giant
    forward pass must never be declared a wedge.  Tests shrink it.
    """

    def __init__(self, scheduler, timeout_seconds: float = 300.0,
                 poll_seconds: float | None = None) -> None:
        self.scheduler = scheduler
        self.timeout_seconds = timeout_seconds
        self.poll_seconds = (poll_seconds if poll_seconds is not None
                             else max(timeout_seconds / 10.0, 0.05))
        self.trips = 0
        self.failed_tickets = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def start(self) -> "Watchdog":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._loop, name="gamora-watchdog", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def _loop(self) -> None:
        while not self._stop.wait(self.poll_seconds):
            age = self.scheduler.heartbeat_age()
            if age <= self.timeout_seconds:
                continue
            if self.scheduler.queue_depth == 0:
                continue  # idle loops don't stamp; nothing is waiting
            failed = self.scheduler.fail_pending(
                SchedulerWedgedError(age, self.timeout_seconds)
            )
            if failed:
                self.trips += 1
                self.failed_tickets += failed

    def stats(self) -> dict:
        return {
            "timeout_seconds": self.timeout_seconds,
            "trips": self.trips,
            "failed_tickets": self.failed_tickets,
        }

    def __enter__(self) -> "Watchdog":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
