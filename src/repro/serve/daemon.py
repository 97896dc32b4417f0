"""Always-on serving daemon: warm caches + micro-batched reasoning.

:class:`GamoraDaemon` wraps one trained Gamora in a long-lived serving
process: a :class:`~repro.serve.service.ReasoningService` whose
structural-hash LRUs stay warm across requests, fed by a
:class:`~repro.serve.scheduler.MicroBatchScheduler` that coalesces
concurrent arrivals into single ``reason_many`` calls.  On :meth:`start`
the daemon preloads both persistent caches from ``cache_dir`` (results at
the root, encoded graphs under ``graphs/`` — the ``batch-reason`` CLI
layout, so the two flows share spill directories); on :meth:`close` it
drains the queue and spills both caches back, so a restarted daemon picks
up every result the previous life computed.

Three client surfaces, strictest parity between them:

* :class:`DaemonClient` — in-process, for tests/examples/embedding.  It
  speaks the *same* message dicts as the wire protocol (circuits travel
  as AIGER text through :func:`~repro.aig.aiger.dumps_aag` /
  :func:`~repro.aig.aiger.loads_aag`), so anything it observes holds for
  socket clients too.
* :class:`DaemonServer` — a Unix-domain-socket front end speaking
  line-delimited JSON: one request object per line in, one response
  object per line out.  Connections are handled on their own threads, so
  concurrent clients coalesce into shared micro-batches.
* :class:`SocketDaemonClient` — the matching Python client.

Wire protocol (one JSON object per ``\\n``-terminated line)::

    {"op": "reason", "id": "req-1", "netlist": "<AIGER ascii>",
     "deadline_ms": 5000,
     "options": {"root_filter": false, "correct_lsb": true,
                 "lsb_outputs": 4}}
    {"op": "stats"}
    {"op": "ping"}
    {"op": "shutdown"}

Responses carry ``{"ok": true, ...}`` or ``{"ok": false, "error":
{"type": ..., "retriable": ..., "message": ...}}``; a full queue maps to
``type="queue_full", retriable=true`` so clients can back off and retry.
``options`` that is not a JSON object (only a missing key or ``null``
means "no options"), unknown options, and option values of the wrong
type (``root_filter`` and ``correct_lsb`` must be JSON booleans,
``lsb_outputs`` a non-negative integer) are rejected with a non-retriable
``bad_request`` before the request is queued; so is a line that is not
UTF-8 or not JSON, and the connection keeps serving the lines after it.
``deadline_ms`` (optional, or the daemon's ``--default-deadline-ms``) is
the caller's total patience: a request still queued past it is dropped at
dequeue — its forward pass never runs — and answered with the retriable
``deadline_exceeded`` error.  :class:`SocketDaemonClient` ships with a
:class:`~repro.serve.resilience.RetryPolicy` that transparently retries
retriable errors and broken sockets (reconnecting first), so transient
backpressure and daemon restarts look like latency, not failures.
"""

from __future__ import annotations

import json
import math
import socket
import sys
import threading
import time
import warnings
from pathlib import Path

from repro import kernels
from repro.aig.aiger import dumps_aag, loads_aag
from repro.core.api import Gamora, ReasoningOutcome, _as_aig
from repro.serve import resilience
from repro.serve.resilience import (
    DeadlineExceededError,
    FaultPlan,
    RetryPolicy,
    Watchdog,
)
from repro.serve.scheduler import (
    MicroBatchScheduler,
    QueueFullError,
    RequestStats,
    RequestTicket,
    SchedulerClosedError,
)
from repro.serve.service import ReasoningService

__all__ = ["DaemonClient", "DaemonServer", "GamoraDaemon",
           "SocketDaemonClient"]

# The subdirectory of cache_dir holding the encoded-graph spill — the same
# layout ``batch-reason --cache-dir`` uses, so a daemon and the one-shot
# CLI can share a cache directory.
GRAPHS_SUBDIR = "graphs"


class GamoraDaemon:
    """One trained Gamora behind a micro-batching scheduler, serving forever.

    Every outcome carries its word-level report — built once per computed
    structure and stored in the result cache, so repeat structures get
    theirs for free.  Use as a context manager, or pair
    :meth:`start`/:meth:`close` explicitly.
    """

    def __init__(self, gamora: Gamora, *, batch_window_ms: float = 5.0,
                 max_batch: int = 32, max_queue_depth: int = 128,
                 cache_dir: str | Path | None = None,
                 run_dir: str | Path | None = None,
                 graph_cache_size: int = 256, result_cache_size: int = 512,
                 max_window_bytes: int | None = None,
                 default_deadline_ms: float | None = None,
                 watchdog_timeout_seconds: float | None = 300.0,
                 fault_plan: FaultPlan | None = None) -> None:
        if default_deadline_ms is not None:
            default_deadline_ms = float(default_deadline_ms)
            if (not math.isfinite(default_deadline_ms)
                    or default_deadline_ms <= 0):
                raise ValueError(f"default_deadline_ms must be a finite "
                                 f"number > 0, got {default_deadline_ms}")
        self.service = ReasoningService(
            gamora, graph_cache_size=graph_cache_size,
            result_cache_size=result_cache_size,
            max_window_bytes=max_window_bytes,
        )
        self.scheduler = MicroBatchScheduler(
            self.service, batch_window_ms=batch_window_ms,
            max_batch=max_batch, max_queue_depth=max_queue_depth,
            run_dir=run_dir,
        )
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.default_deadline_ms = default_deadline_ms
        self.fault_plan = fault_plan
        self.watchdog: Watchdog | None = (
            Watchdog(self.scheduler, watchdog_timeout_seconds)
            if watchdog_timeout_seconds else None
        )
        self.loaded_results = 0
        self.loaded_graphs = 0
        self.saved_results = 0
        self.saved_graphs = 0
        self.spill_error: str | None = None
        self.quarantined: list[str] = []  # cache dirs renamed aside on start
        self.dropped_responses = 0  # computed answers the client never read
        self.kernel_warmup: dict | None = None
        self._started_at: float | None = None
        self._closed = False
        self._drop_lock = threading.Lock()

    def note_dropped_response(self) -> None:
        """Count a computed response the client never read (server-side)."""
        with self._drop_lock:
            self.dropped_responses += 1

    # ------------------------------------------------------------------
    def start(self) -> "GamoraDaemon":
        """Warm the kernel backend and the caches, then start scheduling.

        The kernel warmup runs the selected backend over a tiny synthetic
        AIG *before* the scheduler spins up (and hence before any socket
        accepts): the c backend's one-time build runs when the backend
        resolves, so the first real request never pays it, and an unknown
        ``REPRO_KERNEL`` value raises ``ValueError`` here, at boot, rather
        than mid-request.

        A cache directory that turns out corrupt or unreadable is
        *quarantined* — renamed aside, recorded in ``quarantined``, a
        warning emitted — and the daemon serves cold from a fresh
        directory.  Losing warmth is a degradation; refusing to boot (or
        crashing on the close-time spill into a poisoned directory) would
        be an outage.
        """
        if self.fault_plan is not None:
            resilience.install_plan(self.fault_plan)
        self.kernel_warmup = kernels.warmup()
        if self.cache_dir is not None:
            self.loaded_results = self._load_or_quarantine(
                self.cache_dir, self.service.validate_cache_dir,
                self.service.load_result_cache, "result-cache",
                self.service._MODEL_MARKER,
            )
            self.loaded_graphs = self._load_or_quarantine(
                self.cache_dir / GRAPHS_SUBDIR,
                self.service.validate_graph_cache_dir,
                self.service.load_graph_cache, "graph-cache",
                self.service._GRAPH_MARKER,
            )
        self.scheduler.start()
        if self.watchdog is not None:
            self.watchdog.start()
        self._started_at = time.monotonic()
        return self

    def _load_or_quarantine(self, directory: Path, validate, load,
                            what: str, marker_name: str) -> int:
        """Preload one cache dir, renaming it aside if it can't be trusted.

        Quarantined means: our marker file is present but fails validation
        (a corrupted or mismatched stamp — the directory *was* ours), or
        loading raises.  The rename keeps the bytes for post-mortem while
        freeing the path, so the close-time spill recreates a healthy
        directory in its place.  A directory with foreign payloads and
        *no* marker of ours is someone else's data: it is never touched —
        we warn, serve cold, and let the close-time spill record the
        refusal in ``spill_error``.
        """
        if not directory.exists():
            return 0
        try:
            resilience.fire("cache.load")  # chaos: unreadable cache dir
            error = validate(directory)
            if error is None:
                return load(directory)
            if not (directory / marker_name).is_file():
                warnings.warn(
                    f"not loading foreign {what} dir {directory} ({error}); "
                    "serving cold",
                    RuntimeWarning, stacklevel=2,
                )
                return 0
        except Exception as exc:  # noqa: BLE001 - any load failure degrades
            error = f"{type(exc).__name__}: {exc}"
        quarantine = directory.with_name(
            f"{directory.name}.quarantined.{int(time.time())}"
        )
        suffix = 0
        while quarantine.exists():
            suffix += 1
            quarantine = directory.with_name(f"{quarantine.name}.{suffix}")
        try:
            directory.rename(quarantine)
        except OSError as rename_error:
            # Can't even rename it: serve cold and leave it untouched —
            # the spill on close will fail too, recorded in spill_error.
            warnings.warn(
                f"corrupt {what} dir {directory} could not be quarantined "
                f"({rename_error}); serving cold without persistence: "
                f"{error}",
                RuntimeWarning, stacklevel=2,
            )
            self.quarantined.append(str(directory))
            return 0
        warnings.warn(
            f"quarantined corrupt {what} dir: {directory} -> {quarantine} "
            f"({error}); serving cold",
            RuntimeWarning, stacklevel=2,
        )
        self.quarantined.append(str(quarantine))
        return 0

    def close(self) -> None:
        """Drain the queue, stop scheduling, spill the caches. Idempotent.

        A failing spill (disk full, permissions) is recorded in
        ``spill_error`` rather than raised: the drained results were
        already delivered, and shutdown must complete regardless.
        """
        if self._closed:
            return
        self._closed = True
        if self.watchdog is not None:
            self.watchdog.stop()
        self.scheduler.stop(drain=True)
        if self.cache_dir is not None:
            try:
                self.saved_results = self.service.save_result_cache(
                    self.cache_dir
                )
                self.saved_graphs = self.service.save_graph_cache(
                    self.cache_dir / GRAPHS_SUBDIR
                )
                if resilience.fire("cache.spill") == "corrupt":
                    # Chaos: garbage the ownership stamp so the *next*
                    # boot faces a corrupt directory (and must quarantine).
                    marker = self.cache_dir / self.service._MODEL_MARKER
                    marker.write_text("corrupted-by-fault-injection\n")
            except OSError as error:
                self.spill_error = str(error)

    def __enter__(self) -> "GamoraDaemon":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    def submit_async(self, circuit, request_id: str | None = None,
                     **options) -> RequestTicket:
        """Enqueue one circuit (see :meth:`MicroBatchScheduler.submit_async`)."""
        return self.scheduler.submit_async(circuit, request_id, **options)

    def submit(self, circuit, request_id: str | None = None,
               timeout: float | None = None,
               **options) -> tuple[ReasoningOutcome, RequestStats]:
        """Blocking submit: returns ``(outcome, request_stats)``."""
        ticket = self.submit_async(circuit, request_id, **options)
        return ticket.result(timeout), ticket.stats(0)

    def stats(self) -> dict:
        """Daemon-wide counter snapshot (JSON-ready)."""
        uptime = (time.monotonic() - self._started_at
                  if self._started_at is not None else 0.0)
        return {
            "uptime_seconds": uptime,
            "scheduler": self.scheduler.stats(),
            "caches": self.service.cache_stats(),
            "cache_dir": str(self.cache_dir) if self.cache_dir else None,
            "loaded_results": self.loaded_results,
            "loaded_graphs": self.loaded_graphs,
            "saved_results": self.saved_results,
            "saved_graphs": self.saved_graphs,
            "spill_error": self.spill_error,
            "quarantined": list(self.quarantined),
            "dropped_responses": self.dropped_responses,
            "default_deadline_ms": self.default_deadline_ms,
            "watchdog": (self.watchdog.stats()
                         if self.watchdog is not None else None),
            "faults": resilience.fault_stats(),
            "kernels": kernels.kernel_stats(),
        }

    # ------------------------------------------------------------------
    # Protocol dispatch — shared verbatim by DaemonClient and DaemonServer
    # so the in-process surface can never drift from the wire.
    def handle(self, message: dict) -> dict:
        """Dispatch one protocol message dict to one response dict."""
        if not isinstance(message, dict):
            return _error_response(None, "bad_request",
                                   "message must be a JSON object")
        request_id = message.get("id")
        op = message.get("op", "reason")
        if op == "ping":
            return {"ok": True, "id": request_id, "pong": True,
                    "kernel_backend": kernels.active_backend()}
        if op == "stats":
            return {"ok": True, "id": request_id, "stats": self.stats()}
        if op == "shutdown":
            return {"ok": True, "id": request_id, "stats": self.stats()}
        if op == "reason":
            return self._handle_reason(message, request_id)
        return _error_response(request_id, "bad_request",
                               f"unknown op {op!r}")

    def _handle_reason(self, message: dict, request_id) -> dict:
        netlist = message.get("netlist")
        if not isinstance(netlist, str) or not netlist:
            return _error_response(request_id, "bad_request",
                                   "missing 'netlist' (AIGER ascii text)")
        started = time.perf_counter()
        try:
            aig = loads_aag(netlist, name=str(request_id or "request"))
        except Exception as error:
            # The netlist is client-supplied bytes: *whatever* the parser
            # raised on it — ValueError from the validators, IndexError or
            # anything else from a path the fuzzer found first — is the
            # client's malformed input, never our internal failure.
            return _error_response(request_id, "bad_request",
                                   f"unparsable netlist: {error}")
        parse_seconds = time.perf_counter() - started
        options = message.get("options")
        if options is None:
            options = {}
        elif not isinstance(options, dict):
            return _error_response(request_id, "bad_request",
                                   "'options' must be an object")
        unknown = set(options) - {"root_filter", "correct_lsb",
                                  "lsb_outputs"}
        if unknown:
            return _error_response(
                request_id, "bad_request",
                f"unknown options: {sorted(unknown)}",
            )
        for name in ("root_filter", "correct_lsb"):
            if name in options and not isinstance(options[name], bool):
                return _error_response(
                    request_id, "bad_request",
                    f"option {name!r} must be a boolean, "
                    f"got {options[name]!r}",
                )
        lsb_outputs = options.get("lsb_outputs", 0)
        if (isinstance(lsb_outputs, bool) or not isinstance(lsb_outputs, int)
                or lsb_outputs < 0):
            return _error_response(
                request_id, "bad_request",
                f"option 'lsb_outputs' must be a non-negative integer, "
                f"got {lsb_outputs!r}",
            )
        deadline_ms = message.get("deadline_ms", self.default_deadline_ms)
        if deadline_ms is not None:
            if (isinstance(deadline_ms, bool)
                    or not isinstance(deadline_ms, (int, float))
                    # Also rejects NaN, infinities and ints past float range.
                    or not 0 < deadline_ms <= sys.float_info.max):
                return _error_response(
                    request_id, "bad_request",
                    f"'deadline_ms' must be a finite positive number, "
                    f"got {deadline_ms!r}",
                )
            deadline_ms = float(deadline_ms)
        try:
            outcome, stats = self.submit(
                aig, str(request_id) if request_id is not None else None,
                deadline_ms=deadline_ms, **options,
            )
        except QueueFullError as error:
            return _error_response(request_id, "queue_full", str(error),
                                   retriable=True)
        except DeadlineExceededError as error:
            return _error_response(request_id, "deadline_exceeded",
                                   str(error), retriable=True)
        except SchedulerClosedError as error:
            return _error_response(request_id, "shutting_down", str(error))
        except Exception as error:
            # Typed errors may self-declare retriability (e.g. the
            # watchdog's SchedulerWedgedError); everything else is
            # terminal for this payload.
            return _error_response(
                request_id, "internal",
                f"{type(error).__name__}: {error}",
                retriable=bool(getattr(error, "retriable", False)),
            )
        return {
            "ok": True,
            # The caller's id verbatim (an int stays an int, like every other
            # response); the scheduler's generated id only when there is none.
            "id": request_id if request_id is not None else stats.request_id,
            "result": _outcome_payload(outcome),
            # The parse runs before submit, so it is not in total_seconds.
            "stats": {**stats.to_dict(), "parse_seconds": parse_seconds},
        }


def _error_response(request_id, kind: str, message: str,
                    retriable: bool = False) -> dict:
    return {
        "ok": False,
        "id": request_id,
        "error": {"type": kind, "retriable": retriable, "message": message},
    }


def _outcome_payload(outcome: ReasoningOutcome) -> dict:
    """The JSON-safe result body for one resolved request."""
    tree, report = outcome.tree, outcome.report
    return {
        "num_full_adders": int(tree.num_full_adders),
        "num_half_adders": int(tree.num_half_adders),
        "num_mismatches": int(outcome.num_mismatches),
        "report": {
            "num_full_adders": int(report.num_full_adders),
            "num_half_adders": int(report.num_half_adders),
            "num_links": int(report.num_links),
            "depth": len(report.ranks),
            "pp_leaves": len(report.pp_leaves),
            "pi_leaves": len(report.pi_leaves),
            "output_roots": len(report.output_roots),
            "summary": report.summary(),
        },
    }


def _reason_message(circuit, request_id, deadline_ms, options) -> dict:
    """The wire ``reason`` message both clients build identically."""
    netlist = circuit if isinstance(circuit, str) else dumps_aag(
        _as_aig(circuit)
    )
    message = {"op": "reason", "netlist": netlist}
    if request_id is not None:
        message["id"] = request_id
    if deadline_ms is not None:
        message["deadline_ms"] = deadline_ms
    if options:
        message["options"] = options
    return message


def _response_retriable(response) -> bool:
    """Whether an ``{"ok": false}`` envelope invites another attempt."""
    if not isinstance(response, dict) or response.get("ok", False):
        return False
    error = response.get("error")
    return isinstance(error, dict) and bool(error.get("retriable"))


class DaemonClient:
    """In-process protocol client: same messages, no socket.

    Circuits are serialized to AIGER text and parsed back on the daemon
    side, exactly like wire traffic — tests exercising this client cover
    the full protocol path minus the file descriptors.

    ``retry=RetryPolicy(...)`` makes :meth:`reason` re-attempt retriable
    error envelopes (``queue_full``, ``deadline_exceeded``) with
    backoff; the default (``None``) surfaces them to the caller
    unchanged, preserving the raw protocol view.
    """

    def __init__(self, daemon: GamoraDaemon,
                 retry: RetryPolicy | None = None) -> None:
        self.daemon = daemon
        self.retry = retry

    def reason(self, circuit, request_id: str | None = None,
               deadline_ms: float | None = None, **options) -> dict:
        message = _reason_message(circuit, request_id, deadline_ms, options)
        if self.retry is None:
            return self.daemon.handle(message)
        budget = deadline_ms / 1000.0 if deadline_ms is not None else None
        return self.retry.call(
            lambda: self.daemon.handle(message),
            retriable_fn=_response_retriable, budget_seconds=budget,
        )

    def stats(self) -> dict:
        return self.daemon.handle({"op": "stats"})

    def ping(self) -> dict:
        return self.daemon.handle({"op": "ping"})


class DaemonServer:
    """Line-delimited JSON over a Unix domain socket.

    One accept thread plus one thread per connection; requests on a
    single connection are answered in order, while separate connections
    proceed concurrently (and therefore coalesce in the scheduler).  A
    ``shutdown`` op answers, then releases :meth:`serve_forever`; closing
    the server does *not* close the daemon — the caller owns that, so it
    can spill caches exactly once.
    """

    def __init__(self, daemon: GamoraDaemon,
                 socket_path: str | Path) -> None:
        if not hasattr(socket, "AF_UNIX"):
            raise RuntimeError("Unix domain sockets unavailable on this "
                               "platform")
        self.daemon = daemon
        self.socket_path = Path(socket_path)
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._shutdown = threading.Event()
        self._closing = False

    def start(self) -> "DaemonServer":
        """Bind, listen, and start accepting in the background."""
        if self._listener is not None:
            return self
        # A previous daemon's stale socket file would make bind() fail;
        # only a socket is ever removed, never a regular file.
        if self.socket_path.exists() and self.socket_path.is_socket():
            self.socket_path.unlink()
        self.socket_path.parent.mkdir(parents=True, exist_ok=True)
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(str(self.socket_path))
        listener.listen()
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="gamora-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def serve_forever(self, timeout: float | None = None) -> None:
        """Block until a ``shutdown`` op arrives (or ``timeout`` elapses)."""
        self.start()
        self._shutdown.wait(timeout)

    def close(self) -> None:
        """Stop accepting and remove the socket file. Idempotent."""
        self._closing = True
        self._shutdown.set()
        if self._listener is not None:
            # On Linux close() alone does not wake a thread blocked in
            # accept(); shutdown() does, so the join below is immediate.
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
            self._listener = None
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
            self._accept_thread = None
        try:
            if self.socket_path.is_socket():
                self.socket_path.unlink()
        except OSError:
            pass

    def __enter__(self) -> "DaemonServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        listener = self._listener
        while not self._closing:
            try:
                connection, _ = listener.accept()
            except OSError:
                return  # listener closed
            threading.Thread(
                target=self._serve_connection, args=(connection,),
                name="gamora-conn", daemon=True,
            ).start()

    def _serve_connection(self, connection: socket.socket) -> None:
        with connection:
            # Bytes in, decoded one line at a time: a line that is not
            # UTF-8 gets its own error instead of killing the connection.
            reader = connection.makefile("rb")
            for raw in reader:
                message = None
                try:
                    line = raw.decode("utf-8").strip()
                    if not line:
                        continue
                    message = json.loads(line)
                except UnicodeDecodeError as error:
                    response = _error_response(None, "bad_request",
                                               f"invalid UTF-8: {error}")
                except json.JSONDecodeError as error:
                    response = _error_response(None, "bad_request",
                                               f"invalid JSON: {error}")
                else:
                    response = self.daemon.handle(message)
                try:
                    # Chaos: a "drop" rule models the connection dying
                    # between computation and delivery — close without
                    # sending, exactly what a mid-response reset looks
                    # like from the daemon's side.
                    if resilience.fire("server.send") == "drop":
                        raise OSError("injected mid-response socket drop")
                    connection.sendall(
                        (json.dumps(response) + "\n").encode("utf-8")
                    )
                except OSError:
                    # The client went away after we did the work.  The
                    # result is already in the warm cache, so a retry is
                    # nearly free — count it, don't raise into the
                    # connection thread.
                    self.daemon.note_dropped_response()
                    return
                if isinstance(message, dict) and message.get("op") == "shutdown":
                    self._shutdown.set()
                    return


class SocketDaemonClient:
    """Blocking client for :class:`DaemonServer`'s wire protocol.

    Resilient by default: every request runs under ``retry`` (a default
    :class:`~repro.serve.resilience.RetryPolicy` unless overridden), so
    retriable error envelopes (``queue_full``, ``deadline_exceeded``) and
    broken/reset/closed sockets are retried with exponential backoff and
    full jitter — reconnecting first when the transport failed.  A
    request carrying ``deadline_ms`` also uses it as the retry budget: no
    backoff sleep is taken that could not finish inside the deadline.
    Pass ``retry=None`` explicitly for the raw single-attempt protocol
    view (``retriable_errors`` counts what the policy absorbed either
    way).
    """

    _NO_RETRY = object()  # sentinel: None is a meaningful "no retries"

    def __init__(self, socket_path: str | Path,
                 timeout: float | None = 60.0,
                 retry: RetryPolicy | None = _NO_RETRY) -> None:
        self.socket_path = str(socket_path)
        self.timeout = timeout
        self.retry = (RetryPolicy() if retry is SocketDaemonClient._NO_RETRY
                      else retry)
        self.retriable_errors = 0  # transport failures + retriable envelopes
        self.reconnects = 0
        self._sock: socket.socket | None = None
        self._reader = None
        self._connect()

    def _connect(self) -> None:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self.timeout)
        try:
            sock.connect(self.socket_path)
        except OSError:
            sock.close()
            raise
        self._sock = sock
        self._reader = sock.makefile("r", encoding="utf-8")

    def _disconnect(self) -> None:
        if self._reader is not None:
            try:
                self._reader.close()
            except OSError:
                pass
            self._reader = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def _request_once(self, message: dict) -> dict:
        if self._sock is None:
            self._connect()
            self.reconnects += 1
        try:
            self._sock.sendall((json.dumps(message) + "\n").encode("utf-8"))
            line = self._reader.readline()
        except OSError:
            # Broken transport: drop the socket so the next attempt (ours
            # or the caller's) starts from a clean reconnect.
            self._disconnect()
            raise
        if not line:
            self._disconnect()
            raise ConnectionError("daemon closed the connection")
        return json.loads(line)

    def request(self, message: dict) -> dict:
        """Send one message dict, block for its one-line response.

        With a retry policy armed, transport failures (``OSError``,
        reset/closed connections — but not timeouts, which may mean the
        work is still running) and retriable error envelopes are retried;
        the message's ``deadline_ms``, if any, caps the total backoff.
        """
        if self.retry is None:
            return self._request_once(message)
        deadline_ms = message.get("deadline_ms")
        budget = (deadline_ms / 1000.0
                  if isinstance(deadline_ms, (int, float)) else None)

        def retriable(outcome) -> bool:
            if isinstance(outcome, BaseException):
                # A timed-out socket is ambiguous (the daemon may still be
                # computing); resending would double the work.  Everything
                # else transport-shaped gets a reconnect + retry.
                verdict = (isinstance(outcome, OSError)
                           and not isinstance(outcome, TimeoutError))
            else:
                verdict = _response_retriable(outcome)
            self.retriable_errors += verdict
            return verdict

        return self.retry.call(self._request_once_for(message),
                               retriable_fn=retriable,
                               budget_seconds=budget)

    def _request_once_for(self, message: dict):
        return lambda: self._request_once(message)

    def reason(self, circuit, request_id: str | None = None,
               deadline_ms: float | None = None, **options) -> dict:
        return self.request(
            _reason_message(circuit, request_id, deadline_ms, options)
        )

    def stats(self) -> dict:
        return self.request({"op": "stats"})

    def ping(self) -> dict:
        return self.request({"op": "ping"})

    def shutdown(self) -> dict:
        return self.request({"op": "shutdown"})

    def close(self) -> None:
        self._disconnect()

    def __enter__(self) -> "SocketDaemonClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
