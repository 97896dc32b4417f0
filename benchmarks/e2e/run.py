"""End-to-end benchmark: the shipped daemon and CLI, driven as black boxes.

    python3 benchmarks/e2e/run.py --workload NAME --seed N
        [--seconds S] [--trace 0|1] [--smoke]

NAME is one of ``cold-large``, ``hot-mix``, ``streamed-large`` or
``all``.  Each workload starts ``python benchmarks/e2e/launch.py serve
...`` (the same as ``python -m repro serve ...``) and drives it over its
Unix socket from this one thread, closed loop, with at most two
connections.  The daemon runs with ``PYTHONHASHSEED`` set from the seed,
so the same seed gives the same set and dict orders in the program too.

Set-up trains the workload's model (shallow, 250 epochs, CSA-8 and
Booth-8 with structural labels, ``seed=0``), saves it and boots the daemon
until it answers ``ping``; it is repeated and its median reported as
``setup_s``.  The timed phase sends requests in whole periods of the
workload's mix until ``--seconds`` have passed; rates and the daemon's
peak resident set are medians over periods, latencies are the median and
the 11th-largest request (the highest quantile with 10 samples beyond
it).  Afterwards every answer is checked against sequential
``Gamora.reason`` plus ``analyze_adder_tree`` on the same parsed netlist;
that reference work is ``bench.prepare_s`` and stays out of ``setup_s``.
Reference answers are kept under ``benchmarks/results/e2e/oracle/``, keyed
by the program's sources, the model and the netlist, so later runs in the
same checkout reuse them.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
workload untraced for half the time, then replays the same requests
against a traced program (``launch.py --trace``) and prints the per-layer
metrics: self times per operation from the trace, the program's own
per-request stats from the untraced half, and the tracing overhead.

Every run writes a JSON record to ``benchmarks/results/e2e/``; the last
line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = ROOT / "benchmarks" / "results" / "e2e"
ORACLE_CACHE = RESULTS / "oracle"
LAUNCH = HERE / "launch.py"

SETUP_ROUNDS = 3
TRAIN_EPOCHS = 250
SMOKE_EPOCHS = 20
BOOT_TIMEOUT_S = 60.0
IO_TIMEOUT_S = 120.0
# Upper bound on requests per second, used to size the pre-generated
# request sequence; a run that exhausts it ends early.
MAX_RATE = {"cold-large": 20, "hot-mix": 200, "streamed-large": 10}
TAIL_MIN_BEYOND = 10
MIB = 1024 * 1024

END_TO_END = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "nodes_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mib": "MiB",
    "adder_recall": "ratio",
}
# Per-layer metric -> unit.  "*_ms" from a span name is that span's self
# time per operation; "*_calls" is its call count per operation.
PER_LAYER = {
    "kernels.merge_level_ms": "ms",
    "kernels.cone_sweep_ms": "ms",
    "kernels.fa_join_ms": "ms",
    "kernels.kahn_propagate_ms": "ms",
    "kernels.merge_level_calls": "count",
    "aig.fast_cuts.enumerate_cuts_arrays_ms": "ms",
    "core.postprocess.extract_from_predictions_ms": "ms",
    "reasoning.fast_pairing.pair_candidates_ms": "ms",
    "reasoning.wordlevel.analyze_adder_trees_ms": "ms",
    "serve.service.postprocess_ms": "ms",
    "serve.service.report_ms": "ms",
    "aig.aiger.loads_aag_ms": "ms",
    "aig.graph.structural_hash_ms": "ms",
    "serve.cache.exact_fingerprint_ms": "ms",
    "serve.daemon.handle_ms": "ms",
    "serve.daemon.wire_ms_p50": "ms",
    "learn.data.window_plan_ms": "ms",
    "learn.data.halo_blocks_ms": "ms",
    "learn.data.halo_blocks_calls": "count",
    "learn.fast.predict_streamed_ms": "ms",
    "serve.sharding.windows_per_request": "count",
    "serve.sharding.peak_window_mib": "MiB",
    "learn.data.build_graph_data_ms": "ms",
    "learn.fast.predict_ms": "ms",
    "serve.service.encode_ms": "ms",
    "serve.service.inference_ms": "ms",
    "serve.scheduler.queue_wait_ms_p50": "ms",
    "serve.scheduler.queue_wait_ms_p99": "ms",
    "serve.scheduler.service_ms_p50": "ms",
    "serve.scheduler.requests_per_batch": "count",
    "serve.cache.result_hit_ratio": "ratio",
    "serve.cache.graph_hit_ratio": "ratio",
    "serve.sharding.plan_shards_ms": "ms",
    "serve.sharding.shards_per_batch": "count",
    "serve.sharding.peak_shard_mib": "MiB",
    "setup.train_s": "s",
    "setup.boot_s": "s",
    "setup.first_request_ms": "ms",
    "trace.overhead_frac": "ratio",
    "trace.coverage_frac": "ratio",
    "bench.prepare_s": "s",
}
# Per-layer metrics that are a span's self time per operation ("<span>_ms").
_SPAN_METRICS = (
    "kernels.merge_level_ms", "kernels.cone_sweep_ms", "kernels.fa_join_ms",
    "kernels.kahn_propagate_ms", "aig.fast_cuts.enumerate_cuts_arrays_ms",
    "core.postprocess.extract_from_predictions_ms",
    "reasoning.fast_pairing.pair_candidates_ms",
    "reasoning.wordlevel.analyze_adder_trees_ms", "aig.aiger.loads_aag_ms",
    "aig.graph.structural_hash_ms", "serve.cache.exact_fingerprint_ms",
    "serve.daemon.handle_ms", "learn.data.window_plan_ms", "learn.data.halo_blocks_ms",
    "learn.fast.predict_streamed_ms", "learn.data.build_graph_data_ms",
    "learn.fast.predict_ms", "serve.sharding.plan_shards_ms",
)


# ----------------------------------------------------------------------
# Statistics

def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile: the smallest value with ``q`` at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tail_quantile(count: int) -> float:
    """The highest quantile with at least 10 samples beyond it.

    That is ``1 - 10/count``; below 20 samples no quantile above the
    median qualifies, and the median is used.
    """
    if count < 2 * TAIL_MIN_BEYOND:
        return 0.5
    return 1.0 - TAIL_MIN_BEYOND / count


def latency_summary(latencies_s: list[float]) -> dict:
    """Median and tail latency; the tail is the 11th-largest sample once
    there are 20 samples (exactly 10 beyond it), else the median rank."""
    ordered = sorted(latencies_s)
    count = len(ordered)
    beyond = TAIL_MIN_BEYOND if count >= 2 * TAIL_MIN_BEYOND else count // 2
    return {
        "latency_p50_ms": statistics.median(ordered) * 1e3,
        "latency_tail_ms": ordered[count - beyond - 1] * 1e3,
        "tail_quantile": tail_quantile(count),
        "tail_samples_beyond": beyond,
        "samples": count,
    }


# ----------------------------------------------------------------------
# Processes

def child_env(seed: int) -> dict:
    """The program's environment: this checkout's sources, and a hash seed
    taken from the workload seed so that a run repeats exactly."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    return env


def launch_argv(args: list[str], trace_path: Path | None = None) -> list[str]:
    trace = ["--trace", str(trace_path)] if trace_path is not None else []
    return [sys.executable, str(LAUNCH), *trace, *args]


def kill_group(process: subprocess.Popen) -> None:
    """Kill a child's whole process group (its forked workers too)."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    if process.returncode is None:
        process.wait()


def log_tail(path: Path, lines: int = 30) -> str:
    try:
        return "\n".join(path.read_text(errors="replace").splitlines()[-lines:])
    except OSError:
        return ""


class Connection:
    """One line-delimited JSON connection to the daemon's socket."""

    def __init__(self, path: str) -> None:
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(IO_TIMEOUT_S)
        try:
            self.sock.connect(path)
        except OSError:
            self.sock.close()
            raise
        self._buffer = bytearray()

    def send(self, payload: bytes) -> None:
        self.sock.sendall(payload)

    def read_line(self) -> bytes | None:
        """One ``recv``; the next complete line, or None if none yet."""
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("daemon closed the connection")
        self._buffer += chunk
        end = self._buffer.find(b"\n")
        if end < 0:
            return None
        line = bytes(self._buffer[:end])
        del self._buffer[:end + 1]
        return line

    def request(self, message: dict) -> dict:
        self.send((json.dumps(message) + "\n").encode())
        line = None
        while line is None:
            line = self.read_line()
        return json.loads(line)

    def close(self) -> None:
        self.sock.close()

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class Daemon:
    """One ``serve`` process started through ``launch.py``."""

    def __init__(self, workdir: Path, model: Path, flags: list[str],
                 seed: int, trace_path: Path | None = None) -> None:
        # AF_UNIX paths are capped near 107 bytes; a path relative to the
        # checkout root (every process's working directory) stays short.
        self.socket = os.path.relpath(workdir / "daemon.sock", ROOT)
        self.log = workdir / "daemon.log"
        self.argv = launch_argv(
            ["serve", str(model), "--socket", self.socket, *flags],
            trace_path,
        )
        self.seed = seed
        self.process: subprocess.Popen | None = None
        self.peaks_mib: list[float] = []  # VmHWM per period, see sample_peak
        self._period_open = False

    def start(self) -> float:
        """Spawn and wait until ``ping`` answers; returns the seconds taken."""
        Path(self.socket).unlink(missing_ok=True)
        started = time.perf_counter()
        with open(self.log, "ab") as log:
            self.process = subprocess.Popen(
                self.argv, cwd=ROOT, env=child_env(self.seed), stdout=log,
                stderr=subprocess.STDOUT, start_new_session=True,
            )
        while True:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"daemon exited with {self.process.returncode} during "
                    f"boot:\n{log_tail(self.log)}"
                )
            try:
                with Connection(self.socket) as connection:
                    if connection.request({"op": "ping"}).get("pong"):
                        return time.perf_counter() - started
            except (FileNotFoundError, ConnectionRefusedError):
                pass
            if time.perf_counter() - started > BOOT_TIMEOUT_S:
                raise TimeoutError(f"daemon not up after {BOOT_TIMEOUT_S}s:"
                                   f"\n{log_tail(self.log)}")
            time.sleep(0.005)

    def sample_peak(self) -> None:
        """Close one period's peak resident set and open the next.

        Records the daemon's VmHWM since the previous call (none on the
        first), then resets it to the current resident set.  The peak of
        a whole run is set by whichever request found the heap at its
        most fragmented; the median over periods repeats from run to run.
        """
        proc = Path(f"/proc/{self.process.pid}")
        if self._period_open:
            for line in (proc / "status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    self.peaks_mib.append(int(line.split()[1]) / 1024)
                    break
            else:
                raise RuntimeError("no VmHWM in /proc status")
        (proc / "clear_refs").write_text("5")  # 5: reset the peak RSS
        self._period_open = True

    def stop(self) -> None:
        """Ask for shutdown and wait; kill the group if that fails.

        After a ``shutdown`` the daemon's accept thread stays blocked in
        ``accept()`` until a connection arrives, and the server waits up
        to 5 s for it; empty connections until the process exits end that
        wait without changing what the daemon does.
        """
        if self.process is None:
            return
        if self.process.poll() is None:
            try:
                with Connection(self.socket) as connection:
                    connection.request({"op": "shutdown"})
                deadline = time.perf_counter() + IO_TIMEOUT_S
                while (self.process.poll() is None
                       and time.perf_counter() < deadline):
                    try:
                        Connection(self.socket).close()
                    except OSError:
                        pass
                    time.sleep(0.01)
            except (OSError, ValueError):
                pass
        kill_group(self.process)


# ----------------------------------------------------------------------
# Traffic

@dataclass
class Exchange:
    """One request and its response as the client saw them."""

    index: int
    key: str  # circuit key
    num_ands: int
    sent: float
    received: float
    response: dict

    @property
    def latency(self) -> float:
        return self.received - self.sent


def drive(socket_path: str, sequence: list, connections: int,
          seconds: float, period: int,
          on_period=None) -> tuple[list[Exchange], float]:
    """Closed loop over ``connections`` sockets from this one thread.

    Each connection has one request in flight and sends its next when the
    reply arrives.  Requests go out in order from ``sequence``; after
    ``seconds`` no new period starts.  ``on_period`` is called before the
    first request of each period and once after the last reply.  The
    garbage collector is off meanwhile, so that its pauses do not land in
    the load generator's timings.  Returns the exchanges and the wall time
    from the first send to the last reply.
    """
    prefixes: dict[int, bytes] = {}

    def payload(index: int) -> bytes:
        circuit = sequence[index]
        prefix = prefixes.get(id(circuit))
        if prefix is None:
            prefix = prefixes[id(circuit)] = (
                '{"op": "reason", "netlist": ' + json.dumps(circuit.text)
                + ', "id": "'
            ).encode()
        return prefix + f'{index}"}}\n'.encode()

    opened = [Connection(socket_path) for _ in range(connections)]
    selector = selectors.DefaultSelector()
    in_flight: dict[Connection, tuple[int, float]] = {}
    exchanges: list[Exchange] = []
    next_index = 0
    collecting = gc.isenabled()
    gc.disable()
    started = time.perf_counter()

    def send_next(connection: Connection) -> None:
        nonlocal next_index
        if next_index >= len(sequence) or (
                next_index and next_index % period == 0
                and time.perf_counter() - started >= seconds):
            return
        if on_period is not None and next_index % period == 0:
            on_period()
        data = payload(next_index)
        sent = time.perf_counter()
        connection.send(data)
        in_flight[connection] = (next_index, sent)
        next_index += 1

    try:
        for connection in opened:
            selector.register(connection.sock, selectors.EVENT_READ,
                              connection)
            send_next(connection)
        while in_flight:
            ready = selector.select(IO_TIMEOUT_S)
            if not ready:
                raise TimeoutError(f"no reply within {IO_TIMEOUT_S}s")
            for key, _ in ready:
                connection = key.data
                line = connection.read_line()
                if line is None:
                    continue
                received = time.perf_counter()
                index, sent = in_flight.pop(connection)
                circuit = sequence[index]
                exchanges.append(Exchange(index, circuit.key,
                                          circuit.num_ands, sent, received,
                                          json.loads(line)))
                send_next(connection)
        elapsed = time.perf_counter() - started
        if on_period is not None:
            on_period()
    finally:
        if collecting:
            gc.enable()
        selector.close()
        for connection in opened:
            connection.close()
    return exchanges, elapsed


def warm_up(daemon: Daemon, circuit) -> float:
    """One request before timing (lazy set-up); returns its latency."""
    exchanges, _ = drive(daemon.socket, [circuit], 1, math.inf, 1)
    if not exchanges[0].response.get("ok"):
        raise RuntimeError(f"warm-up failed: {exchanges[0].response}")
    return exchanges[0].latency


# ----------------------------------------------------------------------
# Set-up and oracle

def train(model_path: Path, smoke: bool) -> float:
    """Train and save the workload's model; returns the seconds taken."""
    from repro.core import Gamora
    from repro.generators import make_multiplier

    started = time.perf_counter()
    gamora = Gamora(model="shallow", seed=0)
    gamora.fit([make_multiplier(8, "csa"), make_multiplier(8, "booth")],
               labels_source="structural",
               epochs=SMOKE_EPOCHS if smoke else TRAIN_EPOCHS)
    gamora.save(model_path)
    return time.perf_counter() - started


@dataclass
class Oracle:
    answers: dict  # circuit key -> workloads.Answer
    adder_recall: float
    seconds: float


def sources_digest() -> bytes:
    """Digest of the program's sources and of the reference code."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + [HERE / "workloads.py"]:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.digest()


def build_oracle(model_path: Path, catalogue: list, sent: list) -> Oracle:
    """Reference answers for every circuit sent, recall on the catalogue.

    Each circuit's reference is kept in ``ORACLE_CACHE`` under a digest
    of the sources, the model file and the netlist text, and is computed
    only when that entry is missing.
    """
    import workloads

    started = time.perf_counter()
    prefix = sources_digest() + model_path.read_bytes()
    gamora = None

    def reference(circuit, with_recall: bool) -> dict:
        nonlocal gamora
        key = hashlib.sha256(prefix + bytes([with_recall])
                             + circuit.text.encode()).hexdigest()
        path = ORACLE_CACHE / f"{key}.json"
        try:
            return json.loads(path.read_text())
        except (OSError, ValueError):
            pass
        if gamora is None:
            from repro.core import Gamora

            gamora = Gamora.load(model_path)
        answer, tree = workloads.reference_answer(gamora, circuit.aig)
        entry = {"answer": [answer.num_full_adders, answer.num_half_adders,
                            answer.num_mismatches, answer.summary]}
        if with_recall:
            entry["recall"] = workloads.recall_counts(circuit.aig, tree)
        ORACLE_CACHE.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(entry))
        return entry

    answers = {}
    recovered = total = 0.0
    for circuit in catalogue:
        entry = reference(circuit, True)
        answers[circuit.key] = workloads.Answer(*entry["answer"])
        hits, count = entry["recall"]
        recovered += hits
        total += count
    for circuit in sent:
        if circuit.key not in answers:
            answers[circuit.key] = workloads.Answer(
                *reference(circuit, False)["answer"])
    return Oracle(answers, recovered / total if total else 1.0,
                  time.perf_counter() - started)


def check_exchanges(exchanges: list[Exchange], oracle: Oracle,
                    errors: list[str]) -> int:
    """Count failed, refused and wrong responses (noting the first few)."""
    import workloads

    failed = 0
    for exchange in exchanges:
        response = exchange.response
        problem = None
        if not response.get("ok"):
            problem = f"error {response.get('error')}"
        elif response.get("id") != str(exchange.index):
            problem = f"reply id {response.get('id')!r}"
        else:
            got = workloads.response_answer(response["result"])
            expected = oracle.answers[exchange.key]
            if not workloads.matches(expected, got):
                problem = f"expected {expected}, got {got}"
        if problem is not None:
            failed += 1
            if len(errors) < 5:
                errors.append(f"request {exchange.index} ({exchange.key}): "
                              f"{problem}")
    return failed


# ----------------------------------------------------------------------
# Per-layer metrics

def span_metrics(spans: list[dict], operations: int,
                 round_trip_s: float) -> tuple[dict, dict]:
    """Span-derived per-layer metrics per operation, and the self times.

    ``trace.coverage_frac`` is the self time of every span except pure
    waits, against the summed client round trips.
    """
    from launch import WAIT_SPANS, self_times

    table = self_times(spans)

    def self_ms(name: str) -> float:
        row = table.get(name)
        return row["self_s"] * 1e3 / operations if row else 0.0

    def calls(name: str) -> float:
        row = table.get(name)
        return row["calls"] / operations if row else 0.0

    metrics = {name: self_ms(name[:-len("_ms")]) for name in _SPAN_METRICS}
    metrics["kernels.merge_level_calls"] = calls("kernels.merge_level")
    metrics["learn.data.halo_blocks_calls"] = calls("learn.data.halo_blocks")
    covered = sum(row["self_s"] for name, row in table.items()
                  if name not in WAIT_SPANS)
    metrics["trace.coverage_frac"] = covered / round_trip_s
    return metrics, table


def daemon_stats_metrics(exchanges: list[Exchange]) -> dict:
    """Per-layer metrics from the daemon's own per-request stats."""
    stats = [exchange.response["stats"] for exchange in exchanges]
    batches = {s["batch_id"]: s["batch_stats"] for s in stats}.values()
    count = len(stats)

    def per_request_ms(field: str) -> float:
        return sum(b[field] for b in batches) * 1e3 / count

    graph_lookups = sum(b["graph_hits"] + b["graph_misses"] for b in batches)
    return {
        "serve.service.postprocess_ms": per_request_ms("postprocess_seconds"),
        "serve.service.report_ms": per_request_ms("report_seconds"),
        "serve.service.encode_ms": per_request_ms("encode_seconds"),
        "serve.service.inference_ms": per_request_ms("inference_seconds"),
        "serve.daemon.wire_ms_p50": statistics.median(
            e.latency - s["total_seconds"]
            for e, s in zip(exchanges, stats)) * 1e3,
        "serve.sharding.windows_per_request":
            sum(b["num_windows"] for b in batches) / count,
        "serve.sharding.peak_window_mib":
            max(b["peak_window_bytes"] for b in batches) / MIB,
        "serve.sharding.shards_per_batch":
            statistics.fmean(b["num_shards"] for b in batches),
        "serve.sharding.peak_shard_mib":
            max(b["peak_shard_bytes"] for b in batches) / MIB,
        "serve.scheduler.queue_wait_ms_p50": statistics.median(
            s["queue_wait_seconds"] for s in stats) * 1e3,
        "serve.scheduler.queue_wait_ms_p99": quantile(
            [s["queue_wait_seconds"] for s in stats], 0.99) * 1e3,
        "serve.scheduler.service_ms_p50": statistics.median(
            s["service_seconds"] for s in stats) * 1e3,
        "serve.scheduler.requests_per_batch": count / len(batches),
        "serve.cache.result_hit_ratio":
            sum(s["result_hit"] for s in stats) / count,
        "serve.cache.graph_hit_ratio":
            (sum(b["graph_hits"] for b in batches) / graph_lookups
             if graph_lookups else 0.0),
    }


# ----------------------------------------------------------------------
# Workloads

@dataclass
class Measured:
    """What one timed phase produced, before metrics are derived.

    ``blocks`` holds ``(requests, AND nodes, seconds)`` per whole period
    of the workload and ``rss_peaks_mib`` the daemon's peak resident set
    per period, so both can be reported as medians over periods: a burst
    of host load then moves one block, not the whole run.
    """

    latencies: list[float]
    blocks: list[tuple[int, int, float]]
    elapsed: float
    rss_peaks_mib: list[float]
    attempted: int
    failed: int


def period_blocks(exchanges: list[Exchange], started: float,
                  period: int) -> list[tuple[int, int, float]]:
    """Split completions into consecutive periods, in completion order."""
    done = sorted(exchanges, key=lambda exchange: exchange.received)
    blocks = []
    previous = started
    for first in range(0, len(done) - period + 1, period):
        chunk = done[first:first + period]
        blocks.append((len(chunk), sum(e.num_ands for e in chunk),
                       chunk[-1].received - previous))
        previous = chunk[-1].received
    return blocks


def sequence_length(workload: str, seconds: float, period: int) -> int:
    count = math.ceil(max(seconds, 1.0) * MAX_RATE[workload])
    return max(period, math.ceil(count / period) * period)


def run_daemon_workload(workload: str, seed: int, seconds: float,
                        trace: bool, smoke: bool, workdir: Path,
                        trace_dir: Path, errors: list[str]) -> dict:
    """Set-up, timed phase, traced replay (``trace``) and answer checks."""
    import workloads

    model = workdir / "model.npz"
    flags = workloads.serve_args(workload, smoke)
    rounds = 1 if trace or smoke else SETUP_ROUNDS
    train_s, boot_s = [], []
    daemon = None
    try:
        for _ in range(rounds):
            if daemon is not None:
                daemon.stop()
            train_s.append(train(model, smoke))
            daemon = Daemon(workdir, model, flags, seed)
            boot_s.append(daemon.start())

        catalogue = workloads.catalogue(workload, smoke)
        warm = workloads.warmup_circuit()
        period = workloads.PERIOD[workload]
        sequence = workloads.request_sequence(
            workload, seed, sequence_length(workload, seconds, period),
            catalogue, smoke, {warm.aig.structural_hash()},
        )
        first_request_s = warm_up(daemon, warm)
        exchanges, elapsed = drive(
            daemon.socket, sequence, workloads.CONNECTIONS[workload],
            seconds / 2 if trace else seconds, period, daemon.sample_peak,
        )
        rss_peaks = daemon.peaks_mib
    finally:
        if daemon is not None:
            daemon.stop()

    traced = []
    if trace:
        trace_path = trace_dir / "daemon.trace.json"
        daemon = Daemon(workdir, model, flags, seed, trace_path)
        try:
            daemon.start()
            warm_up(daemon, warm)
            mark = time.monotonic()
            traced, traced_elapsed = drive(
                daemon.socket, sequence[:len(exchanges)],
                workloads.CONNECTIONS[workload], math.inf, 1,
            )
        finally:
            daemon.stop()

    sent = {exchange.key: sequence[exchange.index]
            for exchange in exchanges + traced}
    oracle = build_oracle(model, catalogue, list(sent.values()))
    failed = check_exchanges(exchanges + traced, oracle, errors)
    measured = Measured(
        latencies=[e.latency for e in exchanges],
        blocks=period_blocks(exchanges, min(e.sent for e in exchanges),
                             period),
        elapsed=elapsed, rss_peaks_mib=rss_peaks,
        attempted=len(exchanges) + len(traced), failed=failed,
    )
    result = summarize(measured, train_s, boot_s, oracle)
    if trace:
        from launch import load_spans

        spans = [s for s in load_spans(str(trace_path)) if s["start"] >= mark]
        layer, table = span_metrics(
            spans, len(traced), sum(e.latency for e in traced))
        layer.update(daemon_stats_metrics(exchanges))
        layer.update(setup_layer(train_s, boot_s, first_request_s, oracle))
        layer["trace.overhead_frac"] = traced_elapsed / elapsed - 1.0
        result["per_layer"] = layer
        result["self_times"] = table
    return result


def setup_layer(train_s: list[float], boot_s: list[float],
                first_request_s: float, oracle: Oracle) -> dict:
    return {
        "setup.train_s": statistics.median(train_s),
        "setup.boot_s": statistics.median(boot_s),
        "setup.first_request_ms": first_request_s * 1e3,
        "bench.prepare_s": oracle.seconds,
    }


def summarize(measured: Measured, train_s: list[float],
              boot_s: list[float], oracle: Oracle) -> dict:
    """End-to-end metrics of one timed phase."""
    latency = latency_summary(measured.latencies)
    return {
        "attempted": measured.attempted,
        "failed": measured.failed,
        "end_to_end": {
            "setup_s": statistics.median(
                t + b for t, b in zip(train_s, boot_s)),
            "throughput_rps": statistics.median(
                count / seconds for count, _, seconds in measured.blocks),
            "nodes_per_s": statistics.median(
                nodes / seconds for _, nodes, seconds in measured.blocks),
            "latency_p50_ms": latency["latency_p50_ms"],
            "latency_tail_ms": latency["latency_tail_ms"],
            "peak_rss_mib": statistics.median(measured.rss_peaks_mib),
            "adder_recall": oracle.adder_recall,
        },
        "details": {
            "tail_quantile": latency["tail_quantile"],
            "tail_samples_beyond": latency["tail_samples_beyond"],
            "samples": latency["samples"],
            "elapsed_s": measured.elapsed,
            "setup_rounds_s": [t + b for t, b in zip(train_s, boot_s)],
            "prepare_s": oracle.seconds,
            "latencies_s": measured.latencies,
            "blocks": measured.blocks,
            "rss_peaks_mib": measured.rss_peaks_mib,
        },
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> dict:
    """One workload end to end; returns the result object and a record."""
    RESULTS.mkdir(parents=True, exist_ok=True)
    started_at = time.strftime("%Y%m%dT%H%M%S")
    stem = f"{workload}-seed{seed}-trace{int(trace)}-{started_at}-{os.getpid()}"
    trace_dir = RESULTS / f"{stem}.trace"
    if trace:
        trace_dir.mkdir()
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=RESULTS))
    errors: list[str] = []
    try:
        outcome = run_daemon_workload(workload, seed, seconds, trace, smoke,
                                      workdir, trace_dir, errors)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = PER_LAYER if trace else END_TO_END
    values = outcome["per_layer"] if trace else outcome["end_to_end"]
    result = {
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "smoke": smoke,
              "started_at": started_at, "result": result,
              "end_to_end": outcome["end_to_end"],
              "details": outcome["details"], "errors": errors}
    if trace:
        record["self_times"] = outcome["self_times"]
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    for error in errors:
        print(f"{workload}: {error}", file=sys.stderr)
    report(workload, seed, result, outcome["details"])
    return result


def report(workload: str, seed: int, result: dict, details: dict) -> None:
    print(f"{workload} seed={seed}: {result['attempted']} attempted, "
          f"{result['failed']} failed, {details['samples']} timed in "
          f"{details['elapsed_s']:.2f}s; tail = p{details['tail_quantile'] * 100:g} "
          f"({details['tail_samples_beyond']} samples beyond)")
    for name, metric in result["metrics"].items():
        print(f"  {name:<46} {metric['value']:>14.6g} {metric['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["cold-large", "hot-mix", "streamed-large",
                                 "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny circuits and a short training run (a "
                             "self-test of the benchmark, not a measurement)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no repro sources under {ROOT / 'src'}; run from a "
              "full checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))

    names = (["cold-large", "hot-mix", "streamed-large"]
             if args.workload == "all" else [args.workload])
    results = {name: run_workload(name, args.seed, args.seconds,
                                  bool(args.trace), args.smoke)
               for name in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value
                        for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
