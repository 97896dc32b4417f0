"""Run the repro CLI, optionally with in-memory span tracing.

    python benchmarks/e2e/launch.py [--trace OUT.json] <repro CLI arguments>

Without ``--trace`` this is exactly ``python -m repro <arguments>``: it
calls ``repro.cli.main(argv)`` and nothing else, which is how the gated
benchmark runs start the daemon.

With ``--trace`` it first replaces the public functions listed in
:data:`TARGETS`, each at the name its caller resolves, with wrappers that
record nested, thread-local spans in memory.  The four post-processing
kernels are wrapped where ``aig.fast_cuts``, ``reasoning.fast_pairing``,
``reasoning.wordlevel`` and ``aig.graph`` look them up through
``get_kernel``.  When the CLI returns, it writes ``OUT.json`` (Chrome
trace events; opens in Perfetto) and ``OUT.selftime.txt`` (self time per
span name: duration minus the time its child spans cover).

Limitation: spans recorded inside forked post-processing workers stay in
those processes and are lost.  The benchmark's daemons post-process in
process (a batch of one circuit, or of small ones, gets no worker), so
none of their spans is lost.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time

# span name -> (module whose attribute is replaced, attribute path)
TARGETS = {
    "aig.aiger.loads_aag": ("repro.serve.daemon", "loads_aag"),
    "aig.graph.structural_hash": ("repro.aig.graph", "AIG.structural_hash"),
    "serve.cache.exact_fingerprint": ("repro.serve.service",
                                      "exact_fingerprint"),
    "serve.daemon.handle": ("repro.serve.daemon", "GamoraDaemon.handle"),
    "serve.daemon.submit": ("repro.serve.daemon", "GamoraDaemon.submit"),
    "serve.service.reason_many": ("repro.serve.service",
                                  "ReasoningService.reason_many"),
    "learn.data.build_graph_data": ("repro.serve.service", "build_graph_data"),
    "serve.sharding.plan_shards": ("repro.serve.service", "plan_shards"),
    "learn.data.window_plan": ("repro.learn.data", "GraphData.window_plan"),
    "learn.data.halo_blocks": ("repro.learn.data", "halo_blocks"),
    "learn.fast.predict": ("repro.learn.fast", "FastInference.predict"),
    "learn.fast.predict_streamed": ("repro.learn.fast",
                                    "FastInference.predict_streamed"),
    "core.postprocess.extract_from_predictions": ("repro.serve.workers",
                                                  "extract_from_predictions"),
    "aig.fast_cuts.enumerate_cuts_arrays": ("repro.aig.fast_cuts",
                                            "enumerate_cuts_arrays"),
    "reasoning.fast_pairing.pair_candidates": ("repro.core.postprocess",
                                               "pair_candidates"),
    "reasoning.wordlevel.analyze_adder_trees": ("repro.serve.service",
                                                "analyze_adder_trees"),
}
KERNEL_SITES = ("repro.aig.fast_cuts", "repro.reasoning.fast_pairing",
                "repro.reasoning.wordlevel", "repro.aig.graph")
# A span that only waits for work another thread does; it is left out of
# trace coverage so that the waited-for work is not counted twice.
WAIT_SPANS = ("serve.daemon.submit",)


class Tracer:
    """Nested thread-local spans, kept in memory until :meth:`write`."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, tid, start, end, parent span]
        self._local = threading.local()

    def wrap(self, name: str, function):
        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            span = [name, threading.get_ident(), time.monotonic(), None,
                    stack[-1] if stack else None]
            stack.append(span)
            try:
                return function(*args, **kwargs)
            finally:
                span[3] = time.monotonic()
                stack.pop()
                self.spans.append(span)

        return traced

    def install(self) -> None:
        """Wrap every target in :data:`TARGETS` and every kernel lookup."""
        for name, (module_name, path) in TARGETS.items():
            owner = importlib.import_module(module_name)
            *parents, attribute = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            setattr(owner, attribute,
                    self.wrap(name, getattr(owner, attribute)))
        for module_name in KERNEL_SITES:
            module = importlib.import_module(module_name)
            module.get_kernel = self._traced_get_kernel(module.get_kernel)

    def _traced_get_kernel(self, get_kernel):
        def traced_get_kernel(kernel: str):
            return self.wrap(f"kernels.{kernel}", get_kernel(kernel))

        return traced_get_kernel

    def events(self) -> list[dict]:
        """Chrome trace "complete" events; args carry span and parent ids."""
        # A parent still open at exit was never recorded: its children
        # become roots.
        ids = {id(span): index for index, span in enumerate(self.spans)}
        pid = os.getpid()
        events = []
        for name, tid, start, end, parent in self.spans:
            events.append({
                "name": name, "ph": "X", "pid": pid, "tid": tid,
                "ts": start * 1e6, "dur": (end - start) * 1e6,
                "args": {"id": len(events), "parent": ids.get(id(parent))},
            })
        return events

    def write(self, path: str) -> None:
        events = self.events()
        with open(path, "w", encoding="utf-8") as stream:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                      stream)
        table = self_times(spans_from_events(events))
        stem = path[:-5] if path.endswith(".json") else path
        with open(stem + ".selftime.txt", "w", encoding="utf-8") as stream:
            stream.write(format_self_times(table))


def spans_from_events(events: list[dict]) -> list[dict]:
    """Chrome events back to spans with process-unique ids, in seconds."""
    spans = []
    for event in events:
        args = event["args"]
        parent = args.get("parent")
        spans.append({
            "name": event["name"],
            "tid": event["tid"],
            "start": event["ts"] / 1e6,
            "end": (event["ts"] + event["dur"]) / 1e6,
            "id": (event["pid"], args["id"]),
            "parent": (event["pid"], parent) if parent is not None else None,
        })
    return spans


def load_spans(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as stream:
        return spans_from_events(json.load(stream)["traceEvents"])


def self_times(spans: list[dict]) -> dict[str, dict]:
    """Per span name: calls, total seconds and self seconds.

    A span's self time is its duration minus its children's durations.
    Children run on their parent's thread, one after another, so their
    durations never overlap and their sum is the time they cover.  A span
    whose parent is not in ``spans`` counts as a root.
    """
    children: dict = {}
    for span in spans:
        if span["parent"] is not None:
            duration = span["end"] - span["start"]
            children[span["parent"]] = children.get(span["parent"], 0.0) \
                + duration
    table: dict[str, dict] = {}
    for span in spans:
        duration = span["end"] - span["start"]
        row = table.setdefault(span["name"],
                               {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += duration
        row["self_s"] += duration - children.get(span["id"], 0.0)
    return table


def format_self_times(table: dict[str, dict]) -> str:
    lines = [f"{'span':<44} {'calls':>8} {'total_ms':>12} {'self_ms':>12}"]
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"{name:<44} {row['calls']:>8} "
                     f"{row['total_s'] * 1e3:>12.3f} "
                     f"{row['self_s'] * 1e3:>12.3f}")
    return "\n".join(lines) + "\n"


def main(argv: list[str]) -> int:
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
    tracer = None
    if trace_path is not None:
        tracer = Tracer()
        tracer.install()
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        if tracer is not None:
            tracer.write(trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
