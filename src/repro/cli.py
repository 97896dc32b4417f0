"""Command-line interface: ``python -m repro <command>``.

Subcommands cover the release's day-to-day flows:

* ``gen``     — generate a multiplier and write it as AIGER;
* ``stats``   — print AIG statistics for a netlist file;
* ``extract`` — exact adder-tree extraction on a netlist;
* ``train``   — train a Gamora model and save the weights;
* ``reason``  — run a trained model over a netlist and report the tree;
* ``batch-reason`` — reason over many netlists in one batched forward pass
  (block-diagonal merge + structural-hash caching) with per-stage timing;
* ``serve``   — always-on daemon over a Unix socket: concurrent requests
  coalesce into micro-batches, caches stay warm across requests and
  (via ``--cache-dir``) across restarts;
* ``map``     — technology-map a netlist and report cell statistics;
* ``cec``     — equivalence-check two netlists;
* ``verify``  — SCA-verify a generated multiplier.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from repro.aig import read_aiger, write_aag, write_aig
from repro.generators import make_multiplier
from repro.kernels.registry import BACKEND_CHOICES

__all__ = ["main", "build_parser"]

_KERNEL_HELP = ("hot-path kernel backend (default: REPRO_KERNEL env var, "
                "else auto = c when it builds, else numpy); backends are "
                "bit-identical, so results and caches do not depend on it")
_BUDGET_HELP = ("estimated bytes any one forward-pass window may use: "
                "circuits are packed into merges under it, and a circuit "
                "larger than it streams level-windowed under it (default: "
                "one full-graph pass)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Gamora reproduction: graph-learning symbolic reasoning for AIGs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a multiplier netlist")
    gen.add_argument("output", help="output path (.aag or .aig)")
    gen.add_argument("--width", type=int, default=8)
    gen.add_argument("--kind", choices=["csa", "booth"], default="csa")
    gen.add_argument("--style", default=None,
                     help="reduction style (array/wallace/dadda)")

    stats = sub.add_parser("stats", help="print netlist statistics")
    stats.add_argument("netlist")

    extract = sub.add_parser("extract", help="exact adder-tree extraction")
    extract.add_argument("netlist")
    extract.add_argument("--max-cuts", type=int, default=10)
    extract.add_argument("--kernel", choices=BACKEND_CHOICES, default=None,
                         help=_KERNEL_HELP)

    train = sub.add_parser("train", help="train a Gamora model")
    train.add_argument("model_out", help="output .npz path")
    train.add_argument("--width", type=int, default=8)
    train.add_argument("--kind", choices=["csa", "booth"], default="csa")
    train.add_argument("--model", choices=["shallow", "deep"], default="shallow")
    train.add_argument("--epochs", type=int, default=250)
    train.add_argument("--max-window-bytes", type=int, default=None,
                       help="memory budget per training window: epochs run "
                            "level-windowed with gradient accumulation under "
                            "this budget (default: one full-batch window)")
    train.add_argument("--seed", type=int, default=None,
                       help="window-order shuffle seed (default: the repo-wide "
                            "deterministic seed)")
    train.add_argument("--checkpoint-every", type=int, default=0,
                       help="save a resumable checkpoint (weights + Adam "
                            "moments + shuffle RNG) every N epochs; an "
                            "existing checkpoint resumes the run "
                            "bit-identically (0 disables)")
    train.add_argument("--checkpoint", default=None,
                       help="checkpoint path (default: <model_out>.ckpt when "
                            "--checkpoint-every is set)")

    reason = sub.add_parser("reason", help="reason over a netlist with a model")
    reason.add_argument("model")
    reason.add_argument("netlist")

    batch = sub.add_parser(
        "batch-reason",
        help="reason over many netlists in one batched inference pass",
    )
    batch.add_argument("model")
    # nargs="*" so an empty list reaches the handler's validation (a clean
    # one-line error + exit 2) instead of an argparse usage dump.
    batch.add_argument("netlists", nargs="*")
    batch.add_argument("--graph-cache", type=int, default=128,
                       help="encoded-graph LRU capacity (0 disables)")
    batch.add_argument("--result-cache", type=int, default=256,
                       help="reasoning-result LRU capacity (0 disables)")
    batch.add_argument("--max-window-bytes", "--max-shard-bytes",
                       dest="max_window_bytes", type=int, default=None,
                       help=_BUDGET_HELP)
    batch.add_argument("--cache-dir", default=None,
                       help="persistent cache directory: reasoning results "
                            "(and encoded graphs, under graphs/) are "
                            "preloaded before the batch and spilled back "
                            "after, so restarts keep their hit rate")
    batch.add_argument("--compare-sequential", action="store_true",
                       help="also run per-netlist reason() and report speedup")
    batch.add_argument("--kernel", choices=BACKEND_CHOICES, default=None,
                       help=_KERNEL_HELP)

    serve = sub.add_parser(
        "serve",
        help="always-on reasoning daemon over a Unix socket",
    )
    serve.add_argument("model")
    serve.add_argument("--socket", default="gamora.sock",
                       help="Unix domain socket path to listen on")
    serve.add_argument("--batch-window-ms", type=float, default=5.0,
                       help="how long the scheduler waits after the first "
                            "queued request to coalesce concurrent arrivals "
                            "into one micro-batch")
    serve.add_argument("--max-batch", type=int, default=32,
                       help="largest micro-batch (dispatches early when hit)")
    serve.add_argument("--max-queue-depth", type=int, default=128,
                       help="admission limit; beyond it requests fast-fail "
                            "with a retriable queue_full error")
    serve.add_argument("--cache-dir", default=None,
                       help="persistent cache directory: warm results and "
                            "encoded graphs (under graphs/) are preloaded "
                            "on startup and spilled on shutdown")
    serve.add_argument("--run-dir", default=None,
                       help="write per-request stats to "
                            "<run-dir>/<request-id>/stats.json")
    serve.add_argument("--graph-cache", type=int, default=256,
                       help="encoded-graph LRU capacity (0 disables)")
    serve.add_argument("--result-cache", type=int, default=512,
                       help="reasoning-result LRU capacity (0 disables)")
    serve.add_argument("--max-window-bytes", "--max-shard-bytes",
                       dest="max_window_bytes", type=int, default=None,
                       help=_BUDGET_HELP)
    serve.add_argument("--kernel", choices=BACKEND_CHOICES, default=None,
                       help=_KERNEL_HELP)
    serve.add_argument("--default-deadline-ms", type=float, default=None,
                       help="deadline applied to requests that do not carry "
                            "their own deadline_ms: a request still queued "
                            "past it is dropped at dequeue (no forward pass) "
                            "and answered with a retriable deadline_exceeded "
                            "error (default: no deadline)")
    serve.add_argument("--fault-plan", default=None,
                       help="fault-injection plan for chaos testing: inline "
                            "JSON or a path to a JSON file (see "
                            "repro.serve.resilience.FaultPlan); also "
                            "settable via REPRO_FAULT_PLAN")
    serve.add_argument("--watchdog-timeout-s", type=float, default=300.0,
                       help="fail queued requests (retriable) when the "
                            "scheduler loop's heartbeat is older than this "
                            "while work is waiting; 0 disables the watchdog")

    tmap = sub.add_parser("map", help="technology-map a netlist")
    tmap.add_argument("netlist")
    tmap.add_argument("--library", choices=["mcnc", "asap7"], default="mcnc")
    tmap.add_argument("--mode", choices=["area", "delay"], default="area")
    tmap.add_argument("--out", help="write the re-expanded AIG here", default=None)

    cec = sub.add_parser("cec", help="equivalence-check two netlists")
    cec.add_argument("left")
    cec.add_argument("right")
    cec.add_argument("--engine", choices=["auto", "bdd", "exhaustive", "random"],
                     default="auto")

    verify = sub.add_parser("verify", help="SCA-verify a generated multiplier")
    verify.add_argument("--width", type=int, default=8)
    verify.add_argument("--kind", choices=["csa", "booth"], default="csa")
    verify.add_argument("--mode", choices=["adder", "naive"], default="adder")
    return parser


def _write_netlist(aig, path: str) -> None:
    if path.endswith(".aag"):
        write_aag(aig, path)
    else:
        write_aig(aig, path)


def _check_width(args, command: str) -> bool:
    """Print one ``<command>: ...`` line for a width the generator refuses."""
    minimum = 2 if args.kind == "booth" else 1
    if args.width >= minimum:
        return True
    print(f"{command}: --width must be at least {minimum} for a "
          f"{args.kind} multiplier, got {args.width}", file=sys.stderr)
    return False


def _cmd_gen(args) -> int:
    if not _check_width(args, "gen"):
        return 2
    kwargs = {"style": args.style} if args.style else {}
    gen = make_multiplier(args.width, args.kind, **kwargs)
    _write_netlist(gen.aig, args.output)
    print(f"wrote {gen.aig} to {args.output}")
    return 0


def _cmd_stats(args) -> int:
    aig = read_aiger(args.netlist)
    for key, value in aig.stats().items():
        print(f"{key:>8}: {value}")
    return 0


def _select_kernel(args) -> None:
    """Apply a ``--kernel`` choice (no flag given: env/auto stays in force)."""
    if getattr(args, "kernel", None) is not None:
        from repro.kernels import set_backend

        set_backend(args.kernel)


def _cmd_extract(args) -> int:
    from repro.reasoning import analyze_adder_tree, extract_adder_tree
    from repro.utils.timing import Timer, format_seconds

    _select_kernel(args)
    aig = read_aiger(args.netlist)
    with Timer() as timer:
        # Dict-free path: one shared sweep feeds the array pairing and the
        # word-level report directly.
        tree = extract_adder_tree(aig, max_cuts=args.max_cuts)
    report = analyze_adder_tree(aig, tree)
    print(report.summary())
    print(f"extraction took {format_seconds(timer.elapsed)}")
    return 0


def _cmd_train(args) -> int:
    from repro.core import Gamora
    from repro.learn import TrainConfig

    if not _check_width(args, "train"):
        return 2
    if args.epochs < 1:
        print(f"train: --epochs must be at least 1, got {args.epochs}",
              file=sys.stderr)
        return 2
    if args.max_window_bytes is not None and args.max_window_bytes <= 0:
        print(f"train: --max-window-bytes must be a positive byte count, "
              f"got {args.max_window_bytes}", file=sys.stderr)
        return 2
    checkpoint = args.checkpoint
    if checkpoint is None and args.checkpoint_every:
        checkpoint = f"{args.model_out}.ckpt"
    gamora = Gamora(model=args.model,
                    train_config=TrainConfig(
                        epochs=args.epochs,
                        max_window_bytes=args.max_window_bytes,
                        seed=args.seed,
                        checkpoint_every=args.checkpoint_every,
                        checkpoint_path=checkpoint,
                    ))
    data = gamora.prepare(make_multiplier(args.width, args.kind))
    plan = data.window_plan(args.max_window_bytes, gamora.net, training=True)
    if args.max_window_bytes is not None:
        print(f"window plan: {plan.summary()}"
              + ("" if plan.within_budget else " — OVER BUDGET"))
    else:
        print(f"window plan: full batch, 1 window, "
              f"{plan.peak_window_bytes / 1024 ** 2:.1f}MiB estimated peak")
    gamora.fit([data])
    gamora.save(args.model_out)
    final = gamora.history[-1]
    print(f"trained {gamora.net.describe()}")
    print(f"final loss {final['loss']:.4f}, train accuracy {final['mean']:.4f} "
          f"({final['num_windows']} window(s), peak "
          f"{final['peak_window_bytes'] / 1024 ** 2:.1f}MiB)")
    print(f"saved to {args.model_out}")
    return 0


def _cmd_reason(args) -> int:
    from repro.core import Gamora
    from repro.reasoning import analyze_adder_tree
    from repro.utils.timing import format_seconds

    gamora = Gamora.load(args.model)
    aig = read_aiger(args.netlist)
    outcome = gamora.reason(aig)
    report = analyze_adder_tree(aig, outcome.tree)
    print(report.summary())
    print(f"inference {format_seconds(outcome.inference_seconds)}, "
          f"post-processing {format_seconds(outcome.postprocess_seconds)}, "
          f"{outcome.num_mismatches} mismatches")
    return 0


def _check_cache_dir(cache_dir: str, command: str,
                     daemon_quarantines: bool = False) -> str | None:
    """Fail-fast precheck for a persistent cache directory.

    Ownership first (the same rule ``save_result_cache`` enforces — a
    directory the service would refuse must not even be touched by the
    writability probe), then an actual write probe, because
    ``mkdir(exist_ok=True)`` succeeds on an existing read-only dir and
    the failure must surface before any work runs, not after.  Returns
    the one-line error already printed to stderr, or ``None`` when the
    directory is usable.  Shared by ``batch-reason`` and ``serve`` so
    the two flows can never drift.

    ``daemon_quarantines=True`` (the serve path) lets a directory whose
    *own marker* is corrupt pass the precheck: ``GamoraDaemon.start``
    quarantines it — renamed aside, served cold — because a long-running
    service must degrade on a damaged cache, not refuse to boot.
    Directories holding foreign, unmarked payloads still fail fast
    either way; they are never touched.
    """
    from repro.serve import ReasoningService

    cache_path = Path(cache_dir)

    def _validate(validator, directory, marker_name) -> str | None:
        try:
            problem = validator(directory)
        except Exception as exc:  # unreadable dir: validation itself died
            problem = f"{type(exc).__name__}: {exc}"
        if (problem is not None and daemon_quarantines
                and (Path(directory) / marker_name).is_file()):
            return None  # our own (corrupt) stamp: the daemon quarantines
        return problem

    error = _validate(ReasoningService.validate_cache_dir, cache_dir,
                      ReasoningService._MODEL_MARKER)
    if error is None:
        error = _validate(ReasoningService.validate_graph_cache_dir,
                          cache_path / "graphs",
                          ReasoningService._GRAPH_MARKER)
    if error is None:
        try:
            cache_path = Path(cache_dir)
            cache_path.mkdir(parents=True, exist_ok=True)
            probe = cache_path / f".probe.{os.getpid()}"
            probe.touch()
            probe.unlink()
        except OSError as os_error:
            error = str(os_error)
    if error is not None:
        print(f"{command}: cannot use cache dir {cache_dir}: {error}",
              file=sys.stderr)
    return error


def _cmd_batch_reason(args) -> int:
    from repro.core import Gamora
    from repro.serve import ReasoningService
    from repro.utils.timing import Timer, format_seconds

    if not args.netlists:
        print("batch-reason: no netlists given", file=sys.stderr)
        return 2
    if args.cache_dir and _check_cache_dir(args.cache_dir,
                                           "batch-reason") is not None:
        return 2
    _select_kernel(args)
    gamora = Gamora.load(args.model)
    aigs = []
    for path in args.netlists:
        try:
            aigs.append(read_aiger(path))
        except (OSError, ValueError) as error:
            print(f"batch-reason: cannot read {path}: {error}", file=sys.stderr)
            return 2
    try:
        service = ReasoningService(
            gamora, graph_cache_size=args.graph_cache,
            result_cache_size=args.result_cache,
            max_window_bytes=args.max_window_bytes,
        )
    except ValueError as error:  # a non-positive budget
        print(f"batch-reason: {error}", file=sys.stderr)
        return 2
    if args.cache_dir:
        loaded = service.load_result_cache(args.cache_dir)
        print(f"result cache: loaded {loaded} entries from {args.cache_dir}")
        graphs_loaded = service.load_graph_cache(Path(args.cache_dir) / "graphs")
        print(f"graph cache: loaded {graphs_loaded} entries")
    batch = service.reason_many(aigs)
    for aig, outcome in zip(aigs, batch):
        tree = outcome.tree
        print(
            f"{aig.name}: {tree.num_full_adders} FA, "
            f"{tree.num_half_adders} HA, {outcome.num_mismatches} mismatches"
        )
    print(batch.stats.summary())
    for name, counters in service.cache_stats().items():
        print(f"{name} cache: {counters['hits']} hits, "
              f"{counters['misses']} misses, {counters['evictions']} evictions")
    if args.cache_dir:
        try:
            saved = service.save_result_cache(args.cache_dir)
            graphs_saved = service.save_graph_cache(
                Path(args.cache_dir) / "graphs"
            )
        except OSError as error:
            # The batch itself succeeded and was reported above; only the
            # persistence step failed (disk full, permissions changed, ...).
            print(f"batch-reason: cannot save cache dir {args.cache_dir}: "
                  f"{error}", file=sys.stderr)
            return 2
        print(f"result cache: saved {saved} new entries to {args.cache_dir}")
        print(f"graph cache: saved {graphs_saved} new entries")
    if args.compare_sequential:
        with Timer() as sequential_timer:
            for aig in aigs:
                gamora.reason(aig)
        batched = batch.stats.total_seconds
        print(
            f"sequential {format_seconds(sequential_timer.elapsed)} vs "
            f"batched {format_seconds(batched)} "
            f"({sequential_timer.elapsed / max(batched, 1e-12):.2f}x speedup)"
        )
    return 0


def _cmd_serve(args) -> int:
    import signal
    import threading

    from repro.core import Gamora
    from repro.serve import DaemonServer, FaultPlan, GamoraDaemon

    if args.cache_dir and _check_cache_dir(args.cache_dir, "serve",
                                           daemon_quarantines=True) is not None:
        return 2
    fault_plan = None
    if args.fault_plan:
        try:
            fault_plan = FaultPlan.from_json(args.fault_plan)
        except (OSError, ValueError) as error:
            print(f"serve: invalid --fault-plan: {error}", file=sys.stderr)
            return 2
    _select_kernel(args)
    gamora = Gamora.load(args.model)
    try:
        daemon = GamoraDaemon(
            gamora,
            batch_window_ms=args.batch_window_ms,
            max_batch=args.max_batch,
            max_queue_depth=args.max_queue_depth,
            cache_dir=args.cache_dir,
            run_dir=args.run_dir,
            graph_cache_size=args.graph_cache,
            result_cache_size=args.result_cache,
            max_window_bytes=args.max_window_bytes,
            default_deadline_ms=args.default_deadline_ms,
            watchdog_timeout_seconds=args.watchdog_timeout_s or None,
            fault_plan=fault_plan,
        )
    except ValueError as error:  # out-of-range batching/budget/deadline
        print(f"serve: {error}", file=sys.stderr)
        return 2
    daemon.start()
    warm = daemon.kernel_warmup
    print(f"kernel backend: {warm['backend']} "
          f"(warmed up in {warm['seconds'] * 1e3:.0f}ms)")
    if args.cache_dir:
        print(f"warm caches: {daemon.loaded_results} results, "
              f"{daemon.loaded_graphs} graphs from {args.cache_dir}")
        for moved in daemon.quarantined:
            print(f"serve: quarantined corrupt cache dir: {moved}",
                  file=sys.stderr)
    if fault_plan is not None:
        print(f"fault injection armed: {fault_plan!r}", file=sys.stderr)
    server = DaemonServer(daemon, args.socket)
    server.start()

    # SIGTERM (systemd stop, docker stop, kill) must be as graceful as a
    # client-requested shutdown: release serve_forever so the finally
    # block drains the queue and spills the caches.  SIGINT in a terminal
    # arrives as KeyboardInterrupt and is handled below; under a signal
    # handler (non-main-thread embedding never installs one) both behave
    # identically.
    def _graceful_shutdown(signum, frame) -> None:
        print(f"received signal {signum}; draining and shutting down",
              file=sys.stderr, flush=True)
        server._shutdown.set()

    if threading.current_thread() is threading.main_thread():
        signal.signal(signal.SIGTERM, _graceful_shutdown)
        signal.signal(signal.SIGINT, _graceful_shutdown)

    print(f"serving on {args.socket} "
          f"(window {args.batch_window_ms:.1f}ms, max batch "
          f"{args.max_batch}, queue depth {args.max_queue_depth})",
          flush=True)
    try:
        # Returns when a client sends {"op": "shutdown"}, a SIGTERM/SIGINT
        # lands, or (without the handlers installed) Ctrl-C raises.
        server.serve_forever()
    except KeyboardInterrupt:
        print("interrupted; shutting down", file=sys.stderr)
    finally:
        server.close()
        daemon.close()
    snapshot = daemon.stats()["scheduler"]
    print(f"served {snapshot['completed']} requests in "
          f"{snapshot['batches']} micro-batches "
          f"({snapshot['result_hits']} cache hits, "
          f"{snapshot['rejected']} rejected, "
          f"{snapshot['expired']} expired, "
          f"{snapshot['num_shards']} forward passes, "
          f"{daemon.dropped_responses} dropped responses)")
    if args.cache_dir:
        if daemon.spill_error is not None:
            print(f"serve: cache spill failed: {daemon.spill_error}",
                  file=sys.stderr)
            return 2
        print(f"spilled {daemon.saved_results} new results, "
              f"{daemon.saved_graphs} new graphs to {args.cache_dir}")
    return 0


def _cmd_map(args) -> int:
    from repro.techmap import asap7_like, map_aig, mcnc_reduced, netlist_to_aig

    aig = read_aiger(args.netlist)
    library = mcnc_reduced() if args.library == "mcnc" else asap7_like()
    netlist = map_aig(aig, library, mode=args.mode)
    print(netlist)
    for cell, count in netlist.cell_histogram().items():
        print(f"  {cell:>12}: {count}")
    if args.out:
        _write_netlist(netlist_to_aig(netlist), args.out)
        print(f"re-expanded AIG written to {args.out}")
    return 0


def _cmd_cec(args) -> int:
    from repro.verify import check_equivalence

    left = read_aiger(args.left)
    right = read_aiger(args.right)
    result = check_equivalence(left, right, engine=args.engine)
    print(result)
    if not result.equivalent and result.counterexample is not None:
        print(f"counterexample (inputs LSB-first): {result.counterexample}")
        print(f"first failing output index: {result.failing_output}")
    return 0 if result.equivalent else 2


def _cmd_verify(args) -> int:
    from repro.verify import verify_multiplier

    if not _check_width(args, "verify"):
        return 2
    gen = make_multiplier(args.width, args.kind)
    result = verify_multiplier(gen, mode=args.mode)
    print(result)
    return 0 if result.ok else 2


_HANDLERS = {
    "gen": _cmd_gen,
    "stats": _cmd_stats,
    "extract": _cmd_extract,
    "train": _cmd_train,
    "reason": _cmd_reason,
    "batch-reason": _cmd_batch_reason,
    "serve": _cmd_serve,
    "map": _cmd_map,
    "cec": _cmd_cec,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _HANDLERS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via main() in tests
    sys.exit(main())
