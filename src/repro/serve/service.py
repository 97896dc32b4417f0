"""Batched reasoning service: one planner, one executor, one extraction path.

:class:`ReasoningService` is the serving layer over a trained
:class:`~repro.core.api.Gamora`.  A call to :meth:`reason_many` takes N
independent circuits and

1. **deduplicates** them by :meth:`AIG.structural_hash()
   <repro.aig.graph.AIG.structural_hash>` — repeated designs (the common
   case under real traffic) are reasoned once per batch and served from the
   result LRU on later batches;
2. **encodes** the unique circuits to :class:`~repro.learn.data.GraphData`
   through a structural-hash LRU, so re-submitted structures skip feature
   and adjacency construction entirely;
3. **plans** the forward passes with :func:`repro.serve.sharding.plan_shards`:
   a list of steps, each one block-diagonal merge plus one
   :class:`~repro.learn.data.WindowPlan` over it.  Packed merges stay under
   ``max_window_bytes`` of analytic
   :func:`~repro.learn.infer.estimate_inference_memory` and get the
   one-window plan; a circuit whose standalone estimate exceeds the budget
   gets a level-windowed plan under the same budget;
4. **executes** every step the same way — assemble the merge, run
   :meth:`~repro.learn.fast.FastInference.predict_streamed` over its plan
   (a one-window plan is the full-graph pass, labels bit-identical either
   way) — and hands the step's per-circuit predictions to post-processing.
   A step that runs out of memory is re-planned at half its estimate and
   rerun;
5. **post-processes** each circuit in process, as its step finishes, with
   :func:`~repro.core.postprocess.extract_from_predictions` (through
   :func:`repro.serve.workers.timed_extraction`); results are reassembled
   in input order;
6. **reports** each computed circuit's word-level structure with
   :func:`~repro.reasoning.wordlevel.analyze_adder_trees` (timed into
   ``BatchStats.report_seconds``).  Every outcome carries its report,
   whichever route served it: fresh, in-batch duplicate, cache hit,
   streamed or OOM-degraded.

Scaling knob
------------
``max_window_bytes``
    Peak estimated bytes of any one forward-pass window.  ``None``
    (default) runs the whole batch as one full-graph step.  Set, circuits
    are packed into block-diagonal merges whose estimate stays within the
    budget, and a circuit whose standalone estimate exceeds it streams
    level-window by level-window under the same budget
    (``BatchStats.streamed_graphs`` / ``num_windows`` /
    ``peak_window_bytes`` report what actually ran).  A budget of zero or
    less raises ``ValueError``.

It is set once, on the constructor; every :meth:`reason_many` and
:meth:`plan` call runs under it.

Caching semantics
-----------------
Both caches are keyed by the permutation-invariant structural hash and
guarded by an exact node-numbering fingerprint (see
:mod:`repro.serve.cache`), so a cache can never hand back artifacts indexed
under a different variable numbering.  Result-cache entries additionally
key on the *normalized* post-processing options (``lsb_outputs`` is
ignored when ``correct_lsb`` is off, because it has no effect then).
A result-cache entry is the ``(labels, extraction, report)`` triple.
When the result cache is enabled, cache hits share label arrays,
extraction and report objects between outcomes and the label arrays are
frozen (mutation raises instead of silently poisoning later hits); with
``result_cache_size=0`` nothing is stored and the labels stay writable,
matching sequential :meth:`Gamora.reason`.

The service snapshots nothing: it reads the bound Gamora's network at call
time.  If you *retrain* the Gamora, cached encodings stay valid (features
do not depend on weights) but cached results become stale — call
:meth:`clear_result_cache` (``Gamora.fit`` drops its lazily built service
automatically).

Both caches persist to disk: :meth:`save_result_cache` /
:meth:`load_result_cache` spill reasoning outcomes stamped with the model
fingerprint, and :meth:`save_graph_cache` / :meth:`load_graph_cache` spill
the encoded graphs stamped with the *encoding* fingerprint only — so a
retrained model reloads its encodings while a different feature mode or
direction invalidates them.  ``batch-reason --cache-dir`` wires both up
(results at the directory root, graphs under ``graphs/``).

The invariant that makes all of this safe — planned/batched predictions
are identical to sequential ones — is enforced by
``tests/test_serve_batching.py`` and ``tests/test_serve_sharding.py``.
"""

from __future__ import annotations

import copy
import threading
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.aig.graph import AIG
from repro.core.api import Gamora, ReasoningOutcome, _as_aig
from repro.learn.data import GraphData, batch_graphs, build_graph_data, unbatch_predictions
from repro.reasoning.wordlevel import analyze_adder_trees
from repro.serve import resilience
from repro.serve.cache import StructuralHashCache, exact_fingerprint
from repro.serve.sharding import BatchPlan, plan_shards
from repro.serve.workers import timed_extraction
from repro.utils.timing import Timer

__all__ = ["BatchStats", "BatchReasoningOutcome", "ReasoningService"]


@dataclass
class BatchStats:
    """Per-stage accounting for one :meth:`ReasoningService.reason_many`.

    Stage timings accumulate across shards: ``inference_seconds`` is the
    sum of every shard's forward pass and ``postprocess_seconds`` the sum
    of per-circuit extraction times.
    """

    batch_size: int = 0
    unique_circuits: int = 0  # distinct structures actually computed
    result_hits: int = 0  # circuits served from the result LRU
    graph_hits: int = 0  # encodings served from the graph LRU
    graph_misses: int = 0  # encodings built this call
    encode_seconds: float = 0.0
    plan_seconds: float = 0.0  # shard packing and streaming window plans
    assemble_seconds: float = 0.0  # block-diagonal merges, summed over shards
    inference_seconds: float = 0.0  # forward passes, summed over shards
    postprocess_seconds: float = 0.0  # summed over unique circuits
    report_seconds: float = 0.0  # word-level reports of the computed circuits
    total_seconds: float = 0.0
    num_nodes: int = 0  # total nodes inferred, summed over shards
    num_edges: int = 0
    num_shards: int = 0  # forward passes this call (0 if fully cached)
    peak_shard_bytes: int = 0  # largest estimated shard footprint
    streamed_graphs: int = 0  # circuits run window-by-window
    num_windows: int = 0  # streaming windows executed, summed over shards
    peak_window_bytes: int = 0  # largest estimated window footprint
    degraded_shards: int = 0  # full-graph passes that OOMed and re-ran windowed

    def summary(self) -> str:
        extra = ""
        if self.num_shards > 1 or self.peak_shard_bytes:
            extra = (
                f" | shards={self.num_shards} "
                f"peak={self.peak_shard_bytes / 1024 ** 2:.1f}MiB"
            )
        if self.streamed_graphs:
            extra += (
                f" streamed={self.streamed_graphs} "
                f"windows={self.num_windows} "
                f"peak_window={self.peak_window_bytes / 1024 ** 2:.1f}MiB"
            )
        return (
            f"batch={self.batch_size} unique={self.unique_circuits} "
            f"result_hits={self.result_hits} graph_hits={self.graph_hits} | "
            f"encode {self.encode_seconds * 1e3:.1f}ms, "
            f"plan {self.plan_seconds * 1e3:.1f}ms, "
            f"assemble {self.assemble_seconds * 1e3:.1f}ms, "
            f"infer {self.inference_seconds * 1e3:.1f}ms, "
            f"post {self.postprocess_seconds * 1e3:.1f}ms, "
            f"total {self.total_seconds * 1e3:.1f}ms" + extra
        )


@dataclass
class BatchReasoningOutcome:
    """Sequence of per-circuit outcomes plus batch-level stats."""

    outcomes: list[ReasoningOutcome] = field(default_factory=list)
    stats: BatchStats = field(default_factory=BatchStats)

    def __len__(self) -> int:
        return len(self.outcomes)

    def __iter__(self) -> Iterator[ReasoningOutcome]:
        return iter(self.outcomes)

    def __getitem__(self, index):
        return self.outcomes[index]


def _circuit_key(aig: AIG) -> tuple[str, str]:
    """The dedup identity of one circuit: structural hash + exact numbering.

    Single source of truth for every cache/dedup key the service builds
    (``reason_many``, ``plan``) — change it here and both paths stay in
    sync.
    """
    return (aig.structural_hash(), exact_fingerprint(aig))


def _normalize_options(root_filter: bool, correct_lsb: bool,
                       lsb_outputs: int) -> tuple[bool, bool, int]:
    """Canonical options key: result cache and scheduler groups alike.

    ``lsb_outputs`` only matters when LSB correction is on; collapsing it
    to 0 otherwise lets semantically identical calls share a cache entry
    (and a micro-batch group).

    The kernel *backend* (:mod:`repro.kernels` — numpy or c) must
    NEVER enter this key: backends are differentially tested bit-identical,
    so a result computed under one backend is the result under any other,
    and runs under different backends share cache entries
    (``tests/test_kernels.py`` pins this).
    """
    correct_lsb = bool(correct_lsb)
    return (bool(root_filter), correct_lsb,
            int(lsb_outputs) if correct_lsb else 0)


def _freeze_arrays(value) -> None:
    """Mark every ndarray reachable through the cached payload read-only.

    Cache hits share arrays (in memory and reloaded from disk, where
    pickling drops the WRITEABLE flag), so accidental mutation must raise.
    Besides dicts/tuples/lists, the walk descends the v3 extraction object
    graph — ``PredictedExtraction`` → ``AdderTree`` → ``AdderTreeArrays`` /
    ``PairingCandidates`` — whose struct-of-arrays columns would otherwise
    stay silently writable while the labels froze.
    """
    from repro.core.postprocess import PredictedExtraction
    from repro.reasoning.adder_tree import AdderTree, AdderTreeArrays
    from repro.reasoning.fast_pairing import PairingCandidates

    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    elif isinstance(value, dict):
        for item in value.values():
            _freeze_arrays(item)
    elif isinstance(value, (tuple, list)):
        for item in value:
            _freeze_arrays(item)
    elif isinstance(value, (PredictedExtraction, AdderTree,
                            PairingCandidates)):
        _freeze_arrays(vars(value))
    elif isinstance(value, AdderTreeArrays):
        for slot in AdderTreeArrays.__slots__:
            _freeze_arrays(getattr(value, slot, None))


class ReasoningService:
    """Sharded, block-diagonal batched reasoning over a Gamora.

    ``graph_cache_size`` bounds the encoded-:class:`GraphData` LRU and
    ``result_cache_size`` the full-outcome LRU; either can be 0 to disable
    that cache.  ``max_window_bytes`` is the scaling knob described in the
    module docstring; it defaults to one monolithic pass.
    Everything upstream of :meth:`reason_many` only ever sees circuit
    objects, and everything downstream only sees per-circuit outcomes.
    """

    def __init__(self, gamora: Gamora, graph_cache_size: int = 128,
                 result_cache_size: int = 256,
                 max_window_bytes: int | None = None) -> None:
        if max_window_bytes is not None and max_window_bytes <= 0:
            raise ValueError(f"max_window_bytes must be a positive byte "
                             f"count, got {max_window_bytes}")
        self.gamora = gamora
        self.graph_cache = StructuralHashCache(graph_cache_size)
        self.result_cache = StructuralHashCache(result_cache_size)
        self.max_window_bytes = max_window_bytes
        self._model_fp: str | None = None  # lazy model fingerprint
        # Guards the lazy fingerprint init: two daemon threads racing the
        # first save/load would otherwise both digest the full weight
        # state (harmless but wasteful) or interleave with clear_caches()
        # resetting it mid-compute.
        self._model_fp_lock = threading.Lock()

    # ------------------------------------------------------------------
    def encode(self, circuit) -> GraphData:
        """Encode one circuit, served from the structural-hash LRU."""
        aig = _as_aig(circuit)
        return self._encode(aig, *_circuit_key(aig))

    def _encode(self, aig: AIG, shash: str, fingerprint: str) -> GraphData:
        config = self.gamora.model_config

        def build() -> GraphData:
            return build_graph_data(
                aig,
                feature_mode=config.feature_mode,
                direction=config.direction,
                with_labels=False,
            )

        return self.graph_cache.get_or_build(shash, fingerprint, build)

    def _run_plan(self, kernel, datas: list[GraphData], plan: BatchPlan,
                  stats: BatchStats):
        """The one executor: run each step, yield its per-graph labels.

        Yields ``(step, labels per member, seconds, degraded)`` in plan order
        as each step finishes.  A step that raises
        :class:`MemoryError` is re-planned at half its estimate and rerun
        (labels are bit-identical); a step already planned under a window
        budget has nothing cheaper to fall back to, so its error propagates.
        """
        for step in plan:
            members = [datas[i] for i in step.indices]
            with Timer() as assemble_timer:
                merged = members[0] if len(members) == 1 \
                    else batch_graphs(members)
            stats.assemble_seconds += assemble_timer.elapsed
            stats.num_nodes += merged.num_nodes
            stats.num_edges += merged.num_edges

            window_plan, degraded = step.window_plan, False
            with Timer() as infer_timer:
                try:
                    resilience.fire("infer.forward")  # chaos: OOM here
                    labels = kernel.predict_streamed(
                        merged.features, merged.adjacency, window_plan)
                except MemoryError:
                    if step.streamed:
                        raise
                    half = max(window_plan.peak_window_bytes // 2, 1)
                    window_plan = merged.window_plan(half, kernel)
                    labels = kernel.predict_streamed(
                        merged.features, merged.adjacency, window_plan)
                    degraded = True
                    stats.degraded_shards += 1
            stats.inference_seconds += infer_timer.elapsed
            if step.streamed or degraded:
                stats.streamed_graphs += len(step)
                stats.num_windows += window_plan.num_windows
                stats.peak_window_bytes = max(stats.peak_window_bytes,
                                              window_plan.peak_window_bytes)
            yield (step,
                   unbatch_predictions(labels,
                                       [d.num_nodes for d in members]),
                   infer_timer.elapsed, degraded)

    # ------------------------------------------------------------------
    def plan(self, circuits) -> BatchPlan:
        """The batch plan for ``circuits`` without running inference.

        Deduplicates and encodes exactly as :meth:`reason_many` does (first
        occurrence of each :func:`_circuit_key`, through the graph LRU, so
        planning a batch warms the same cache serving it would) and packs
        the unique structures against the service's byte budget, so the
        plan matches what :meth:`reason_many` would execute on a cold
        cache.  Priced against the deployment kernel
        (:meth:`Gamora.inference_kernel`), the path that actually runs.
        Useful for capacity checks and benchmark reporting.
        """
        unique: dict[tuple[str, str], AIG] = {}
        for circuit in circuits:
            aig = _as_aig(circuit)
            unique.setdefault(_circuit_key(aig), aig)
        datas = [self._encode(aig, *key) for key, aig in unique.items()]
        return plan_shards(self.gamora.inference_kernel(), datas,
                           self.max_window_bytes)

    # ------------------------------------------------------------------
    def reason_many(self, circuits, root_filter: bool = False,
                    correct_lsb: bool = True,
                    lsb_outputs: int = 4) -> BatchReasoningOutcome:
        """Batched equivalent of calling :meth:`Gamora.reason` per circuit.

        Returns one outcome per input circuit (input order preserved) with
        labels and extractions identical to the sequential path; see the
        module docstring for the pipeline, the scaling knobs (set on the
        constructor), and the caching semantics.

        Every outcome also carries its word-level ``.report``
        (:class:`~repro.reasoning.wordlevel.WordLevelReport`, equal to
        :func:`~repro.reasoning.wordlevel.analyze_adder_tree` on its
        tree).  Reports are built once per computed structure and stored
        in the cached payload, so cache hits carry theirs for free.
        """
        stats = BatchStats()
        with Timer() as total_timer:
            aigs = [_as_aig(c) for c in circuits]
            stats.batch_size = len(aigs)
            options = _normalize_options(root_filter, correct_lsb,
                                         lsb_outputs)
            outcomes: list[ReasoningOutcome | None] = [None] * len(aigs)
            # First occurrence index of each still-uncached structure.
            pending: dict[tuple[str, str], list[int]] = {}
            for index, aig in enumerate(aigs):
                key = _circuit_key(aig)
                cached = self.result_cache.get((key[0], options), key[1])
                if cached is not None:
                    labels, extraction, report = cached
                    outcomes[index] = ReasoningOutcome(
                        extraction=extraction, labels=labels,
                        inference_seconds=0.0, postprocess_seconds=0.0,
                        report=report,
                    )
                    stats.result_hits += 1
                else:
                    pending.setdefault(key, []).append(index)

            if pending:
                self._reason_pending(
                    aigs, pending, outcomes, options, stats,
                    root_filter=root_filter, correct_lsb=correct_lsb,
                    lsb_outputs=lsb_outputs,
                )

            stats.unique_circuits = len(pending)
        stats.total_seconds = total_timer.elapsed
        return BatchReasoningOutcome(outcomes, stats)

    def _reason_pending(self, aigs, pending, outcomes, options, stats, *,
                        root_filter: bool, correct_lsb: bool,
                        lsb_outputs: int) -> None:
        """Encode → plan → run steps → extract → report → reassemble."""
        graph_hits_before = self.graph_cache.hits
        with Timer() as encode_timer:
            datas = [
                self._encode(aigs[positions[0]], *key)
                for key, positions in pending.items()
            ]
        stats.encode_seconds += encode_timer.elapsed
        stats.graph_hits += self.graph_cache.hits - graph_hits_before
        stats.graph_misses += len(datas) - stats.graph_hits

        kernel = self.gamora.inference_kernel()
        with Timer() as plan_timer:
            plan = plan_shards(kernel, datas, self.max_window_bytes)
        stats.plan_seconds += plan_timer.elapsed
        stats.num_shards = len(plan)
        stats.peak_shard_bytes = plan.peak_shard_bytes

        # Alignment: pending's insertion order == datas' order; results,
        # labels, and how each forward pass ran are indexed the same way so
        # they reassemble in input order however the planner grouped them.
        keys = list(pending)
        results: list = [None] * len(datas)
        per_labels: list = [None] * len(datas)
        ran: list = [None] * len(datas)  # per-circuit outcome fields

        for step_index, (step, step_labels, seconds, degraded) in \
                enumerate(self._run_plan(kernel, datas, plan, stats)):
            for data_index, labels in zip(step.indices, step_labels):
                per_labels[data_index] = labels
                ran[data_index] = {
                    "inference_seconds": seconds / len(step),
                    "shard_index": step_index,
                    "streamed": step.streamed or degraded,
                    "degraded": degraded,
                }
                results[data_index] = timed_extraction(
                    aigs[pending[keys[data_index]][0]], labels,
                    root_filter, correct_lsb, lsb_outputs,
                )

        with Timer() as report_timer:
            reports = analyze_adder_trees(
                (aigs[pending[key][0]], results[data_index][0].tree)
                for data_index, key in enumerate(keys)
            )
        stats.report_seconds += report_timer.elapsed

        store_results = self.result_cache.capacity > 0
        for data_index, key in enumerate(keys):
            extraction, post_seconds = results[data_index]
            report = reports[data_index]
            stats.postprocess_seconds += post_seconds
            labels = per_labels[data_index]
            if store_results:
                # The cached labels — and the extraction's array-core
                # tree — alias the arrays handed to callers; freeze them
                # so accidental mutation raises instead of silently
                # poisoning later cache hits.  With the cache disabled
                # nothing is stored, so the arrays stay writable like
                # sequential reason()'s.
                for array in labels.values():
                    array.setflags(write=False)
                _freeze_arrays(extraction)
                self.result_cache.put(
                    (key[0], options), key[1], (labels, extraction, report)
                )
            for slot, position in enumerate(pending[key]):
                if store_results or slot == 0:
                    outcome_labels = labels
                    outcome_extraction = extraction
                    outcome_report = report
                else:
                    # Unfrozen results must not alias between duplicate
                    # outcomes: sequential reason() gives every call its
                    # own writable labels and extraction, so mutating one
                    # twin must not touch the other.
                    outcome_labels = {
                        task: array.copy() for task, array in labels.items()
                    }
                    outcome_extraction = copy.deepcopy(extraction)
                    outcome_report = copy.deepcopy(report)
                outcomes[position] = ReasoningOutcome(
                    extraction=outcome_extraction, labels=outcome_labels,
                    postprocess_seconds=post_seconds,
                    report=outcome_report, **ran[data_index],
                )

    # ------------------------------------------------------------------
    _MODEL_MARKER = "MODEL.tag"
    # Stamped alongside the model fingerprint.  Bump the version whenever
    # the *meaning* of cached results changes — post-processing semantics,
    # the options key, the outcome payload — so entries computed by older
    # code are invalidated even though the model weights are unchanged
    # (``to_dir`` skips existing files by name, so stale entries would
    # otherwise never be refreshed).  Any marker starting with the family
    # prefix identifies a directory this service family owns; everything
    # else is foreign data and is never touched.
    _CACHE_FORMAT_FAMILY = "gamora-result-cache-"
    # v2: the options key gained the post-processing engine field.
    # v3: the extraction payload carries the array-core AdderTree
    #     (struct-of-arrays slices + candidate rows, lazy detection).
    # v4: the payload is a (labels, extraction, report) triple — the
    #     word-level report of the extraction (None when the entry was
    #     cached by a call that skipped reports).
    # v5: labels come from the shared float32 deployment kernel (padded
    #     row-stable GEMMs) instead of the float64 training-path forward —
    #     label bits can differ from v4 entries on argmax-tie nodes.
    # v6: the engine field left the options key (one post-processing
    #     implementation), so keys are (root_filter, correct_lsb, lsb_outputs).
    # v7: every payload carries its report (v6 entries could hold None).
    _CACHE_FORMAT = _CACHE_FORMAT_FAMILY + "v7"

    # The encoded-graph cache persists separately: encodings depend only on
    # the encoding configuration (feature mode / direction), not on the
    # model weights, so the stamp carries an encoding fingerprint and a
    # retrained model keeps its graph spill valid.
    _GRAPH_MARKER = "GRAPH.tag"
    _GRAPH_FORMAT_FAMILY = "gamora-graph-cache-"
    # v2: GraphData gained the cached topological-levels array that window
    #     planning consumes (v1 pickles would deserialize without it).
    _GRAPH_FORMAT = _GRAPH_FORMAT_FAMILY + "v2"

    @classmethod
    def _validate_owned_dir(cls, directory, marker_name: str,
                            family: str, what: str) -> str | None:
        """Shared ownership rule for every stamped cache directory.

        A directory is usable when it is fresh (no ``.npz`` payload) or
        carries a marker this service family wrote; a foreign marker or
        unstamped ``.npz`` files make it untouchable.
        """
        from pathlib import Path

        directory = Path(directory)
        marker = directory / marker_name
        if marker.is_file():
            try:
                owned = marker.read_text().startswith(family)
            except OSError:
                owned = False
            if owned:
                return None
            return (f"{marker} exists but was not written by a reasoning "
                    "service")
        if any(directory.glob("*.npz")):
            return (f"{directory} contains .npz files but no {what} stamp")
        return None

    @classmethod
    def validate_cache_dir(cls, directory) -> str | None:
        """Why ``directory`` cannot be used as a result-cache dir, or None.

        Single source of truth for cache-directory ownership — used by
        :meth:`save_result_cache` before writing anything and by the CLI's
        fail-fast precheck, so the two can never diverge.
        """
        return cls._validate_owned_dir(directory, cls._MODEL_MARKER,
                                       cls._CACHE_FORMAT_FAMILY,
                                       "result-cache")

    @classmethod
    def validate_graph_cache_dir(cls, directory) -> str | None:
        """Why ``directory`` cannot hold the encoded-graph cache, or None."""
        return cls._validate_owned_dir(directory, cls._GRAPH_MARKER,
                                       cls._GRAPH_FORMAT_FAMILY,
                                       "graph-cache")

    def _model_fingerprint(self) -> str:
        """Digest of the bound Gamora's configuration and weights.

        Cached results depend on the exact model that produced them, so
        the on-disk cache is stamped with this fingerprint — a directory
        written under a different (or retrained) model must never be
        served as hits.  Memoized: a service instance's model is fixed
        (``Gamora.fit`` drops its lazily built service on retrain).
        """
        with self._model_fp_lock:
            if self._model_fp is not None:
                return self._model_fp
            import hashlib
            import json

            digest = hashlib.blake2b(digest_size=16)
            digest.update(
                json.dumps(self.gamora.model_config.to_dict(),
                           sort_keys=True).encode("utf-8")
            )
            state = self.gamora.net.state_dict()
            for name in sorted(state):
                array = np.ascontiguousarray(state[name])
                digest.update(name.encode("utf-8"))
                digest.update(repr((array.shape, array.dtype.str)).encode("ascii"))
                digest.update(array.tobytes())
            self._model_fp = digest.hexdigest()
            return self._model_fp

    def _encoding_fingerprint(self) -> str:
        """Digest of everything a :class:`GraphData` encoding depends on.

        Deliberately *not* the model fingerprint: features and adjacency
        are weight-independent, so a retrained model reloads its encoded
        graphs while a different ``feature_mode``/``direction`` (which
        changes every feature row) invalidates them.
        """
        import hashlib
        import json

        config = self.gamora.model_config
        digest = hashlib.blake2b(digest_size=16)
        digest.update(
            json.dumps({"feature_mode": config.feature_mode,
                        "direction": config.direction},
                       sort_keys=True).encode("utf-8")
        )
        return digest.hexdigest()

    def _spill_cache(self, cache: StructuralHashCache, directory,
                     marker_name: str, stamp: str, error: str | None,
                     what: str) -> int:
        """Stamp-guarded spill shared by the result and graph caches.

        The directory is stamped; one this service family stamped under a
        *different* fingerprint (or format version) is purged first —
        those entries could never be valid again, and ``to_dir`` skips by
        file name, so stale files would otherwise shadow recomputed
        entries forever.  A directory holding foreign data (``.npz``
        files without our stamp, or someone else's marker) is refused
        (``OSError``) rather than cleaned out.  Returns the number of
        entries written; already-present entries are skipped, so repeated
        saves are cheap and incremental.
        """
        from pathlib import Path

        directory = Path(directory)
        if error is not None:
            raise OSError(
                f"{error}; refusing to use it as a {what} directory"
            )
        marker = directory / marker_name
        stamped = marker.is_file() and marker.read_text().strip() == stamp
        if not stamped:
            # Validation above proved the directory is ours or fresh, so
            # any .npz entries here are a stale model's/format's: purge
            # and restamp *before* spilling, so a crash mid-spill can
            # only leave valid entries behind.
            for stale in directory.glob("*.npz"):
                stale.unlink()
            directory.mkdir(parents=True, exist_ok=True)
            # Atomic stamp (tmp + rename, like the npz entries): a crash
            # mid-write must not leave a truncated marker that would make
            # the directory read as foreign — and unusable — forever.
            import os

            marker_tmp = marker.with_name(f"{marker.name}.{os.getpid()}.tmp")
            marker_tmp.write_text(stamp + "\n")
            marker_tmp.replace(marker)
        # The stamp doubles as the entry namespace: entries written by a
        # concurrent service under a different model get different file
        # names and are ignored on load, so a racing save can never
        # poison this cache with another configuration's artifacts.
        return cache.to_dir(directory, namespace=stamp)

    @staticmethod
    def _reload_cache(cache: StructuralHashCache, directory,
                      marker_name: str, stamp: str) -> int:
        """Stamp-checked reload shared by the result and graph caches."""
        from pathlib import Path

        marker = Path(directory) / marker_name
        if not marker.is_file():
            return 0
        if marker.read_text().strip() != stamp:
            return 0
        loaded = cache.from_dir(directory, namespace=stamp)
        # Report what actually survived insertion: the LRU bound (or a
        # disabled cache) can retain fewer entries than the dir held.
        return min(loaded, len(cache))

    def save_result_cache(self, directory) -> int:
        """Spill the result cache to ``directory`` (fingerprint-named npz).

        Stamped with the bound model's weight fingerprint — see
        :meth:`_spill_cache` for the ownership/purge rules.
        """
        return self._spill_cache(
            self.result_cache, directory, self._MODEL_MARKER,
            f"{self._CACHE_FORMAT}:{self._model_fingerprint()}",
            self.validate_cache_dir(directory), "result-cache",
        )

    def load_result_cache(self, directory) -> int:
        """Reload a previously saved result cache from ``directory``.

        Loads nothing (returns 0) unless the directory's model stamp
        matches the bound Gamora — results computed by another model must
        not be served as hits.  Re-applies the frozen-labels invariant
        (pickling drops the read-only flag): cached label arrays are
        shared between hits, so they must reject accidental mutation.
        Returns the number of entries loaded.
        """
        stamp = f"{self._CACHE_FORMAT}:{self._model_fingerprint()}"
        loaded = self._reload_cache(self.result_cache, directory,
                                    self._MODEL_MARKER, stamp)
        if loaded:
            for _, _, value in self.result_cache.items():
                _freeze_arrays(value)
        return loaded

    def save_graph_cache(self, directory) -> int:
        """Spill the encoded-graph cache (mirrors :meth:`save_result_cache`).

        Entries are :class:`GraphData` encodings keyed by structural hash;
        the stamp carries the encoding fingerprint, so a service with a
        different ``feature_mode``/``direction`` purges them while a
        merely retrained model keeps them.
        """
        return self._spill_cache(
            self.graph_cache, directory, self._GRAPH_MARKER,
            f"{self._GRAPH_FORMAT}:{self._encoding_fingerprint()}",
            self.validate_graph_cache_dir(directory), "graph-cache",
        )

    def load_graph_cache(self, directory) -> int:
        """Reload a spilled encoded-graph cache (0 on a stamp mismatch)."""
        stamp = f"{self._GRAPH_FORMAT}:{self._encoding_fingerprint()}"
        return self._reload_cache(self.graph_cache, directory,
                                  self._GRAPH_MARKER, stamp)

    # ------------------------------------------------------------------
    def clear_result_cache(self) -> None:
        """Drop cached outcomes (required after retraining the Gamora).

        Also forgets the memoized model fingerprint: after an in-place
        retrain the next persistent-cache save/load must restamp with the
        *new* weights, never the pre-retrain digest.
        """
        self.result_cache.clear()
        with self._model_fp_lock:
            self._model_fp = None

    def clear_caches(self) -> None:
        """Drop both caches (encodings and results)."""
        self.graph_cache.clear()
        self.result_cache.clear()
        with self._model_fp_lock:
            self._model_fp = None

    def cache_stats(self) -> dict[str, dict[str, int]]:
        """Counter snapshots of both LRUs."""
        return {
            "graph": self.graph_cache.stats(),
            "result": self.result_cache.stats(),
        }

    def __repr__(self) -> str:
        return (
            f"ReasoningService({self.gamora!r}, graph_cache="
            f"{self.graph_cache!r}, result_cache={self.result_cache!r}, "
            f"max_window_bytes={self.max_window_bytes})"
        )
