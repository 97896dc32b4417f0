"""The Gamora end-to-end API: train once, reason about any AIG.

Typical use::

    from repro.core import Gamora
    from repro.generators import csa_multiplier

    gamora = Gamora(model="shallow")
    gamora.fit([csa_multiplier(8)])
    result = gamora.reason(csa_multiplier(64))
    print(result.tree.num_full_adders, "full adders recovered")

The class bundles the feature encoder, the multi-task GraphSAGE, training,
accuracy evaluation against exact reasoning, prediction post-processing,
and weight persistence.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.aig.graph import AIG
from repro.core.postprocess import PredictedExtraction, extract_from_predictions
from repro.learn.data import GraphData, build_graph_data
from repro.learn.model import GamoraNet, ModelConfig, deep_config, shallow_config
from repro.learn.trainer import TrainConfig, evaluate_model, train_model
from repro.reasoning.wordlevel import WordLevelReport
from repro.utils.timing import Timer

__all__ = ["Gamora", "ReasoningOutcome"]


@dataclass
class ReasoningOutcome:
    """Everything :meth:`Gamora.reason` produces for one netlist.

    ``report`` is filled only by the batched serving path when asked
    (``reason_many(..., with_report=True)`` — one concatenated
    word-level pass per batch); ``shard_index`` records which
    block-diagonal shard ran this circuit's forward pass (``None`` when
    the outcome was served from the result cache or came from the
    sequential path).  ``streamed`` is True when the forward pass ran
    window-by-window under a ``max_window_bytes`` budget (labels are
    bit-identical to the full-graph pass either way).  ``degraded`` is
    True when the full-graph pass raised :class:`MemoryError` and the
    outcome was served by the streamed fallback at a halved budget —
    same answer, produced the resilient way.
    """

    extraction: PredictedExtraction
    labels: dict[str, np.ndarray]
    inference_seconds: float
    postprocess_seconds: float
    report: "WordLevelReport | None" = None
    shard_index: int | None = None
    streamed: bool = False
    degraded: bool = False

    @property
    def tree(self):
        return self.extraction.tree

    @property
    def num_mismatches(self) -> int:
        return self.extraction.num_mismatches


def _as_aig(circuit) -> AIG:
    """Accept an AIG or anything carrying one (GeneratedMultiplier)."""
    if isinstance(circuit, AIG):
        return circuit
    aig = getattr(circuit, "aig", None)
    if isinstance(aig, AIG):
        return aig
    raise TypeError(f"expected AIG or object with .aig, got {type(circuit).__name__}")


class Gamora:
    """Graph-learning symbolic reasoner for AIGs (the paper's system)."""

    def __init__(self, model: str | ModelConfig = "shallow",
                 feature_mode: str = "full", direction: str = "in",
                 single_task: bool = False, seed: int = 0,
                 train_config: TrainConfig | None = None) -> None:
        if isinstance(model, ModelConfig):
            config = model
        elif model == "shallow":
            config = shallow_config()
        elif model == "deep":
            config = deep_config()
        else:
            raise ValueError(f"model must be 'shallow', 'deep' or a ModelConfig, got {model!r}")
        config.feature_mode = feature_mode
        config.direction = direction
        config.single_task = single_task
        config.seed = seed
        self.model_config = config
        self.train_config = train_config or TrainConfig()
        self.net = GamoraNet(config)
        self.history: list[dict] = []
        self._service = None  # lazy ReasoningService for reason_many
        self._kernel = None  # lazy compiled FastInference (deployment path)

    # ------------------------------------------------------------------
    def prepare(self, circuit, with_labels: bool = True,
                labels_source: str = "functional") -> GraphData:
        """Encode a circuit as a :class:`GraphData` for this model."""
        if isinstance(circuit, GraphData):
            return circuit
        return build_graph_data(
            _as_aig(circuit),
            feature_mode=self.model_config.feature_mode,
            direction=self.model_config.direction,
            with_labels=with_labels,
            labels_source=labels_source,
        )

    def fit(self, circuits, labels_source: str = "functional",
            epochs: int | None = None) -> list[dict]:
        """Train on one or more circuits (paper: small multipliers)."""
        if not isinstance(circuits, (list, tuple)):
            circuits = [circuits]
        graphs = [self.prepare(c, labels_source=labels_source) for c in circuits]
        train_config = self.train_config
        if epochs is not None:
            train_config = TrainConfig(**{**vars(train_config), "epochs": epochs})
        self.net, self.history = train_model(
            graphs, self.model_config, train_config, model=self.net
        )
        # Weights changed: the compiled kernel and any cached reasoning
        # results are stale.
        self._service = None
        self._kernel = None
        return self.history

    def inference_kernel(self):
        """The memoized float32 deployment kernel for the current weights.

        Every serving-path prediction (:meth:`predict`, :meth:`reason`,
        :meth:`predict_many`, and the batched service) runs through this
        one snapshot, so sequential, sharded, and streamed answers are
        bit-identical to each other.  Recompiled lazily after :meth:`fit`.
        """
        from repro.learn.fast import compile_inference

        if self._kernel is None:
            self._kernel = compile_inference(self.net)
        return self._kernel

    def predict(self, circuit) -> dict[str, np.ndarray]:
        """Per-node multi-task label predictions."""
        data = self.prepare(circuit, with_labels=False)
        return self.inference_kernel().predict(data.features, data.adjacency)

    def evaluate(self, circuit, labels_source: str = "functional") -> dict[str, float]:
        """Reasoning accuracy against exact ground truth."""
        data = self.prepare(circuit, labels_source=labels_source)
        return evaluate_model(self.net, data)

    def reason(self, circuit, root_filter: bool = False, correct_lsb: bool = True,
               lsb_outputs: int = 4, engine: str = "fast") -> ReasoningOutcome:
        """Predict labels, then post-process into an adder tree.

        ``engine`` selects the post-processing implementation: ``"fast"``
        (vectorized cut sweep + array-shaped pairing) or ``"legacy"`` (the
        per-node baseline).
        """
        aig = _as_aig(circuit)
        data = self.prepare(aig, with_labels=False)
        kernel = self.inference_kernel()
        with Timer() as infer_timer:
            labels = kernel.predict(data.features, data.adjacency)
        with Timer() as post_timer:
            extraction = extract_from_predictions(
                aig, labels, root_filter=root_filter,
                correct_lsb=correct_lsb, lsb_outputs=lsb_outputs,
                engine=engine,
            )
        return ReasoningOutcome(
            extraction=extraction,
            labels=labels,
            inference_seconds=infer_timer.elapsed,
            postprocess_seconds=post_timer.elapsed,
        )

    def reason_many(self, circuits, root_filter: bool = False,
                    correct_lsb: bool = True, lsb_outputs: int = 4,
                    max_shard_bytes: int | None = None,
                    max_window_bytes: int | None = None,
                    postprocess_workers: int | None = None,
                    engine: str = "fast", with_report: bool = False):
        """Batched :meth:`reason` over many circuits via the serving layer.

        Circuits are deduplicated by structural hash, encoded through an
        LRU cache, and planned as a list of steps: block-diagonal merges
        (each kept under ``max_shard_bytes`` of estimated inference memory
        when set; one merge otherwise), each run through one window plan.
        A merge runs as a single full-graph window; with
        ``max_window_bytes`` also set, a circuit too large for any merge
        streams level-window by level-window under that budget instead of
        running one unbounded pass — labels bit-identical either way.
        Every circuit is then post-processed — in ``postprocess_workers``
        worker processes overlapped with the next step's inference when > 0
        (``None``, the default, auto-sizes from ``os.cpu_count()`` and the
        batch's circuit sizes; small batches stay in-process).
        Returns a :class:`repro.serve.BatchReasoningOutcome` — a sequence
        with one :class:`ReasoningOutcome` per input circuit (input order
        preserved, labels and extractions identical to sequential
        :meth:`reason`) plus per-stage timing in ``.stats``.  The lazily
        built service (and its caches) persists across calls and is
        dropped on :meth:`fit`.
        """
        return self._serving().reason_many(
            circuits, root_filter=root_filter,
            correct_lsb=correct_lsb, lsb_outputs=lsb_outputs,
            max_shard_bytes=max_shard_bytes,
            max_window_bytes=max_window_bytes,
            postprocess_workers=postprocess_workers,
            engine=engine, with_report=with_report,
        )

    def predict_many(self, circuits) -> list[dict[str, np.ndarray]]:
        """Batched :meth:`predict` through the serving layer's executor.

        Same plan and forward passes as :meth:`reason_many`, without the
        post-processing; one label dict per input circuit, in input order.
        """
        return self._serving().predict_many(circuits)

    def _serving(self):
        """The lazily built :class:`repro.serve.ReasoningService`."""
        from repro.serve import ReasoningService

        if self._service is None:
            self._service = ReasoningService(self)
        return self._service

    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> None:
        """Persist weights + configuration to an ``.npz`` archive.

        The archive is written to exactly ``path`` (no ``.npz`` suffix is
        appended), so ``Gamora.load(path)`` always finds what ``save(path)``
        wrote regardless of the extension the caller chose.
        """
        path = Path(path)
        payload = {f"param:{k}": v for k, v in self.net.state_dict().items()}
        payload["config_json"] = np.frombuffer(
            json.dumps(self.model_config.to_dict()).encode("utf-8"), dtype=np.uint8
        )
        # np.savez(<str path>) silently appends ".npz" when the suffix is
        # missing, breaking load() on the caller's path; writing through an
        # open file handle keeps the destination verbatim.
        with open(path, "wb") as stream:
            np.savez(stream, **payload)

    @classmethod
    def load(cls, path: str | Path) -> "Gamora":
        """Restore a saved model."""
        archive = np.load(Path(path), allow_pickle=False)
        config_raw = bytes(archive["config_json"].tobytes()).decode("utf-8")
        config = ModelConfig.from_dict(json.loads(config_raw))
        instance = cls(model=config)
        state = {
            key[len("param:"):]: archive[key]
            for key in archive.files
            if key.startswith("param:")
        }
        instance.net.load_state_dict(state)
        instance.net.eval()
        return instance

    def __repr__(self) -> str:
        return f"Gamora({self.net.describe()})"
