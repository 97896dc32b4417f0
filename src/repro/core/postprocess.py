"""Post-processing of GNN predictions (paper Sec. III-B3 and IV-B1).

Predicted XOR/MAJ/root labels become an adder tree in three steps:

1. *verify* — each flagged node's cuts are checked against the XOR/MAJ NPN
   classes; nodes with no matching cut are mispredictions (the paper's
   Fig. 3(e) "mismatch") and are dropped;
2. *pair* — verified roots go through the same identical-input matching as
   exact reasoning;
3. *LSB repair* — nodes near the least-significant output bits have shallow
   neighborhoods and are systematically mispredicted (paper Sec. IV-B1);
   exact reasoning re-runs on that small cone and overrides the labels,
   the "easily corrected during post-processing" step.

One engine and the adapter boundary
-----------------------------------
One vectorized whole-graph sweep (:mod:`repro.aig.fast_cuts`) computes
every node's priority cuts, classifies them against the 256-entry XOR/MAJ
LUTs, and keeps the result as
:class:`~repro.reasoning.fast_pairing.PairingCandidates` arrays end to
end: flagged candidates are verified with one sorted-membership pass, LSB
repair restricts the same rows to the low-output cone, and the filtered
rows feed the array pairing core directly.  **No ``XorMajDetection`` dict
is ever materialized on this path** — the dict form stays available as a
lazy adapter (``extraction.detection`` / ``tree.detection``,
:meth:`PairingCandidates.to_detection
<repro.reasoning.fast_pairing.PairingCandidates.to_detection>`) for
public-API compatibility.  Verification matches the ground-truth
semantics of :func:`~repro.reasoning.xor_maj.detect_xor_maj` exactly (same
global priority cuts that generated the training labels).

The original per-node pipeline, which re-derives a depth-bounded local
cone around each flagged node, lives on in ``tests/oracles/`` as the
differential-test oracle and the runtime baseline of
``benchmarks/bench_postprocess_fast.py``.
"""

from __future__ import annotations

import numpy as np

from repro.aig.graph import AIG, lit_var
from repro.reasoning.adder_tree import (
    KIND_HA,
    TASK1_LEAF,
    TASK1_ROOT,
    TASK1_ROOT_LEAF,
    AdderTree,
)
from repro.reasoning.fast_pairing import PairingCandidates, pair_candidates
from repro.reasoning.xor_maj import XorMajDetection
from repro.utils.arrays import in_sorted

__all__ = [
    "PredictedExtraction",
    "predictions_to_detection",
    "extract_from_predictions",
    "correct_lsb_region",
]


class PredictedExtraction:
    """Adder tree recovered from predictions, with a mismatch report.

    ``detection`` is a thin adapter view: post-processing never builds the
    dict form, so accessing it materializes the
    :class:`~repro.reasoning.xor_maj.XorMajDetection` from the tree's
    candidate arrays on first use (callers holding the dicts already may
    pass them in).
    """

    def __init__(self, tree: AdderTree,
                 detection: XorMajDetection | None = None,
                 rejected_xor: list[int] | None = None,
                 rejected_maj: list[int] | None = None,
                 corrected_vars: set[int] | None = None) -> None:
        self.tree = tree
        self._detection = detection
        self.rejected_xor = list(rejected_xor) if rejected_xor else []
        self.rejected_maj = list(rejected_maj) if rejected_maj else []
        self.corrected_vars = set(corrected_vars) if corrected_vars else set()

    @property
    def detection(self) -> XorMajDetection | None:
        if self._detection is None:
            self._detection = self.tree.detection
        return self._detection

    @property
    def num_mismatches(self) -> int:
        return len(self.rejected_xor) + len(self.rejected_maj)

    def __eq__(self, other) -> bool:
        """Value equality over the former dataclass fields (lazy views
        materialize on comparison — equality is not a serving-path op)."""
        if not isinstance(other, PredictedExtraction):
            return NotImplemented
        return (self.tree == other.tree
                and self.detection == other.detection
                and self.rejected_xor == other.rejected_xor
                and self.rejected_maj == other.rejected_maj
                and self.corrected_vars == other.corrected_vars)

    __hash__ = None  # mutable, like the non-frozen dataclass it replaced

    def __repr__(self) -> str:
        return (
            f"PredictedExtraction({self.tree!r}, "
            f"{self.num_mismatches} mismatches, "
            f"{len(self.corrected_vars)} corrected)"
        )


def _root_flags(labels: dict[str, np.ndarray]) -> np.ndarray:
    root = np.asarray(labels["root"])
    return (root == TASK1_ROOT) | (root == TASK1_ROOT_LEAF)


def _sweep_candidates(aig: AIG, max_cuts: int,
                      restrict_to=None) -> PairingCandidates:
    """One vectorized sweep straight to candidate arrays — no dicts.

    ``restrict_to`` narrows the sweep to the given roots' fan-in cones
    (bit-identical cuts there); outside nodes simply have no rows.
    """
    from repro.aig.fast_cuts import enumerate_cuts_arrays

    return PairingCandidates.from_cut_arrays(
        enumerate_cuts_arrays(aig, k=3, max_cuts=max_cuts,
                              restrict_to=restrict_to)
    )


def _verify_candidates(
    aig: AIG,
    cands: PairingCandidates,
    labels: dict[str, np.ndarray],
    root_filter: bool,
) -> tuple[PairingCandidates, list[int], list[int]]:
    """Vectorized flagged-candidate verification against the shared sweep.

    Flagged roots with a matching cut keep their candidate rows (one
    sorted-membership pass per task); everything else lands in the
    rejected lists, in ascending order.  Zero dicts.
    """
    is_root = _root_flags(labels)
    xor_flags = np.asarray(labels["xor"]) == 1
    maj_flags = np.asarray(labels["maj"]) == 1
    if root_filter:
        xor_flags &= is_root
        maj_flags &= is_root
    xor_candidates = np.flatnonzero(xor_flags)
    maj_candidates = np.flatnonzero(maj_flags)

    first_and = 1 + aig.num_inputs
    xor_is_and = xor_candidates >= first_and
    xor_verified = xor_is_and & in_sorted(xor_candidates,
                                          cands.xor_root_vars())
    rejected_xor = xor_candidates[~xor_verified].tolist()

    maj_is_and = maj_candidates >= first_and
    maj_verified = maj_is_and & in_sorted(maj_candidates,
                                          cands.maj_root_vars())
    # Half-adder carries are plain ANDs: legitimately MAJ-labeled (MAJ3
    # with constant input) but with no 3-leaf MAJ cut.  They participate
    # in pairing through the carry pool, so only equal-fanin ANDs (and
    # non-AND flags) count as mispredictions.
    fanin0, fanin1 = aig.fanin_arrays()
    same_fanin = ((fanin0[maj_candidates] >> 1)
                  == (fanin1[maj_candidates] >> 1))
    rejected_maj = maj_candidates[
        ~maj_is_and | (maj_is_and & ~maj_verified & same_fanin)
    ].tolist()

    filtered = cands.select_roots(xor_candidates[xor_verified],
                                  maj_candidates[maj_verified])
    return filtered, rejected_xor, rejected_maj


def predictions_to_detection(
    aig: AIG,
    labels: dict[str, np.ndarray],
    root_filter: bool = True,
    max_cuts: int = 10,
) -> tuple[XorMajDetection, list[int], list[int]]:
    """Turn predicted labels into a cut-verified :class:`XorMajDetection`.

    Sweeps only the flagged candidates' fan-in cones (bit-identical cuts
    there), so with sparse predictions the cost stays proportional to the
    flagged cones, not the whole graph.  Returns the detection and the
    lists of flagged-but-unverifiable nodes.
    """
    is_root = _root_flags(labels)
    flags = (np.asarray(labels["xor"]) == 1) | (np.asarray(labels["maj"]) == 1)
    if root_filter:
        flags &= is_root
    flagged = np.flatnonzero(flags)
    flagged = flagged[flagged > aig.num_inputs].tolist()
    cands = _sweep_candidates(aig, max_cuts, restrict_to=flagged)
    filtered, rejected_xor, rejected_maj = _verify_candidates(
        aig, cands, labels, root_filter,
    )
    return filtered.to_detection(), rejected_xor, rejected_maj


def correct_lsb_region(
    aig: AIG,
    labels: dict[str, np.ndarray],
    num_outputs: int = 4,
    max_cuts: int = 10,
    candidates: PairingCandidates | None = None,
) -> tuple[dict[str, np.ndarray], set[int]]:
    """Overwrite labels in the low-output cone with exact reasoning.

    The cone of the ``num_outputs`` least-significant outputs is small
    (O(width) nodes in a multiplier), so exact cut matching there is cheap.
    Returns patched copies of the label arrays and the patched variables.

    Array-native: the shared sweep's candidate rows (``candidates``, or a
    cone-restricted sweep when called standalone) are restricted to the
    cone, labels are patched with vectorized membership passes, and the
    local extraction pairs the restricted rows directly — no detection
    dicts.
    """
    roots = [lit_var(lit) for lit in aig.outputs[:num_outputs]]
    # Reverse-reach the cone as an array (already sorted); only AND
    # variables carry labels worth patching.
    cone_arr = aig.transitive_fanin_array(roots)
    cone_arr = cone_arr[cone_arr > aig.num_inputs]
    if not len(cone_arr):
        return labels, set()

    if candidates is None:
        # Standalone call: sweep only the LSB cone (cuts there are
        # identical to a whole-graph sweep) — this keeps the documented
        # "small cone, cheap repair" cost instead of touching every node.
        candidates = _sweep_candidates(aig, max_cuts, restrict_to=roots)
    patched = {task: np.array(arr, copy=True) for task, arr in labels.items()}
    patched["xor"][cone_arr] = in_sorted(cone_arr, candidates.xor_root_vars())
    patched["maj"][cone_arr] = in_sorted(cone_arr, candidates.maj_root_vars())

    # Re-derive boundary labels inside the cone from a local extraction
    # over the cone-restricted candidate rows.
    local_tree = pair_candidates(aig, candidates.restrict_roots(cone_arr))
    core = local_tree.arrays()
    patched["maj"][core.carry_var[core.kind == KIND_HA]] = 1
    in_roots = in_sorted(cone_arr, core.root_vars())
    in_leaves = in_sorted(cone_arr, core.leaf_vars())
    # OTHER=0, ROOT=1, LEAF=2, ROOT_LEAF=3: the class code is exactly
    # root + 2*leaf.
    patched["root"][cone_arr] = in_roots * TASK1_ROOT + in_leaves * TASK1_LEAF
    return patched, set(cone_arr.tolist())


def extract_from_predictions(
    aig: AIG,
    labels: dict[str, np.ndarray],
    root_filter: bool = False,
    correct_lsb: bool = True,
    lsb_outputs: int = 4,
    max_cuts: int = 10,
) -> PredictedExtraction:
    """Full post-processing pipeline: repair, verify, pair.

    Runs the vectorized cut sweep *once*, keeps the result as candidate
    arrays shared between LSB repair and flagged-candidate verification
    (one sorted-membership mask pass), and feeds the filtered rows straight
    to the array pairing core of :mod:`repro.reasoning.fast_pairing` — end
    to end, no :class:`~repro.reasoning.xor_maj.XorMajDetection` dict is
    ever built (``extraction.detection`` adapts lazily when asked for).
    """
    cands = _sweep_candidates(aig, max_cuts)
    corrected: set[int] = set()
    if correct_lsb:
        labels, corrected = correct_lsb_region(
            aig, labels, lsb_outputs, max_cuts, candidates=cands,
        )
    filtered, rejected_xor, rejected_maj = _verify_candidates(
        aig, cands, labels, root_filter,
    )
    return PredictedExtraction(
        tree=pair_candidates(aig, filtered),
        rejected_xor=rejected_xor,
        rejected_maj=rejected_maj,
        corrected_vars=corrected,
    )
