"""Post-processing with per-node verification over local cut cones.

Each flagged node re-derives its cuts from a depth-bounded local cone
(:func:`repro.aig.cuts.node_cuts`) instead of reading one whole-graph
sweep, and pairing runs the per-root loop of
:func:`tests.oracles.extract_adder_tree`.  On depth-limit boundary cases a
local cone can truncate cut lists differently from the global sweep; real
adder structures span few levels, so extractions agree in practice, which
is what the differential suites assert.
"""

from __future__ import annotations

import numpy as np

from repro.aig.cuts import node_cuts
from repro.aig.graph import AIG, lit_var
from repro.core.postprocess import PredictedExtraction
from repro.reasoning.adder_tree import (
    TASK1_LEAF,
    TASK1_OTHER,
    TASK1_ROOT,
    TASK1_ROOT_LEAF,
)
from repro.reasoning.xor_maj import XorMajDetection
from tests.oracles.adder_tree import extract_adder_tree
from tests.oracles.xor_maj import classify_cuts


def _node_sets(aig: AIG, var: int, max_cuts: int):
    """``(xor_sets, maj_sets)`` of one node's local cuts."""
    return classify_cuts(node_cuts(aig, var, k=3, max_cuts=max_cuts))


def predictions_to_detection(
    aig: AIG,
    labels: dict[str, np.ndarray],
    root_filter: bool = True,
    max_cuts: int = 10,
) -> tuple[XorMajDetection, list[int], list[int]]:
    """Turn predicted labels into a cut-verified :class:`XorMajDetection`.

    Each flagged node is verified against its own local cuts.  Returns the
    detection and the lists of flagged-but-unverifiable nodes.
    """
    root = np.asarray(labels["root"])
    is_root = (root == TASK1_ROOT) | (root == TASK1_ROOT_LEAF)
    xor_flags = np.asarray(labels["xor"]) == 1
    maj_flags = np.asarray(labels["maj"]) == 1
    if root_filter:
        xor_flags &= is_root
        maj_flags &= is_root

    detection = XorMajDetection()
    rejected_xor: list[int] = []
    rejected_maj: list[int] = []
    for var in np.flatnonzero(xor_flags).tolist():
        leaf_sets = _node_sets(aig, var, max_cuts)[0] if aig.is_and(var) else []
        if leaf_sets:
            detection.xor_roots[var] = leaf_sets
        else:
            rejected_xor.append(var)
    for var in np.flatnonzero(maj_flags).tolist():
        if not aig.is_and(var):
            rejected_maj.append(var)
            continue
        leaf_sets = _node_sets(aig, var, max_cuts)[1]
        if leaf_sets:
            detection.maj_roots[var] = leaf_sets
        else:
            # Half-adder carries are plain ANDs: legitimately MAJ-labeled
            # (MAJ3 with constant input) but with no 3-leaf MAJ cut.  They
            # participate in pairing through the carry pool, not here.
            f0, f1 = aig.fanins(var)
            if lit_var(f0) == lit_var(f1):
                rejected_maj.append(var)
    return detection, rejected_xor, rejected_maj


def correct_lsb_region(
    aig: AIG,
    labels: dict[str, np.ndarray],
    num_outputs: int = 4,
    max_cuts: int = 10,
) -> tuple[dict[str, np.ndarray], set[int]]:
    """Oracle of :func:`repro.core.postprocess.correct_lsb_region`."""
    roots = [lit_var(lit) for lit in aig.outputs[:num_outputs]]
    cone = {var for var in aig.transitive_fanin(roots) if aig.is_and(var)}
    if not cone:
        return labels, set()

    detection = XorMajDetection()
    for var in sorted(cone):
        xor_sets, maj_sets = _node_sets(aig, var, max_cuts)
        if xor_sets:
            detection.xor_roots[var] = xor_sets
        if maj_sets:
            detection.maj_roots[var] = maj_sets

    patched = {task: np.array(arr, copy=True) for task, arr in labels.items()}
    for var in cone:
        patched["xor"][var] = 1 if var in detection.xor_roots else 0
        patched["maj"][var] = 1 if var in detection.maj_roots else 0

    # Re-derive boundary labels inside the cone from a local extraction.
    local_tree = extract_adder_tree(aig, detection)
    local_roots = local_tree.root_vars()
    local_leaves = local_tree.leaf_vars()
    for adder in local_tree.adders:
        if adder.kind == "HA":
            patched["maj"][adder.carry_var] = 1
    for var in cone:
        if var in local_roots and var in local_leaves:
            patched["root"][var] = TASK1_ROOT_LEAF
        elif var in local_roots:
            patched["root"][var] = TASK1_ROOT
        elif var in local_leaves:
            patched["root"][var] = TASK1_LEAF
        else:
            patched["root"][var] = TASK1_OTHER
    return patched, cone


def extract_from_predictions(
    aig: AIG,
    labels: dict[str, np.ndarray],
    root_filter: bool = False,
    correct_lsb: bool = True,
    lsb_outputs: int = 4,
    max_cuts: int = 10,
) -> PredictedExtraction:
    """Oracle of :func:`repro.core.postprocess.extract_from_predictions`."""
    corrected: set[int] = set()
    if correct_lsb:
        labels, corrected = correct_lsb_region(aig, labels, lsb_outputs,
                                               max_cuts)
    detection, rejected_xor, rejected_maj = predictions_to_detection(
        aig, labels, root_filter=root_filter, max_cuts=max_cuts,
    )
    tree = extract_adder_tree(aig, detection)
    return PredictedExtraction(
        tree=tree,
        detection=detection,
        rejected_xor=rejected_xor,
        rejected_maj=rejected_maj,
        corrected_vars=corrected,
    )
