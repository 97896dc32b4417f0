"""Exact XOR/MAJ detection over Cut objects, one node at a time."""

from __future__ import annotations

from repro.aig.cuts import enumerate_cuts
from repro.aig.graph import AIG
from repro.aig.npn import is_maj_truth, is_xor_truth
from repro.reasoning.xor_maj import XorMajDetection


def classify_cuts(cuts) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Leaf tuples of the XOR2/XOR3 cuts and of the MAJ3 cuts, in list order."""
    xor_sets: list[tuple[int, ...]] = []
    maj_sets: list[tuple[int, ...]] = []
    for cut in cuts:
        if cut.size == 2 and is_xor_truth(cut.truth, 2):
            xor_sets.append(cut.leaves)
        elif cut.size == 3:
            if is_xor_truth(cut.truth, 3):
                xor_sets.append(cut.leaves)
            elif is_maj_truth(cut.truth, 3):
                maj_sets.append(cut.leaves)
    return xor_sets, maj_sets


def detect_xor_maj(aig: AIG, max_cuts: int = 10) -> XorMajDetection:
    """Oracle of :func:`repro.reasoning.xor_maj.detect_xor_maj`."""
    detection = XorMajDetection()
    all_cuts = enumerate_cuts(aig, k=3, max_cuts=max_cuts)
    for var in aig.and_vars():
        xor_cuts, maj_cuts = classify_cuts(all_cuts[var])
        if xor_cuts:
            detection.xor_roots[var] = xor_cuts
        if maj_cuts:
            detection.maj_roots[var] = maj_cuts
    return detection
