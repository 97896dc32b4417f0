"""Exact functional detection of XOR/MAJ roots via cut enumeration.

This is the reproduction's equivalent of the conventional reasoning flow the
paper compares against (ABC's algebraic-rewriting adder extraction, Yu et
al. TCAD'17): enumerate k-feasible cuts, compute each cut's function, and
flag roots whose cut function is NPN-equivalent to XOR2/XOR3 or MAJ3.  It is
exact but slow — which is precisely its role as the Fig. 7 baseline — and it
is the source of ground-truth labels for training and accuracy evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

from repro.aig.graph import AIG

__all__ = ["XorMajDetection", "detect_xor_maj", "ha_carry_candidates"]

LeafSets = dict[int, list[tuple[int, ...]]]


@dataclass
class XorMajDetection:
    """XOR/MAJ root detection result.

    ``xor_roots`` / ``maj_roots`` map a root variable to the list of leaf
    tuples (cuts) under which its function is NPN-XOR / NPN-MAJ.

    ``constructions`` counts every instance ever built (process-wide).
    The serving path is required to stay dict-free — post-processing
    keeps candidates in array form end to end and only adapts to this
    class lazily — and the counter is what the tests assert that with.
    """

    xor_roots: LeafSets = field(default_factory=dict)
    maj_roots: LeafSets = field(default_factory=dict)

    constructions: ClassVar[int] = 0

    def __post_init__(self) -> None:
        XorMajDetection.constructions += 1

    @property
    def num_xor(self) -> int:
        return len(self.xor_roots)

    @property
    def num_maj(self) -> int:
        return len(self.maj_roots)

    def is_xor(self, var: int) -> bool:
        return var in self.xor_roots

    def is_maj(self, var: int) -> bool:
        return var in self.maj_roots


def detect_xor_maj(aig: AIG, max_cuts: int = 10) -> XorMajDetection:
    """Detect all XOR2/XOR3 and MAJ3 roots by exact cut-function matching.

    Every AND node's 2- and 3-feasible cuts are checked against the NPN
    classes of XOR and MAJ.  Negation-permutation-negation equivalents count
    (paper Sec. III-B2), so complemented roots (XNOR, minority) and
    complemented leaves are all detected.  The cuts come from one
    vectorized array sweep (:mod:`repro.aig.fast_cuts`).
    """
    from repro.aig.fast_cuts import enumerate_cuts_arrays, matched_leaf_sets

    xor_sets, maj_sets = matched_leaf_sets(
        enumerate_cuts_arrays(aig, k=3, max_cuts=max_cuts)
    )
    return XorMajDetection(xor_roots=xor_sets, maj_roots=maj_sets)


def ha_carry_candidates(aig: AIG) -> dict[tuple[int, int], list[int]]:
    """AND nodes keyed by their fan-in variable pair: half-adder carry pool.

    The carry of a half adder over operand *literals* ``(l0, l1)`` is the
    AND ``l0·l1`` — and because slice operands may arrive complemented
    (boundary ``a+b+1`` folds produce inverted sums), the carry AND can
    carry any fan-in polarity combination.  All of them satisfy the
    algebraic half-adder identity ``sum + 2·carry = l0 + l1`` for suitable
    literals, so every two-distinct-variable AND is a candidate; the
    extractor filters out the ones interior to the paired XOR structure.

    The pool is pure graph structure, so it is built once per AIG and
    cached there (:meth:`~repro.aig.graph.AIG.and_pair_index`, invalidated
    on node append) — callers that loop over prediction batches no longer
    rebuild the full AND-pair mapping on every extraction.  Treat the
    returned mapping as read-only; candidate lists are ascending.
    """
    return aig.and_pair_index()
