"""FA/HA pairing as a per-root loop over the detection dicts."""

from __future__ import annotations

from repro.aig.graph import AIG, lit_var
from repro.reasoning.adder_tree import AdderTree, ExtractedAdder
from repro.reasoning.matching import maximum_bipartite_matching
from repro.reasoning.xor_maj import XorMajDetection, ha_carry_candidates
from tests.oracles.xor_maj import detect_xor_maj


def cone_between(aig: AIG, root: int, leaves: set[int]) -> set[int]:
    """AND variables strictly inside the cone of ``root`` above ``leaves``."""
    inside: set[int] = set()
    stack = [root]
    while stack:
        var = stack.pop()
        if var in inside or var in leaves or not aig.is_and(var):
            continue
        inside.add(var)
        f0, f1 = aig.fanins(var)
        stack.append(lit_var(f0))
        stack.append(lit_var(f1))
    return inside


def _sorted_leaf_sets(leaf_sets: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Candidate leaf sets in canonical ``(size, leaves)`` order, so that
    pairing is a function of the candidate *set*, never of list order."""
    return sorted(leaf_sets, key=lambda leaves: (len(leaves), leaves))


def extract_adder_tree(aig: AIG, detection: XorMajDetection | None = None,
                       max_cuts: int = 10) -> AdderTree:
    """Oracle of :func:`repro.reasoning.adder_tree.extract_adder_tree`.

    Full adders are matched first (3-leaf XOR/MAJ pairs); the cone interior
    of each matched adder is consumed so its private XOR/AND sub-structures
    cannot be re-extracted as spurious half adders.
    """
    if detection is None:
        detection = detect_xor_maj(aig, max_cuts=max_cuts)

    xor_by_leaves: dict[tuple[int, ...], list[int]] = {}
    for var in sorted(detection.xor_roots):
        for leaves in _sorted_leaf_sets(detection.xor_roots[var]):
            xor_by_leaves.setdefault(leaves, []).append(var)

    tree = AdderTree(detection=detection)
    consumed = tree.consumed

    # --- Full adders: MAJ3 root + XOR3 root over the same leaves ---------
    # Maximum bipartite matching between MAJ and XOR roots sharing a leaf
    # set; the matcher's traversal order is pinned (ascending roots, sorted
    # adjacency), so the matching is independent of dict insertion order.
    pair_leaves: dict[tuple[int, int], tuple[int, ...]] = {}
    adjacency: dict[int, list[int]] = {}
    for maj_var in sorted(detection.maj_roots):
        for leaves in _sorted_leaf_sets(detection.maj_roots[maj_var]):
            if len(leaves) != 3:  # an FA slice is 3-leaf by definition
                continue
            for xor_var in xor_by_leaves.get(leaves, ()):
                if xor_var == maj_var:
                    continue
                pair_leaves.setdefault((maj_var, xor_var), leaves)
                adjacency.setdefault(maj_var, []).append(xor_var)
    matching = maximum_bipartite_matching(adjacency)
    for maj_var in sorted(adjacency):
        xor_var = matching.get(maj_var)
        if xor_var is None:
            continue
        if maj_var in consumed or xor_var in consumed:
            continue
        leaves = pair_leaves[(maj_var, xor_var)]
        leaf_set = set(leaves)
        interior = cone_between(aig, xor_var, leaf_set)
        interior |= cone_between(aig, maj_var, leaf_set)
        tree.adders.append(ExtractedAdder("FA", xor_var, maj_var, leaves))
        consumed |= interior
        consumed.add(xor_var)
        consumed.add(maj_var)

    # --- Half adders: XOR2 root + an AND over the same variable pair ------
    # The AND may have any fan-in polarities, but must not be one of the
    # XOR's own interior nodes, which share the same leaf pair.
    carry_pool = ha_carry_candidates(aig)
    for xor_var in sorted(detection.xor_roots):
        if xor_var in consumed:
            continue
        for leaves in _sorted_leaf_sets(detection.xor_roots[xor_var]):
            if len(leaves) != 2:
                continue
            pair = (leaves[0], leaves[1])
            leaf_set = set(leaves)
            interior = cone_between(aig, xor_var, leaf_set)
            carry_var = next(
                (
                    c
                    for c in carry_pool.get(pair, ())
                    if c not in consumed and c not in interior
                ),
                None,
            )
            if carry_var is None:
                continue
            tree.adders.append(ExtractedAdder("HA", xor_var, carry_var, pair))
            consumed |= interior
            consumed.add(xor_var)
            consumed.add(carry_var)
            break

    return tree
