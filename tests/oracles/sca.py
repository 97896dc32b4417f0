"""SCA polarity resolution one adder at a time."""

from __future__ import annotations

from unittest import mock

from repro.aig.graph import AIG
from repro.aig.npn import MAJ3, XOR2, XOR3, apply_transform
from repro.reasoning.adder_tree import AdderTree
from repro.techmap.mapper import _truth_over_leaves
from repro.verify import sca
from repro.verify.sca import SCAResult, _AdderRelation


def resolve_relation(aig: AIG, adder) -> _AdderRelation | None:
    """Find flips so that ``(sum ^ sf) + 2·(carry ^ cf) = Σ (leaf ^ f_i)``.

    Mirrors the mapper's polarity resolution; an unresolvable pair (pruned
    cuts) falls back to plain gate-level rewriting for those roots.
    """
    arity = len(adder.leaves)
    sum_truth = _truth_over_leaves(aig, adder.sum_var, adder.leaves)
    carry_truth = _truth_over_leaves(aig, adder.carry_var, adder.leaves)
    if sum_truth is None or carry_truth is None:
        return None
    xor_ref = XOR3 if arity == 3 else XOR2
    carry_ref = MAJ3 if arity == 3 else 0b1000
    identity = tuple(range(arity))
    full = (1 << (1 << arity)) - 1
    for flip_bits in range(1 << arity):
        flips = tuple((flip_bits >> j) & 1 for j in range(arity))
        carry_cell = apply_transform(carry_ref, arity, identity, flips, 0)
        if carry_cell == carry_truth:
            carry_flip = 0
        elif (carry_cell ^ full) == carry_truth:
            carry_flip = 1
        else:
            continue
        xor_cell = apply_transform(xor_ref, arity, identity, flips, 0)
        if xor_cell == sum_truth:
            sum_flip = 0
        elif (xor_cell ^ full) == sum_truth:
            sum_flip = 1
        else:
            continue
        return _AdderRelation(
            adder.sum_var, adder.carry_var, adder.leaves, flips, sum_flip, carry_flip
        )
    return None


def resolve_relations(aig: AIG, tree: AdderTree) -> dict[int, _AdderRelation]:
    """Every adder's relation, first relation per sum root wins."""
    relations: dict[int, _AdderRelation] = {}
    for adder in tree.adders:
        relation = resolve_relation(aig, adder)
        if relation is not None and relation.sum_var not in relations:
            relations[relation.sum_var] = relation
    return relations


def verify_multiplier(circuit, mode: str = "adder",
                      tree: AdderTree | None = None,
                      max_terms: int = 500_000) -> SCAResult:
    """:func:`repro.verify.sca.verify_multiplier` with the relations
    resolved by :func:`resolve_relations` instead of the batched sweep."""
    with mock.patch.object(sca, "_resolve_relations", resolve_relations):
        return sca.verify_multiplier(circuit, mode=mode, tree=tree,
                                     max_terms=max_terms)
