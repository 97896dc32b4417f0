"""The word-level report as a per-adder Python walk."""

from __future__ import annotations

from repro.aig.graph import AIG, lit_var
from repro.reasoning.adder_tree import AdderTree
from repro.reasoning.wordlevel import WordLevelReport


def analyze_adder_tree(aig: AIG, tree: AdderTree) -> WordLevelReport:
    """Oracle of :func:`repro.reasoning.wordlevel.analyze_adder_tree`,
    including its own dict-based link construction (the array path must
    beat *this*, not a half-vectorized hybrid)."""
    producer_of: dict[int, int] = {}
    for index, adder in enumerate(tree.adders):
        producer_of[adder.sum_var] = index
        producer_of[adder.carry_var] = index
    links: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for index, adder in enumerate(tree.adders):
        for leaf in adder.leaves:
            source = producer_of.get(leaf)
            if source is None or source == index:
                continue
            edge = (source, index)
            if edge not in seen:
                seen.add(edge)
                links.append(edge)
    num_adders = len(tree.adders)

    # Longest-path rank of each adder inside the DAG.
    incoming: dict[int, list[int]] = {i: [] for i in range(num_adders)}
    for src, dst in links:
        incoming[dst].append(src)
    rank = [0] * num_adders
    # adders listed in topological order already (extraction iterates
    # variables in topological order), but recompute defensively.
    changed = True
    while changed:
        changed = False
        for dst, sources in incoming.items():
            if sources:
                best = 1 + max(rank[s] for s in sources)
                if best > rank[dst]:
                    rank[dst] = best
                    changed = True

    ranks: list[list[int]] = []
    for index in range(num_adders):
        while len(ranks) <= rank[index]:
            ranks.append([])
        ranks[rank[index]].append(index)

    internal_outputs = {v for a in tree.adders
                        for v in (a.sum_var, a.carry_var)}
    pp_leaves: set[int] = set()
    pi_leaves: set[int] = set()
    for adder in tree.adders:
        for leaf in adder.leaves:
            if leaf in internal_outputs:
                continue
            if aig.is_input(leaf):
                pi_leaves.add(leaf)
            elif aig.is_and(leaf):
                pp_leaves.add(leaf)
    output_roots = {
        lit_var(lit) for lit in aig.outputs if lit_var(lit) in internal_outputs
    }
    return WordLevelReport(
        num_full_adders=sum(1 for a in tree.adders if a.kind == "FA"),
        num_half_adders=sum(1 for a in tree.adders if a.kind == "HA"),
        num_links=len(links),
        ranks=ranks,
        pp_leaves=pp_leaves,
        pi_leaves=pi_leaves,
        output_roots=output_roots,
    )
