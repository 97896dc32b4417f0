"""Deterministic maximum bipartite matching (Kuhn's augmenting paths).

The FA pairing stage matches MAJ roots against XOR roots sharing a leaf
set.  A maximum matching is generally not unique, so *which* one an
algorithm returns depends on its traversal order — ``networkx``'s
Hopcroft–Karp, used here previously, walks adjacency in graph-insertion
order, which made the extracted :class:`~repro.reasoning.adder_tree.AdderTree`
a function of dict-insertion order inside the detection.  This module pins
the traversal completely: left vertices are processed in ascending order
and each adjacency list is sorted, so the matching — and everything
downstream of it — is a pure function of the edge *set*.  Both the
vectorized :mod:`~repro.reasoning.fast_pairing` engine and the per-root
pairing loop of the test oracle (``tests/oracles/``) resolve their
ambiguous components through this one implementation, which is what makes
them bit-identical.
"""

from __future__ import annotations

__all__ = ["maximum_bipartite_matching"]


def maximum_bipartite_matching(
    adjacency: dict[int, list[int]],
) -> dict[int, int]:
    """Maximum matching of a bipartite graph, deterministically.

    ``adjacency`` maps each left vertex to an iterable of right vertices.
    Kuhn's algorithm with a fixed order: left vertices ascending, neighbors
    ascending, depth-first augmentation.  The DFS is iterative — on
    adversarial graphs an augmenting path can touch every vertex, which
    would overflow Python's recursion limit.  Returns ``{left: right}``.
    """
    adj = {left: sorted(set(partners)) for left, partners in adjacency.items()}
    match_left: dict[int, int] = {}
    match_right: dict[int, int] = {}
    for root in sorted(adj):
        # Alternating-path DFS from ``root``.  ``parent`` records the left
        # vertex through which each right vertex was discovered and
        # ``came_from`` the right vertex whose current match led the DFS to
        # a left vertex, so a successful path can be flipped backwards.
        parent: dict[int, int] = {}
        came_from: dict[int, int | None] = {root: None}
        visited: set[int] = set()
        stack = [(root, iter(adj[root]))]
        free_right: int | None = None
        while stack and free_right is None:
            left, neighbors = stack[-1]
            advanced = False
            for right in neighbors:
                if right in visited:
                    continue
                visited.add(right)
                parent[right] = left
                owner = match_right.get(right)
                if owner is None:
                    free_right = right
                else:
                    came_from[owner] = right
                    stack.append((owner, iter(adj[owner])))
                advanced = True
                break
            if not advanced:
                stack.pop()
        if free_right is None:
            continue
        right: int | None = free_right
        while right is not None:
            left = parent[right]
            match_right[right] = left
            match_left[left] = right
            right = came_from[left]
    return match_left
