"""Correctness oracle: classic FCI with the reachability superset search.

It is exponential in the worst case; it exists to verify the
query-efficient pipeline, not to replace it.
"""

from collections import deque

from .graphs import ARROW
from .orientation import apply_fci_rules, orient_v_structures
from .pc import _bit_list, pc_adjacency_search, separating_of_size


def possible_dsep(g, a, b):
    """Nodes reachable from a along paths whose every intermediate vertex is
    a collider or sits in a triangle with its path neighbors.

    This is a guaranteed superset of the ancestral separating set that can
    always separate a nonadjacent pair. Computed by reachability over
    ordered adjacent-vertex pairs; excludes a and b. Returns an int mask.
    """
    reach = set()
    seen = set()
    queue = deque((a, w) for w in g.adj(a))
    while queue:
        u, v = queue.popleft()
        if (u, v) in seen:
            continue
        seen.add((u, v))
        reach.add(v)
        for w in g.adj(v):
            if w == u:
                continue
            collider = g.mark(v, u) == ARROW and g.mark(v, w) == ARROW
            triangle = g.has_edge(u, w)
            if collider or triangle:
                queue.append((v, w))
    return sum(1 << v for v in reach - {a, b})


def _pdsep_stage(pi0, sepsets, oracle):
    """Remove every edge separable by a subset of its reachability superset;
    subsets are tested sizes ascending, both endpoints' sets tried."""
    removed = []
    with oracle.stage("reference"):
        for a, b in pi0.edge_pairs():
            aside = _bit_list(possible_dsep(pi0, a, b))
            bside = _bit_list(possible_dsep(pi0, b, a))
            for size in range(max(len(aside), len(bside)) + 1):
                found = separating_of_size(oracle, a, b, aside, bside, size)
                if found is not None:
                    sepsets.set(a, b, found)
                    removed.append((a, b))
                    break
    return removed


def fci_reference(oracle, k=None):
    """Classic two-stage constraint-based search: adjacency search, collider
    orientation, exhaustive subset search over the reachability supersets,
    then re-orientation from scratch and the complete rule set.

    Returns (pag, skeleton, sepsets, edges_removed_per_stage).
    """
    n = oracle.n_vars
    skeleton, sepsets = pc_adjacency_search(oracle, k)
    stage_removals = {"pc_search": n * (n - 1) // 2 - skeleton.n_edges}
    removed = _pdsep_stage(orient_v_structures(skeleton, sepsets), sepsets,
                           oracle)
    for a, b in removed:
        skeleton.remove_edge(a, b)
    stage_removals["reference"] = len(removed)
    pag = apply_fci_rules(orient_v_structures(skeleton, sepsets), sepsets)
    return pag, skeleton, sepsets, stage_removals
