"""Correctness oracles: classic FCI with the reachability superset search,
and a fully exhaustive skeleton search.

Both are exponential in the worst case; they exist to verify the
query-efficient pipeline, not to replace it.
"""

from collections import deque
from itertools import combinations

from .graphs import ARROW, CIRCLE, MixedGraph
from .orientation import apply_fci_rules, orient_v_structures
from .pc import _bit_list, pc_adjacency_search, separating_of_size
from .sepsets import SepsetMap


class CapExceededError(ValueError):
    """Brute force requested above the configured size cap."""


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


def _first_separating(oracle, a, b, aside, bside=()):
    """The first mask that separates a and b among the combinations of
    either side's bits, or None: separating_of_size over sizes ascending."""
    for size in range(max(len(aside), len(bside)) + 1):
        found = separating_of_size(oracle, a, b, aside, bside, size)
        if found is not None:
            return found
    return None


def exhaustive_skeleton(oracle, cap=14):
    """Ground-truth skeleton: a pair is adjacent iff no subset of the other
    observed variables separates it. Tests all subsets per pair, sizes
    ascending, so stored sets are minimal. Refuses above the cap."""
    n = oracle.n_vars
    if n > cap:
        raise CapExceededError(
            "exhaustive search over %d variables exceeds the cap %d" % (n, cap))
    sepsets = SepsetMap()
    edges = []
    with oracle.stage("reference"):
        for x, y in combinations(range(n), 2):
            rest = [1 << v for v in range(n) if v != x and v != y]
            found = _first_separating(oracle, x, y, rest)
            if found is not None:
                sepsets.set(x, y, found)
            else:
                edges.append((x, y, CIRCLE, CIRCLE))
    return MixedGraph(n, edges, names=oracle.names), sepsets


def _pdsep_stage(pi0, sepsets, oracle):
    """Remove every edge separable by a subset of its reachability superset;
    subsets are tested sizes ascending, both endpoints' sets tried."""
    removed = []
    with oracle.stage("reference"):
        for a, b in pi0.edge_pairs():
            found = _first_separating(oracle, a, b,
                                      _bit_list(possible_dsep(pi0, a, b)),
                                      _bit_list(possible_dsep(pi0, b, a)))
            if found is not None:
                sepsets.set(a, b, found)
                removed.append((a, b))
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
