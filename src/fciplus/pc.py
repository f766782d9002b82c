"""Level-wise adjacency search: remove every edge separated by a subset of
adjacent nodes, recording one minimal separating set per removed edge."""

from itertools import combinations

from .graphs import CIRCLE, MixedGraph
from .sepsets import SepsetMap


def pc_adjacency_search(oracle, n_vars=None, k=None):
    """Adjacency search over n_vars variables against an oracle.

    Starts from the complete graph and, at each level l = 0, 1, ..., tests
    every remaining edge {x, y} against conditioning sets of size l drawn
    from Adj(x) \\ {y} and from Adj(y) \\ {x} (both sides; subsets already
    tested for the pair at this level are not retested). Adjacency snapshots
    are taken per level (order-independent "stable" variant). Stops when no
    edge has enough neighbors on either side, or after level k when a degree
    bound k is supplied.

    Returns (skeleton, sepsets): the skeleton carries CIRCLE marks at every
    endpoint, and sepsets holds one minimal separating set per removed pair.
    """
    if n_vars is None:
        n_vars = oracle.n_vars
    adj = {x: set(range(n_vars)) - {x} for x in range(n_vars)}
    sepsets = SepsetMap()
    level = 0
    with oracle.stage("pc_search"):
        while True:
            snapshot = {x: sorted(adj[x]) for x in range(n_vars)}
            pairs = sorted((x, y) for x in range(n_vars) for y in adj[x] if x < y)
            any_candidates = False
            for x, y in pairs:
                if y not in adj[x]:
                    continue
                cand_x = [v for v in snapshot[x] if v != y]
                cand_y = [v for v in snapshot[y] if v != x]
                if len(cand_x) < level and len(cand_y) < level:
                    continue
                any_candidates = True
                tested = set()
                removed = False
                for side in (cand_x, cand_y):
                    if len(side) < level:
                        continue
                    for zs in combinations(side, level):
                        fz = frozenset(zs)
                        if fz in tested:
                            continue
                        tested.add(fz)
                        if oracle.query(x, y, fz):
                            adj[x].discard(y)
                            adj[y].discard(x)
                            sepsets.set(x, y, fz)
                            removed = True
                            break
                    if removed:
                        break
            if not any_candidates:
                break
            level += 1
            if k is not None and level > k:
                break
    edges = [(x, y, CIRCLE, CIRCLE)
             for x in range(n_vars) for y in sorted(adj[x]) if x < y]
    names = oracle.names if oracle.names is not None else None
    return MixedGraph(n_vars, edges, names=names), sepsets
