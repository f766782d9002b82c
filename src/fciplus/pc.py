"""Level-wise adjacency search: remove every edge separated by a subset of
adjacent nodes, recording one minimal separating set per removed edge."""

from itertools import combinations

from .graphs import CIRCLE, MixedGraph
from .sepsets import SepsetMap


def pc_adjacency_search(oracle, k=None):
    """Adjacency search over the oracle's variables.

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
    n = oracle.n_vars
    adj = {x: set(range(n)) - {x} for x in range(n)}
    sepsets = SepsetMap()
    level = 0
    with oracle.stage("pc_search"):
        while True:
            # each neighbour as its bit, ascending, so that a combination
            # of them sums to its mask
            snapshot = {x: [1 << v for v in sorted(adj[x])] for x in range(n)}
            pairs = sorted((x, y) for x in range(n) for y in adj[x] if x < y)
            any_candidates = False
            for x, y in pairs:
                if y not in adj[x]:
                    continue
                xbit, ybit = 1 << x, 1 << y
                cand_x = [b for b in snapshot[x] if b != ybit]
                cand_y = [b for b in snapshot[y] if b != xbit]
                if len(cand_x) < level and len(cand_y) < level:
                    continue
                any_candidates = True
                tested = set()
                removed = False
                for side in (cand_x, cand_y):
                    if len(side) < level:
                        continue
                    for zs in combinations(side, level):
                        zmask = sum(zs)
                        if zmask in tested:
                            continue
                        tested.add(zmask)
                        if oracle.query(x, y, zmask):
                            adj[x].discard(y)
                            adj[y].discard(x)
                            sepsets.set(x, y, zmask)
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
             for x in range(n) for y in sorted(adj[x]) if x < y]
    return MixedGraph(n, edges, names=oracle.names), sepsets
