"""Level-wise adjacency search: remove every edge separated by a subset of
adjacent nodes, recording one minimal separating set per removed edge."""

from itertools import combinations

from .graphs import CIRCLE, MixedGraph
from .sepsets import SepsetMap


def separating_of_size(oracle, a, b, sides, size, tested):
    """The first mask of `size` bits that separates a and b, or None.

    Tries the combinations of each side's bits in turn, skipping masks
    already in `tested` and adding every queried mask to it, so a mask
    that two sides share is queried once. Each side lists its bits
    ascending; a side shorter than `size` yields no combination.
    """
    for side in sides:
        for zs in combinations(side, size):
            zmask = sum(zs)
            if zmask not in tested:
                tested.add(zmask)
                if oracle.query(a, b, zmask):
                    return zmask
    return None


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
            # each pair is visited once per level and only its own test
            # removes its edge
            for x, y in pairs:
                xbit, ybit = 1 << x, 1 << y
                sides = ([b for b in snapshot[x] if b != ybit],
                         [b for b in snapshot[y] if b != xbit])
                if len(sides[0]) < level and len(sides[1]) < level:
                    continue
                any_candidates = True
                zmask = separating_of_size(oracle, x, y, sides, level, set())
                if zmask is not None:
                    adj[x].discard(y)
                    adj[y].discard(x)
                    sepsets.set(x, y, zmask)
            if not any_candidates:
                break
            level += 1
            if k is not None and level > k:
                break
    edges = [(x, y, CIRCLE, CIRCLE)
             for x in range(n) for y in sorted(adj[x]) if x < y]
    return MixedGraph(n, edges, names=oracle.names), sepsets
