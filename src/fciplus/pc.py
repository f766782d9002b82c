"""Level-wise adjacency search: remove every edge separated by a subset of
adjacent nodes, recording one minimal separating set per removed edge."""

from itertools import combinations

from .graphs import CIRCLE, MixedGraph, _bits
from .sepsets import SepsetMap


def separating_of_size(oracle, x, y, xside, yside, size):
    """The first mask of `size` bits that separates x and y, or None.

    xside and yside list bits ascending; xside may hold y's bit and yside
    x's bit. Tries the combinations of xside that leave out y, then those
    of yside that leave out x and do not lie inside xside's mask: those
    were asked on the x side already, so no mask is asked twice. A side
    shorter than `size` yields no combination. The sides hold bits of the
    oracle's ids, so their sums go to the oracle's trusted `ask`.
    """
    ask = oracle.ask
    xbit, ybit = 1 << x, 1 << y
    for zs in combinations(xside, size):
        zmask = sum(zs)
        if not zmask & ybit and ask(x, y, zmask):
            return zmask
    outside = ~sum(xside)
    for zs in combinations(yside, size):
        zmask = sum(zs)
        if zmask & outside and not zmask & xbit and ask(x, y, zmask):
            return zmask
    return None


def _bit_list(mask):
    """The set bits of an int mask as ascending powers of two, so that a
    combination of them sums to its mask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low)
        mask ^= low
    return out


def pc_adjacency_search(oracle, k=None):
    """Adjacency search over the oracle's variables.

    Starts from the complete graph and, at each level l = 0, 1, ..., tests
    every remaining edge {x, y} against conditioning sets of size l drawn
    from Adj(x) \\ {y} and from Adj(y) \\ {x} (both sides; a subset of
    both is asked once, on the x side). Adjacency snapshots are taken per
    level (order-independent "stable" variant). Stops when no edge has
    enough neighbors on either side, or after level k when a degree bound
    k is supplied.

    Adjacency is one int mask per node. Level 0 asks each pair once against
    the empty set. From level 1 on, each level snapshots every node's
    neighbours as one bit list and tests the pairs x < y of the snapshot in
    lexicographic order with separating_of_size; each pair is visited once
    per level and only its own test removes its edge.

    Returns (skeleton, sepsets): the skeleton carries CIRCLE marks at every
    endpoint, and sepsets holds one minimal separating set per removed pair.
    """
    n = oracle.n_vars
    adj = [((1 << n) - 1) ^ 1 << x for x in range(n)]
    sepsets = SepsetMap()

    def remove(x, y, zmask):
        adj[x] ^= 1 << y
        adj[y] ^= 1 << x
        sepsets.set(x, y, zmask)

    with oracle.stage("pc_search"):
        for x in range(n):
            for y in range(x + 1, n):
                if oracle.ask(x, y, 0):
                    remove(x, y, 0)
        level = 1
        while k is None or level <= k:
            snapshot = [_bit_list(m) for m in adj]
            any_candidates = False
            for x in range(n):
                xbit, xside = 1 << x, snapshot[x]
                for ybit in xside:
                    if ybit < xbit:
                        continue
                    y = ybit.bit_length() - 1
                    yside = snapshot[y]
                    # each side holds the other endpoint's bit
                    if len(xside) <= level and len(yside) <= level:
                        continue
                    any_candidates = True
                    zmask = separating_of_size(oracle, x, y, xside, yside,
                                               level)
                    if zmask is not None:
                        remove(x, y, zmask)
            if not any_candidates:
                break
            level += 1
    nbrs = [_bits(m) for m in adj]
    marks = {(x, y): CIRCLE for x in range(n) for y in nbrs[x]}
    return MixedGraph._unchecked(n, oracle.names, marks, nbrs), sepsets
