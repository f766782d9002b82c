"""Level-wise adjacency search: remove every edge separated by a subset of
adjacent nodes, recording one minimal separating set per removed edge."""

from itertools import combinations

from .graphs import CIRCLE, MixedGraph, _bits
from .sepsets import SepsetMap


def separating_of_size(oracle, x, y, xside, yside, size):
    """The first mask of `size` bits that separates x and y, or None.

    xside and yside list bits in the order to try; xside may hold y's bit
    and yside x's bit. Tries the combinations of xside that leave out y,
    then those of yside that leave out x and do not lie inside xside's
    mask: those were asked on the x side already, so no mask is asked
    twice. A side shorter than `size` yields no combination. The sides
    hold bits of the oracle's ids, so their sums go to the oracle's trusted
    `ask`.
    """
    ask = oracle.ask
    xbit, ybit = 1 << x, 1 << y
    # a 1-subset's mask is its one bit; map sums the others' bits in C
    for zmask in xside if size == 1 else map(sum, combinations(xside, size)):
        if not zmask & ybit and ask(x, y, zmask):
            return zmask
    outside = ~sum(xside)
    for zmask in yside if size == 1 else map(sum, combinations(yside, size)):
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


def _move_known(side, old, first):
    """Reorder side, a list of bits that holds those of old first and then
    the others, each group ascending, in place so that it holds those of
    first first (old is a subset of first): each new bit, taken ascending,
    moves to its place in the leading group."""
    new = first & ~old
    while new:
        low = new & -new
        new ^= low
        side.remove(low)
        side.insert((first & (low - 1)).bit_count(), low)


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
    neighbours and tests the pairs x < y of the snapshot in lexicographic
    order with separating_of_size, those where either side holds more than
    l bits (each holds the other endpoint); each pair is visited once per
    level and only its own test removes its edge.

    Known separators first: known[v] holds the members of every set stored
    so far for a pair that contains v, and v's side lists the snapshot's
    bits in known[v] first, then the others, each group ascending. A side's
    list is built when its node is first tested at a level and updated in
    place when a new known member lands in it. The order is free:
    - the skeleton and the stored pairs do not depend on it, for any
      oracle: PC-stable removes {x, y} at level l exactly when some
      l-subset of a snapshot side separates the pair (Colombo & Maathuis
      2014);
    - every stored set is still minimal: a separating proper subset lies
      in the previous level's side, which holds this level's, so the edge
      would be gone already;
    - the exact-oracle PAG does not depend on it: the collider step and R4
      read only whether a node lies in the stored set, and under a
      faithful oracle that answer is the same for every separating set of
      the pair (Ramsey, Zhang & Spirtes 2006).
    Level 0 stores empty sets, so the first pairs of level 1 keep the
    ascending order.

    Returns (skeleton, sepsets): the skeleton carries CIRCLE marks at every
    endpoint, and sepsets holds one minimal separating set per removed pair.
    """
    n = oracle.n_vars
    adj = [((1 << n) - 1) ^ 1 << x for x in range(n)]
    known = [0] * n
    sepsets = SepsetMap()

    with oracle.stage("pc_search"):
        for x in range(n):
            for y in range(x + 1, n):
                if oracle.ask(x, y, 0):
                    adj[x] ^= 1 << y
                    adj[y] ^= 1 << x
                    sepsets.set(x, y, 0)
        level = 1
        while k is None or level <= k:
            snapshot = adj[:]
            big = sum(1 << v for v in range(n)
                      if snapshot[v].bit_count() > level)
            if not big:
                break
            # each side's list, built when first needed at this level, and
            # the known part it leads with
            sides, firsts = [None] * n, [0] * n

            def side(v):
                if sides[v] is None:
                    sides[v] = _bit_list(snapshot[v])
                first = known[v] & snapshot[v]
                if firsts[v] != first:
                    _move_known(sides[v], firsts[v], first)
                    firsts[v] = first
                return sides[v]

            for x in range(n):
                xmask, xbit = snapshot[x], 1 << x
                later = xmask if big & xbit else xmask & big
                later = later >> x + 1 << x + 1
                while later:
                    ybit = later & -later
                    later ^= ybit
                    y = ybit.bit_length() - 1
                    zmask = separating_of_size(oracle, x, y, side(x), side(y),
                                               level)
                    if zmask is not None:
                        adj[x] ^= ybit
                        adj[y] ^= xbit
                        known[x] |= zmask
                        known[y] |= zmask
                        sepsets.set(x, y, zmask)
            level += 1
    nbrs = [_bits(m) for m in adj]
    marks = {(x, y): CIRCLE for x in range(n) for y in nbrs[x]}
    return MixedGraph._unchecked(n, oracle.names, marks, nbrs), sepsets
