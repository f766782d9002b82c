"""Storage for one minimal separating set per eliminated pair, and the
hierarchy closure (`hie`) over the stored sets."""


class SepsetMap:
    """Partial map from unordered pairs {x, y} to a stored separating set,
    an int mask over the variable ids (bit v for variable v).

    The invariant maintained by the callers: an entry exists iff the pair
    is nonadjacent in the current working graph, and the stored set
    separates the pair minimally.

    `hie` reads a grouped index of the nonempty stored sets (`groups`). It
    is built on the first closure and kept current by later `set` calls, so
    a map that is never closed over, such as the adjacency search's, keeps
    no index. A copy starts without one.
    """

    def __init__(self):
        self._partners = {}   # node -> {partner: stored set}, both ends
        self._groups = None   # see groups(); None until first asked for

    @staticmethod
    def _check(x, y):
        if x == y:
            raise ValueError("sepset pairs must have distinct endpoints")

    def set(self, x, y, zmask):
        self._check(x, y)
        xs = self._partners.setdefault(x, {})
        old = xs.get(y)
        xs[y] = zmask
        self._partners.setdefault(y, {})[x] = zmask
        if self._groups is not None:
            for a, b in ((x, y), (y, x)):
                sets = self._groups.setdefault(a, {})
                if old:
                    left = sets[old] & ~(1 << b)
                    if left:
                        sets[old] = left
                    else:
                        del sets[old]
                if zmask:
                    sets[zmask] = sets.get(zmask, 0) | 1 << b

    def get(self, x, y):
        """The stored separating set, or None if the pair has no entry (the
        empty set is the mask 0, so test the result with `is None`)."""
        self._check(x, y)
        return self._partners.get(x, {}).get(y)

    def groups(self):
        """The index `hie` reads: node -> {nonempty stored set: mask of the
        partners that stored it with the node}. Empty sets add nothing to a
        closure and are left out. Built on the first call and kept current
        by `set` from then on."""
        if self._groups is None:
            self._groups = {}
            for a, sets in self._partners.items():
                grouped = {}
                for b, zs in sets.items():
                    if zs:
                        grouped[zs] = grouped.get(zs, 0) | 1 << b
                self._groups[a] = grouped
        return self._groups

    def items(self):
        """List of ((x, y), set) tuples, x < y, in storage order, which is
        deterministic but not sorted: x runs over the nodes in the order
        they first entered a pair, y over x's partners in the order they
        were stored."""
        return [((x, y), zs) for x, sets in self._partners.items()
                for y, zs in sets.items() if x < y]

    def copy(self):
        """An independent map with the same entries and no index."""
        out = SepsetMap()
        out._partners = {v: dict(p) for v, p in self._partners.items()}
        return out

    def __len__(self):
        return sum(len(p) for p in self._partners.values()) // 2

    def __repr__(self):
        return "SepsetMap(%d pairs)" % len(self)


def hie(seed, sepsets, closed=0):
    """Least fixpoint closure of the int mask seed | closed under the
    stored separating sets of sepsets, as a mask.

    Adds the members of every stored set whose pair lies inside the
    closure, until stable. Each node entering the closure is visited once
    and reads its groups in `SepsetMap.groups`: a group's set is added as
    soon as one of the partners that stored it is inside, so a pair is
    closed over when its second endpoint arrives, and partners that stored
    the same set cost one test. closed, when given, must already be closed
    (a result of hie under the same stored sets): its nodes' pairs are
    closed over, so only the seed nodes outside it and what they pull in
    are visited.
    """
    groups = sepsets.groups()
    closure = closed | seed
    work = seed & ~closed
    while work:
        a = work.bit_length() - 1
        work ^= 1 << a
        sets = groups.get(a)
        if sets:
            for zs, partners in sets.items():
                if partners & closure:
                    work |= zs & ~closure
                    closure |= zs
    return closure
