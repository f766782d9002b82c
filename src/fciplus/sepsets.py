"""Storage for one minimal separating set per eliminated pair, and the
hierarchy closure (`hie`) over the stored sets."""


def _pair(x, y):
    """The key of the unordered pair {x, y}: (x, y) with x < y."""
    if x == y:
        raise ValueError("sepset pairs must have distinct endpoints")
    return (x, y) if x < y else (y, x)


class SepsetMap:
    """Partial map from unordered pairs {x, y} to a stored separating set,
    an int mask over the variable ids (bit v for variable v). Each pair is
    kept once, under the key (x, y) with x < y.

    The invariant maintained by the callers: an entry exists iff the pair
    is nonadjacent in the current working graph, and the stored set
    separates the pair minimally.

    `hie` reads a grouped index of the nonempty stored sets (`groups`). It
    is built on the first closure and kept current by later `set` calls, so
    a map that is never closed over, such as the adjacency search's, keeps
    no index. A copy starts without one.
    """

    def __init__(self):
        self._pairs = {}      # (x, y), x < y -> stored set
        self._groups = None   # see groups(); None until first asked for

    def set(self, x, y, zmask):
        key = _pair(x, y)
        old = self._pairs.get(key)
        self._pairs[key] = zmask
        if self._groups is not None:
            self._group(x, y, old, zmask)

    def _group(self, x, y, old, zmask):
        """Move the pair {x, y} in the index from its group of the set old
        (None or 0 for none) to that of zmask."""
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
        return self._pairs.get(_pair(x, y))

    def groups(self):
        """The index `hie` reads: node -> {nonempty stored set: mask of the
        partners that stored it with the node}, with an entry for every
        node of a stored pair. Empty sets add nothing to a closure and are
        left out. Built on the first call and kept current by `set` from
        then on."""
        if self._groups is None:
            self._groups = {}
            for (x, y), zs in self._pairs.items():
                self._group(x, y, None, zs)
        return self._groups

    def items(self):
        """List of ((x, y), set) tuples, x < y, in the order the pairs were
        first stored (an overwrite keeps its pair's place)."""
        return list(self._pairs.items())

    def copy(self):
        """An independent map with the same entries and no index."""
        out = SepsetMap()
        out._pairs = dict(self._pairs)
        return out

    def __len__(self):
        return len(self._pairs)

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
