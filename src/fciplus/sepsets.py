"""Storage for one minimal separating set per eliminated pair."""


class SepsetMap:
    """Partial map from unordered pairs {x, y} to a stored separating set.

    The invariant maintained by the callers: an entry exists iff the pair
    is nonadjacent in the current working graph, and the stored set
    separates the pair minimally.
    """

    def __init__(self):
        self._sets = {}
        self._partners = {}   # node -> {partner: stored set}

    @staticmethod
    def _key(x, y):
        if x == y:
            raise ValueError("sepset pairs must have distinct endpoints")
        return (x, y) if x < y else (y, x)

    def set(self, x, y, zs):
        zs = frozenset(zs)
        self._sets[self._key(x, y)] = zs
        self._partners.setdefault(x, {})[y] = zs
        self._partners.setdefault(y, {})[x] = zs

    def get(self, x, y):
        """The stored separating set, or None if the pair has no entry."""
        return self._sets.get(self._key(x, y))

    def partners(self, v):
        """{w: stored set of the pair {v, w}} over the pairs containing v."""
        return self._partners.get(v, {})

    def pairs(self):
        return sorted(self._sets)

    def items(self):
        """Sorted (pair, set) tuples."""
        return sorted(self._sets.items())

    def copy(self):
        out = SepsetMap()
        out._sets = dict(self._sets)
        out._partners = {v: dict(p) for v, p in self._partners.items()}
        return out

    def __len__(self):
        return len(self._sets)

    def __contains__(self, pair):
        return self._key(*pair) in self._sets

    def __repr__(self):
        return "SepsetMap(%d pairs)" % len(self._sets)
