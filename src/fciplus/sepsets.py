"""Storage for one minimal separating set per eliminated pair, and the
hierarchy closure (`hie`) over the stored sets."""


class SepsetMap:
    """Partial map from unordered pairs {x, y} to a stored separating set,
    an int mask over the variable ids (bit v for variable v).

    The invariant maintained by the callers: an entry exists iff the pair
    is nonadjacent in the current working graph, and the stored set
    separates the pair minimally.
    """

    def __init__(self):
        self._partners = {}   # node -> {partner: stored set}, both ends
        self._partner_mask = {}   # node -> mask of its stored partners

    @staticmethod
    def _check(x, y):
        if x == y:
            raise ValueError("sepset pairs must have distinct endpoints")

    def set(self, x, y, zmask):
        self._check(x, y)
        self._partners.setdefault(x, {})[y] = zmask
        self._partners.setdefault(y, {})[x] = zmask
        self._partner_mask[x] = self._partner_mask.get(x, 0) | 1 << y
        self._partner_mask[y] = self._partner_mask.get(y, 0) | 1 << x

    def get(self, x, y):
        """The stored separating set, or None if the pair has no entry (the
        empty set is the mask 0, so test the result with `is None`)."""
        self._check(x, y)
        return self._partners.get(x, {}).get(y)

    def items(self):
        """List of ((x, y), set) tuples, x < y, in storage order, which is
        deterministic but not sorted: x runs over the nodes in the order
        they first entered a pair, y over x's partners in the order they
        were stored."""
        return [((x, y), zs) for x, sets in self._partners.items()
                for y, zs in sets.items() if x < y]

    def copy(self):
        out = SepsetMap()
        out._partners = {v: dict(p) for v, p in self._partners.items()}
        out._partner_mask = dict(self._partner_mask)
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
    and looks up only its stored partners already inside, so a pair is
    closed over as soon as its second endpoint arrives. closed, when given,
    must already be closed (a result of hie): its nodes' pairs are closed
    over, so only the seed nodes outside it and what they pull in are
    visited.
    """
    partner_mask, partners = sepsets._partner_mask.get, sepsets._partners
    closure = closed | seed
    work = seed & ~closed
    while work:
        a = work.bit_length() - 1
        work ^= 1 << a
        inside = partner_mask(a, 0) & closure
        if inside:
            sets = partners[a]
            while inside:
                b = inside.bit_length() - 1
                inside ^= 1 << b
                zs = sets[b]
                work |= zs & ~closure
                closure |= zs
    return closure
