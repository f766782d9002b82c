"""Augmented skeleton: invariant arrowheads from single-node minimal
dependencies, evaluated on demand.

For each stored minimal separation x _||_ y | Z, any node w adjacent to
{x, y} union Z that makes the pair dependent again (x not _||_ y | Z + {w})
cannot be an ancestor of {x, y} union Z union the selection set, so an
arrowhead belongs at w on every edge joining w to that set. Arrowheads only
accumulate; placing one over a committed tail is a model violation.

The marks serve only to detect candidate links for the deep search, which
reads few of them, so AugmentedSkeleton answers `arrow(a, b)` on demand and
caches every answer: each (stored set, node) pair is queried at most once.
A bi-directed test reads the arrowhead with fewer stored sets pending
first, so an edge that is not bi-directed is refuted as cheaply as the
cache allows. The PAG is oriented from the bare final skeleton.
"""

from .graphs import ARROW, _bits


class AugmentedSkeleton:
    """A skeleton plus the arrowheads its stored separating sets imply.

    Presents the graph interface the candidate-pattern test reads
    (edge_pairs, adj, has_edge, is_bidirected); arrowheads are computed
    when asked for. Edges are removed with `remove_edge`, which also
    registers the pair's new separating set.

    Caching is exact because arrowheads only accumulate and edges only
    disappear: a true arrowhead stays true, and a false one only needs the
    sets registered since it was last evaluated. Sets are indexed by the
    nodes of their core {x, y} union Z, so arrow(a, b) remembers how far
    down b's list it has looked.

    The augment queries run under whatever oracle stage the caller has
    entered: dsep_search enters "augment" once per detection pass,
    augment_graph once around its loop.
    """

    def __init__(self, graph, sepsets, oracle):
        self.graph = graph
        self._oracle = oracle
        self._sets = []                                  # (x, y, Z mask)
        self._by_member = [[] for _ in range(graph.n)]   # node -> set indices
        self._dependent = {}       # (set index, w) -> x, y dependent given Z + w
        self._arrows = {(a, b) for a, b in _endpoints(graph)
                        if graph.mark(a, b) == ARROW}
        self._covered = {}         # (a, b) -> prefix of _by_member[b] tried
        for (x, y), zs in sepsets.items():
            self._register(x, y, zs)

    def _register(self, x, y, zs):
        i = len(self._sets)
        self._sets.append((x, y, zs))
        for v in _bits(1 << x | 1 << y | zs):
            self._by_member[v].append(i)

    def remove_edge(self, x, y, zs):
        """Drop the edge {x, y}, now separated by the mask zs, and register
        zs."""
        self.graph = self.graph.without_edge(x, y)
        self._register(x, y, zs)

    def edge_pairs(self):
        return self.graph.edge_pairs()

    def adj(self, v):
        return self.graph.adj(v)

    def has_edge(self, a, b):
        return self.graph.has_edge(a, b)

    def arrow(self, a, b):
        """True iff an arrowhead belongs at a on the edge {a, b}: some stored
        (x, y, Z) has b in {x, y} union Z, a outside it, and
        x not _||_ y | Z + {a}."""
        if (a, b) in self._arrows:
            return True
        members = self._by_member[b]
        start = self._covered.get((a, b), 0)
        for i in members[start:]:
            x, y, zs = self._sets[i]
            if a == x or a == y or zs >> a & 1:
                continue
            key = (i, a)
            if key not in self._dependent:
                self._dependent[key] = not self._oracle.query(
                    x, y, zs | 1 << a)
            if self._dependent[key]:
                self._arrows.add((a, b))
                return True
        self._covered[(a, b)] = len(members)
        return False

    def _pending(self, a, b):
        """Stored sets arrow(a, b) has yet to look through; -1 once the
        arrowhead is known."""
        if (a, b) in self._arrows:
            return -1
        return len(self._by_member[b]) - self._covered.get((a, b), 0)

    def is_bidirected(self, a, b):
        """Both arrowheads of the edge {a, b} hold. The one with fewer
        stored sets pending is evaluated first, so a refutation is found
        with the fewest queries."""
        if not self.graph.has_edge(a, b):
            return False
        if self._pending(b, a) < self._pending(a, b):
            a, b = b, a
        return self.arrow(a, b) and self.arrow(b, a)


def _endpoints(graph):
    for a, b in graph.edge_pairs():
        yield a, b
        yield b, a


def augment_graph(g, sepsets, oracle):
    """g with every invariant arrowhead derivable from sepsets added.

    Candidate nodes are taken from g's adjacency. The pass is idempotent:
    augmenting an already-augmented graph changes nothing.
    """
    aug = AugmentedSkeleton(g, sepsets, oracle)
    builder = g.builder()
    with oracle.stage("augment"):
        for a, b in _endpoints(g):
            if aug.arrow(a, b):
                builder.set_mark(a, b, ARROW)
    return builder.build()
