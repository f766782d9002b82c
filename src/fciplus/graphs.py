"""Mixed graphs, causal DAGs, d-separation, and latent projection.

Variables are dense integer ids 0..n-1; iteration is always in ascending id
order so that every run is reproducible. A MixedGraph holds one mark
table, keyed by ordered adjacent pair, and one ascending neighbour list
per node; `remove_edge` and `set_mark` edit both in place, and a search
that must keep its input edits a `copy()`. Variable ids are checked once
at the boundary: by the public constructors, `d_separated` and
`CausalDag.ancestors`; inner reads (`adj`, `has_edge`, `mark`),
`dsep_reach` and `latent_project` trust their callers.

CausalDag answers ancestry from int-mask tables (bit v for node v) that
its constructor fills once:

    _pa[v], _ch[v]  parents and children of v
    _an[v]          v and every node with a directed path into v
    _comp[v]        v's connected component in the skeleton
    _sel, _an_sel   the selection set and its ancestors

`dsep_reach` is the one d-separation walk. It takes its conditioning set
z as a mask too, like every conditioning and separating set in the
package, and returns, besides the answer, the masks of the nodes it
reached and of its exits: nodes reached moving down outside the walk's
region An({x, y} + z), every descendant of which is d-connected to x.
`d_separated`, `latent_project` and the checks take its answer;
`DsepOracle` keeps the reached and exit masks per (endpoint, z) to answer
later queries without a walk. A pair in different components is
d-separated by every set (a d-connecting trail needs a skeleton path) and
a pair joined by an edge by none: `d_separated` answers the first without
a walk, the oracle both, and `latent_project` more (see its docstring).

Edge mark conventions: an edge {a, b} carries one mark per endpoint. A
directed edge a -> b has TAIL at a and ARROW at b; a <-> b has ARROW at both
ends; a -- b has TAIL at both ends. An arrowhead at a on the edge to b reads
"a is not an ancestor of b (or of the selection set)".
"""

import json

TAIL = "tail"
ARROW = "arrow"
CIRCLE = "circle"
MARKS = (TAIL, ARROW, CIRCLE)


class GraphError(ValueError):
    """Invalid graph input or construction."""


class ModelViolationError(GraphError):
    """An orientation step tried to overwrite a committed edge mark.

    Impossible under a faithful exact oracle; signals inconsistent input.
    """


def _check_var(v, n):
    if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
        raise GraphError("unknown variable id %r (graph has %d variables)" % (v, n))


def _bits(mask):
    """Ascending ids of the set bits of an int mask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def default_names(n):
    return tuple("X%d" % i for i in range(n))


def _json_object(value, what):
    """value, checked to be a JSON object; `what` names it in the error."""
    if not isinstance(value, dict):
        raise GraphError("%s must be a JSON object, not %s"
                         % (what, type(value).__name__))
    return value


def _json_edges(d):
    """The "edges" field of graph JSON d, checked to be a list of objects."""
    edges = _json_object(d, "the top level").get("edges")
    if not isinstance(edges, list) or not all(isinstance(e, dict) for e in edges):
        raise GraphError('field "edges" must be a list of objects')
    return edges


class MixedGraph:
    """Graph with per-endpoint marks (tail / arrow / circle), edited in place.

    Represents skeletons (all marks circles), MAGs and PAGs. At most one
    edge per pair, no self loops. `edges` is an iterable of tuples
    (a, b, mark_at_a, mark_at_b). The mark table maps each ordered adjacent
    pair (x, y) to the mark at x on the edge {x, y}, both orders stored;
    `adj(v)` is v's own ascending neighbour list, which callers only read.
    Mark updates are monotone: CIRCLE may become ARROW or TAIL; overwriting
    a committed ARROW with TAIL (or vice versa) raises ModelViolationError.
    """

    __slots__ = ("n", "names", "_marks", "_adj")

    def __init__(self, n, edges=(), names=None):
        if n < 0:
            raise GraphError("variable count must be >= 0")
        names = tuple(names) if names is not None else default_names(n)
        if len(names) != n:
            raise GraphError("expected %d names, got %d" % (n, len(names)))
        marks = {}
        for a, b, ma, mb in edges:
            _check_var(a, n)
            _check_var(b, n)
            if a == b:
                raise GraphError("self loop at %d" % a)
            if ma not in MARKS or mb not in MARKS:
                raise GraphError("bad endpoint mark %r/%r" % (ma, mb))
            if (a, b) in marks:
                raise GraphError("duplicate edge {%d,%d}" % (min(a, b), max(a, b)))
            marks[(a, b)] = ma
            marks[(b, a)] = mb
        adj = [[] for _ in range(n)]
        for a, b in sorted(marks):
            adj[a].append(b)
        self.n, self.names, self._marks, self._adj = n, names, marks, adj

    @classmethod
    def _unchecked(cls, n, names, marks, adj):
        """A graph that takes over a mark table and ascending neighbour lists
        valid by construction (a copy, a skeleton, a MAG) without a check."""
        g = cls.__new__(cls)
        g.n, g.names, g._marks, g._adj = n, names, marks, adj
        return g

    def copy(self):
        return MixedGraph._unchecked(self.n, self.names, dict(self._marks),
                                     [list(nb) for nb in self._adj])

    # -- reads ------------------------------------------------------------

    @property
    def n_edges(self):
        return len(self._marks) // 2

    def adj(self, x):
        return self._adj[x]

    def max_degree(self):
        return max((len(nb) for nb in self._adj), default=0)

    def has_edge(self, x, y):
        return (x, y) in self._marks

    def mark(self, x, y):
        """Mark at x on the edge {x, y}, or None when x, y are nonadjacent."""
        return self._marks.get((x, y))

    def is_directed_edge(self, x, y):
        """True iff the edge x -> y exists (tail at x, arrow at y)."""
        marks = self._marks
        return marks.get((x, y)) == TAIL and marks.get((y, x)) == ARROW

    def is_undirected(self, x, y):
        marks = self._marks
        return marks.get((x, y)) == TAIL and marks.get((y, x)) == TAIL

    def edge_pairs(self):
        """Sorted (a, b) pairs with a < b."""
        return [(a, b) for a, nb in enumerate(self._adj) for b in nb if a < b]

    def edges(self):
        """Sorted list of (a, b, mark_at_a, mark_at_b) with a < b."""
        marks = self._marks
        return [(a, b, marks[(a, b)], marks[(b, a)]) for a, b in self.edge_pairs()]

    # -- edits --------------------------------------------------------------

    def remove_edge(self, a, b):
        if (a, b) not in self._marks:
            raise GraphError("no edge {%r,%r} to remove" % (a, b))
        del self._marks[(a, b)]
        del self._marks[(b, a)]
        self._adj[a].remove(b)
        self._adj[b].remove(a)

    def set_mark(self, x, y, new_mark):
        """Set the mark at x on edge {x, y}; returns True if it changed."""
        cur = self._marks.get((x, y))
        if cur is None:
            raise GraphError("no edge {%r,%r}" % (x, y))
        if cur == new_mark:
            return False
        if cur != CIRCLE:
            raise ModelViolationError(
                "mark conflict at %d on edge {%d,%d}: %s -> %s"
                % (x, min(x, y), max(x, y), cur, new_mark))
        if new_mark not in MARKS:
            raise GraphError("bad endpoint mark %r" % (new_mark,))
        self._marks[(x, y)] = new_mark
        return True

    # -- serialization ------------------------------------------------------

    def to_json_dict(self):
        return {
            "n": self.n,
            "names": list(self.names),
            "observed": list(range(self.n)),
            "latent": [],
            "selection": [],
            "edges": [
                {"a": a, "b": b, "mark_a": ma, "mark_b": mb}
                for a, b, ma, mb in self.edges()
            ],
        }

    @classmethod
    def from_json_dict(cls, d):
        edges = [(e["a"], e["b"], e["mark_a"], e["mark_b"])
                 for e in _json_edges(d)]
        return cls(d["n"], edges, names=d.get("names"))

    def to_json(self):
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, s):
        return cls.from_json_dict(json.loads(s))

    def to_dot(self):
        """DOT export: arrowhead -> "normal", tail -> "none", circle -> "odot"."""
        shape = {ARROW: "normal", TAIL: "none", CIRCLE: "odot"}
        lines = ["digraph g {", "  edge [dir=both];"]
        for i, name in enumerate(self.names):
            lines.append('  n%d [label="%s"];' % (i, name))
        for a, b, ma, mb in self.edges():
            lines.append(
                "  n%d -> n%d [arrowtail=%s, arrowhead=%s];"
                % (a, b, shape[ma], shape[mb])
            )
        lines.append("}")
        return "\n".join(lines) + "\n"

    def __eq__(self, other):
        if not isinstance(other, MixedGraph):
            return NotImplemented
        return (self.n, self.names, self._marks) == \
            (other.n, other.names, other._marks)

    def __repr__(self):
        return "MixedGraph(n=%d, edges=%d)" % (self.n, self.n_edges)


class CausalDag:
    """Ground-truth directed acyclic graph over observed + latent + selection
    variables. Edges are (parent, child) pairs.

    Node sets inside are int bitmasks (bit v for node v): `_pa[v]`, `_ch[v]`
    and `_an[v]` (v and every node with a directed path into it) per node;
    `_comp[v]`, v's connected component in the skeleton; `_sel`, the
    selection set, and `_an_sel`, its ancestors. One topological pass at
    construction fills the ancestor masks and rejects directed cycles.
    """

    __slots__ = (
        "n", "names", "edges", "observed", "latent", "selection",
        "_pa", "_ch", "_an", "_comp", "_sel", "_an_sel",
    )

    def __init__(self, n, edges, observed, latent=(), selection=(), names=None):
        self.n = n
        self.names = tuple(names) if names is not None else default_names(n)
        if len(self.names) != n:
            raise GraphError("expected %d names, got %d" % (n, len(self.names)))
        obs, lat, sel = set(observed), set(latent), set(selection)
        for v in obs | lat | sel:
            _check_var(v, n)
        if obs & lat or obs & sel or lat & sel:
            raise GraphError("observed/latent/selection sets overlap")
        if obs | lat | sel != set(range(n)):
            raise GraphError("observed/latent/selection must partition all variables")
        self.observed = tuple(sorted(obs))
        self.latent = tuple(sorted(lat))
        self.selection = tuple(sorted(sel))

        pa = [0] * n
        ch = [0] * n
        seen = set()
        for u, v in edges:
            _check_var(u, n)
            _check_var(v, n)
            if u == v:
                raise GraphError("self loop at %d" % u)
            if (u, v) in seen:
                raise GraphError("duplicate edge %d -> %d" % (u, v))
            if (v, u) in seen:
                raise GraphError("both %d -> %d and %d -> %d present" % (u, v, v, u))
            seen.add((u, v))
            pa[v] |= 1 << u
            ch[u] |= 1 << v
        self.edges = frozenset(seen)
        self._pa = tuple(pa)
        self._ch = tuple(ch)

        # Kahn's order: a node is taken once all its parents are, so their
        # ancestor masks are complete when its own is formed
        indeg = [m.bit_count() for m in pa]
        order = [v for v in range(n) if not indeg[v]]
        an = [0] * n
        for v in order:
            m = 1 << v
            for p in _bits(pa[v]):
                m |= an[p]
            an[v] = m
            for c in _bits(ch[v]):
                indeg[c] -= 1
                if not indeg[c]:
                    order.append(c)
        if len(order) < n:
            # every node left has a parent left: climbing from one of them
            # must come back to a node already passed, which lies on a cycle
            rest = sum(1 << v for v in range(n) if indeg[v])
            v, passed = _bits(rest)[0], 0
            while not passed >> v & 1:
                passed |= 1 << v
                v = _bits(pa[v] & rest)[0]
            raise GraphError("directed cycle through %d" % v)
        self._an = tuple(an)
        # flood each unvisited node's skeleton neighbourhood to a fixpoint
        comp = [0] * n
        for v in range(n):
            if comp[v]:
                continue
            m = frontier = 1 << v
            while frontier:
                nb = 0
                for u in _bits(frontier):
                    nb |= pa[u] | ch[u]
                frontier = nb & ~m
                m |= frontier
            for u in _bits(m):
                comp[u] = m
        self._comp = tuple(comp)
        self._sel = self._an_sel = 0
        for v in self.selection:
            self._sel |= 1 << v
            self._an_sel |= an[v]

    def ancestors(self, xs):
        """xs plus all nodes with a directed path into some member of xs."""
        out = 0
        for v in xs:
            _check_var(v, self.n)
            out |= self._an[v]
        return frozenset(_bits(out))

    # -- serialization -------------------------------------------------------

    def to_json_dict(self):
        return {
            "n": self.n,
            "names": list(self.names),
            "observed": list(self.observed),
            "latent": list(self.latent),
            "selection": list(self.selection),
            "edges": [
                {"a": u, "b": v, "mark_a": TAIL, "mark_b": ARROW}
                for u, v in sorted(self.edges)
            ],
        }

    @classmethod
    def from_json_dict(cls, d):
        edges = []
        for e in _json_edges(d):
            if e["mark_a"] != TAIL or e["mark_b"] != ARROW:
                raise GraphError("causal DAG edges must be directed a -> b")
            edges.append((e["a"], e["b"]))
        return cls(
            d["n"], edges, d["observed"], d.get("latent", ()),
            d.get("selection", ()), names=d.get("names"),
        )

    def to_json(self):
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, s):
        return cls.from_json_dict(json.loads(s))

    def to_dot(self):
        lines = ["digraph g {"]
        lat, sel = set(self.latent), set(self.selection)
        for i, name in enumerate(self.names):
            style = ""
            if i in lat:
                style = ", style=dashed"
            elif i in sel:
                style = ", shape=doublecircle"
            lines.append('  n%d [label="%s"%s];' % (i, name, style))
        for u, v in sorted(self.edges):
            lines.append("  n%d -> n%d;" % (u, v))
        lines.append("}")
        return "\n".join(lines) + "\n"

    def __eq__(self, other):
        if not isinstance(other, CausalDag):
            return NotImplemented
        return (
            self.n == other.n
            and self.names == other.names
            and self.edges == other.edges
            and self.observed == other.observed
            and self.latent == other.latent
            and self.selection == other.selection
        )

    def __hash__(self):
        return hash((self.n, self.names, self.edges, self.observed,
                     self.latent, self.selection))

    def __repr__(self):
        return "CausalDag(n=%d, edges=%d, observed=%d, latent=%d, selection=%d)" % (
            self.n, len(self.edges), len(self.observed),
            len(self.latent), len(self.selection),
        )


def d_separated(dag, x, y, z):
    """True iff every path between x and y in the DAG is blocked by z.

    A path is blocked when some noncollider on it is in z, or some collider
    on it has no descendant in z. z may contain any variables of the dag.
    """
    _check_var(x, dag.n)
    _check_var(y, dag.n)
    z = frozenset(z)
    zmask = 0
    for v in z:
        _check_var(v, dag.n)
        zmask |= 1 << v
    if x == y:
        raise GraphError("x and y must differ")
    if x in z or y in z:
        raise GraphError("x and y must not be in the conditioning set")
    # a d-connecting trail needs a skeleton path
    return not dag._comp[x] >> y & 1 or dsep_reach(dag, x, y, zmask)[0]


def dsep_reach(dag, x, y, zmask):
    """The d-separation walk from x given zmask, targeted at y:
    (separated, reached, exits), the last two as int masks. It checks no
    input: the caller passes valid ids x != y, both outside the int mask
    zmask of the conditioning set.

    Active-trail reachability from x as two frontier masks: nodes arrived
    at moving up (from a child) and moving down (from a parent). Leaving a
    node as a noncollider needs it outside z; arriving down and leaving up
    makes it a collider, which needs it to be an ancestor of z. An active
    trail to y stays inside An({x, y} + z), so the walk keeps to that
    region; a node it reaches moving down outside the region is an exit.
    No active trail comes back up from an exit, and every descendant of an
    exit is d-connected to x.

    The walk stops as soon as it reaches y. Every node in `reached` and
    every descendant of an exit is d-connected to x given z (x itself
    included); when the walk ran out (separated), these are all of them,
    so any y' outside z is d-connected to x iff `reached >> y' & 1` or
    `an[y'] & exits`.
    """
    pa, ch, an = dag._pa, dag._ch, dag._an
    anz = 0
    m = zmask
    while m:
        # an[v] holds v and its ancestors, so members of z it covers are
        # skipped
        anz |= an[m.bit_length() - 1]
        m &= ~anz
    free = ~zmask
    inside = anz | an[x] | an[y]
    outside = ~inside
    ybit = 1 << y
    up = seen_up = 1 << x
    down = seen_down = exits = 0
    while up or down:
        to_pa = (up & free) | (down & anz)
        to_ch = (up | down) & free
        up = down = 0
        while to_pa:
            v = to_pa.bit_length() - 1
            up |= pa[v]
            to_pa ^= 1 << v
        while to_ch:
            v = to_ch.bit_length() - 1
            down |= ch[v]
            to_ch ^= 1 << v
        up &= ~seen_up
        exits |= down & outside
        down &= inside & ~seen_down
        if (up | down) & ybit:
            return False, seen_up | seen_down | up | down, exits
        seen_up |= up
        seen_down |= down
    return True, seen_up | seen_down, exits


def latent_project(dag):
    """Project a causal DAG onto its observed variables, yielding the MAG.

    Output ids are 0..|observed|-1 in ascending order of the dag's observed
    ids. Two observed variables are adjacent iff no subset of the remaining
    observed variables (together with the selection set) d-separates them;
    equivalently iff conditioning on their joint observed ancestors fails to
    separate them. The mark at a on edge {a, b} is TAIL iff a is in
    An({b} + S), S the selection set, else ARROW.

    A pair joined by a DAG edge is adjacent; of the other pairs only the
    candidates below are walked. By the inducing-path theorem (Richardson
    & Spirtes, "Ancestral graph Markov models", Ann. Statist. 2002,
    Thm 4.2), observed a and b are adjacent iff a path joins them whose
    inner nodes are each latent or a collider, every collider in
    An({a, b} + S). Let H be the DAG skeleton plus an edge between the
    parents of every node in An(observed + S). Each collider of such a
    path has both its path neighbours as parents, so H joins them; two
    colliders are never consecutive, so dropping the colliders leaves an
    H-path from a to b whose inner nodes are all latent. Hence b is a
    candidate of a only when it is an H-neighbour of a or of an H-connected
    group of latents that a touches, and every other pair is nonadjacent.
    The candidates are int masks, built without a walk.

    The result is a MAG by construction (Richardson & Spirtes), so the
    table is handed over without a check; pairs are visited in
    lexicographic order, so every neighbour list fills ascending. It has no
    circles, and it is ancestral:

    (i) No arrowhead at a on an edge to b when a directed path
        a -> .. -> b exists. Each node after a has an arrowhead on the edge
        from its predecessor, so it is outside An(S), and its tail toward
        its successor means it is a DAG ancestor of the successor. With
        a's own tail, a is in An({b} + S), so its mark on the edge to b is
        a tail, not an arrowhead.
    (ii) No arrowhead at u on any edge when u -- v. Both tails give u in
        An({v} + S) and v in An({u} + S); as the DAG has no cycle, one of
        them is in An(S), and then so is the other. Every mark at u is thus
        a tail.
    """
    obs = dag.observed
    an, an_sel, pa, ch = dag._an, dag._an_sel, dag._pa, dag._ch
    obs_mask = sum(1 << v for v in obs)
    lat_mask = sum(1 << v for v in dag.latent)
    # h[v]: v's neighbours in H, the skeleton plus an edge between the
    # parents of every node in An(observed + S)
    h = [pa[v] | ch[v] for v in range(dag.n)]
    up = an_sel
    for v in obs:
        up |= an[v]
    for c in _bits(up):
        if pa[c] & (pa[c] - 1):
            for p in _bits(pa[c]):
                h[p] |= pa[c] ^ 1 << p
    # reach[l]: the observed H-neighbours of latent l's group, filled for
    # the groups that touch an observed node, the only ones read below
    reach = [0] * dag.n
    for l in _bits(lat_mask):
        if reach[l] or not h[l] & obs_mask:
            continue
        group = frontier = 1 << l
        touched = 0
        while frontier:
            for u in _bits(frontier):
                touched |= h[u]
            frontier = touched & lat_mask & ~group
            group |= frontier
        for u in _bits(group):
            reach[u] = touched & obs_mask
    pos = {v: i for i, v in enumerate(obs)}
    marks = {}
    adj = [[] for _ in obs]
    for i, a in enumerate(obs):
        up_a = an[a] | an_sel
        near = h[a]
        for l in _bits(h[a] & lat_mask):
            near |= reach[l]
        # a's candidates after a, ascending
        for b in _bits(near & obs_mask & -(2 << a)):
            up_b = an[b] | an_sel
            if not (pa[b] | ch[b]) >> a & 1:
                canonical = (up_a | up_b) & obs_mask & ~(1 << a | 1 << b)
                if dsep_reach(dag, a, b, canonical | dag._sel)[0]:
                    continue
            j = pos[b]
            marks[(i, j)] = TAIL if up_b >> a & 1 else ARROW
            marks[(j, i)] = TAIL if up_a >> b & 1 else ARROW
            adj[i].append(j)
            adj[j].append(i)
    return MixedGraph._unchecked(len(obs), tuple(dag.names[o] for o in obs),
                                 marks, adj)
