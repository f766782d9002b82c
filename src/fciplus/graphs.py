"""Mixed graphs, causal DAGs, separation criteria, and latent projection.

Variables are dense integer ids 0..n-1; iteration is always in ascending id
order so that every run is reproducible. Graphs are immutable values: edits
go through MixedGraphBuilder (or `without_edge`), which returns a new graph.
MixedGraph and MixedGraphBuilder share one mark table, keyed by ordered
adjacent pair. Variable ids are checked once at the boundary: by the
constructors, `MixedGraphBuilder.add_edge`, `d_separated`, `m_separated`
and the `ancestors` methods; inner reads (`adj`, `has_edge`, `mark`) and
`dsep_walk` trust their callers.

Edge mark conventions: an edge {a, b} carries one mark per endpoint. A
directed edge a -> b has TAIL at a and ARROW at b; a <-> b has ARROW at both
ends; a -- b has TAIL at both ends. An arrowhead at a on the edge to b reads
"a is not an ancestor of b (or of the selection set)".
"""

from bisect import insort
from collections import deque
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


def default_names(n, prefix="X"):
    return tuple("%s%d" % (prefix, i) for i in range(n))


class _MarkTable:
    """Read methods over a mark table: a dict from each ordered adjacent
    pair (x, y) to the mark at x on the edge {x, y}, both orders stored."""

    __slots__ = ()

    def has_edge(self, x, y):
        return (x, y) in self._marks

    def mark(self, x, y):
        """Mark at x on the edge {x, y}, or None when x, y are nonadjacent."""
        return self._marks.get((x, y))

    def is_directed_edge(self, x, y):
        """True iff the edge x -> y exists (tail at x, arrow at y)."""
        marks = self._marks
        return marks.get((x, y)) == TAIL and marks.get((y, x)) == ARROW

    def is_bidirected(self, x, y):
        marks = self._marks
        return marks.get((x, y)) == ARROW and marks.get((y, x)) == ARROW

    def is_undirected(self, x, y):
        marks = self._marks
        return marks.get((x, y)) == TAIL and marks.get((y, x)) == TAIL

    def edge_pairs(self):
        """Sorted (a, b) pairs with a < b."""
        return sorted(p for p in self._marks if p[0] < p[1])

    def edges(self):
        """Sorted list of (a, b, mark_at_a, mark_at_b) with a < b."""
        marks = self._marks
        return [(a, b, marks[(a, b)], marks[(b, a)]) for a, b in self.edge_pairs()]


class MixedGraph(_MarkTable):
    """Immutable graph with per-endpoint marks (tail / arrow / circle).

    Represents skeletons, augmented skeletons, MAGs and PAGs. At most one
    edge per pair, no self loops. `edges` is an iterable of tuples
    (a, b, mark_at_a, mark_at_b).
    """

    __slots__ = ("n", "names", "_marks", "_adj", "_hash", "_cache")

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
        self._init(n, names, marks)

    def _init(self, n, names, marks):
        self.n = n
        self.names = names
        self._marks = marks
        adj = [set() for _ in range(n)]
        for a, b in marks:
            adj[a].add(b)
        self._adj = tuple(frozenset(s) for s in adj)
        self._hash = None
        self._cache = {}

    @classmethod
    def _from_table(cls, n, names, marks):
        """A graph over an already validated mark table."""
        g = cls.__new__(cls)
        g._init(n, names, marks)
        return g

    # -- basic queries ----------------------------------------------------

    @property
    def n_edges(self):
        return len(self._marks) // 2

    def adj(self, x):
        return self._adj[x]

    def max_degree(self):
        return max((len(s) for s in self._adj), default=0)

    # -- ancestry ----------------------------------------------------------

    def ancestors(self, xs):
        """xs plus every node with a directed path into some member of xs.

        Directed path means every edge is traversed tail-at-source,
        arrowhead-at-target.
        """
        seed = set(xs)
        for v in seed:
            _check_var(v, self.n)
        return self._ancestors(seed)

    def _ancestors(self, xs):
        out = set(xs)
        stack = list(out)
        while stack:
            v = stack.pop()
            for p in self._adj[v]:
                if p not in out and self.is_directed_edge(p, v):
                    out.add(p)
                    stack.append(p)
        return frozenset(out)

    # -- ancestral / MAG checks ---------------------------------------------

    def is_ancestral(self):
        """Arrowhead at x on an edge to y implies x is not an ancestor of y,
        and no arrowhead points at a node with an undirected edge."""
        if "ancestral" not in self._cache:
            self._cache["ancestral"] = self._compute_ancestral()
        return self._cache["ancestral"]

    def _compute_ancestral(self):
        marks = self._marks
        undirected_nodes = {a for (a, b), m in marks.items()
                            if m == TAIL and marks[(b, a)] == TAIL}
        an = {}   # node -> its ancestor set, each walked at most once
        for (a, b), m in marks.items():
            if m != ARROW:
                continue
            if a in undirected_nodes:
                return False
            if b not in an:
                an[b] = self._ancestors((b,))
            if a in an[b]:
                return False
        return True

    def has_circles(self):
        return CIRCLE in self._marks.values()

    def require_mag(self):
        if self.has_circles():
            raise GraphError("graph has circle marks, not a MAG")
        if not self.is_ancestral():
            raise GraphError("graph is not ancestral")

    # -- copies and edits ---------------------------------------------------

    def builder(self):
        return MixedGraphBuilder(self)

    def without_edge(self, a, b):
        b_ = self.builder()
        b_.remove_edge(a, b)
        return b_.build()

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
        edges = [(e["a"], e["b"], e["mark_a"], e["mark_b"]) for e in d["edges"]]
        return cls(d["n"], edges, names=d.get("names"))

    def to_json(self):
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, s):
        return cls.from_json_dict(json.loads(s))

    def to_dot(self, graph_name="g"):
        """DOT export: arrowhead -> "normal", tail -> "none", circle -> "odot"."""
        shape = {ARROW: "normal", TAIL: "none", CIRCLE: "odot"}
        lines = ["digraph %s {" % graph_name, "  edge [dir=both];"]
        for i, name in enumerate(self.names):
            lines.append('  n%d [label="%s"];' % (i, name))
        for a, b, ma, mb in self.edges():
            lines.append(
                "  n%d -> n%d [arrowtail=%s, arrowhead=%s];"
                % (a, b, shape[ma], shape[mb])
            )
        lines.append("}")
        return "\n".join(lines) + "\n"

    # -- comparison -----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, MixedGraph):
            return NotImplemented
        return (
            self.n == other.n
            and self.names == other.names
            and self._marks == other._marks
        )

    def __ne__(self, other):
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.n, self.names, frozenset(self._marks.items())))
        return self._hash

    def __repr__(self):
        return "MixedGraph(n=%d, edges=%d)" % (self.n, self.n_edges)


class MixedGraphBuilder(_MarkTable):
    """Mutable copy of a graph's mark table; `build` returns a new MixedGraph.

    `adj(v)` lists v's neighbours in ascending order. Mark updates are
    monotone: CIRCLE may become ARROW or TAIL; overwriting a committed ARROW
    with TAIL (or vice versa) raises ModelViolationError.
    """

    def __init__(self, graph):
        self.n = graph.n
        self.names = graph.names
        self._marks = dict(graph._marks)
        self._adj = [sorted(s) for s in graph._adj]

    def adj(self, v):
        return self._adj[v]

    def add_edge(self, a, b, ma, mb):
        _check_var(a, self.n)
        _check_var(b, self.n)
        if a == b:
            raise GraphError("self loop at %d" % a)
        if ma not in MARKS or mb not in MARKS:
            raise GraphError("bad endpoint mark %r/%r" % (ma, mb))
        if (a, b) in self._marks:
            raise GraphError("edge {%d,%d} already present" % (min(a, b), max(a, b)))
        self._marks[(a, b)] = ma
        self._marks[(b, a)] = mb
        insort(self._adj[a], b)
        insort(self._adj[b], a)

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
                % (x, min(x, y), max(x, y), cur, new_mark)
            )
        if new_mark not in MARKS:
            raise GraphError("bad endpoint mark %r" % (new_mark,))
        self._marks[(x, y)] = new_mark
        return True

    def build(self):
        """The edited graph; every edit was validated, so the table is
        handed over without validating it again."""
        return MixedGraph._from_table(self.n, self.names, dict(self._marks))


class CausalDag:
    """Ground-truth directed acyclic graph over observed + latent + selection
    variables. Edges are (parent, child) pairs."""

    __slots__ = (
        "n", "names", "edges", "observed", "latent", "selection",
        "_parents", "_children", "_an_single", "_an_selection",
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

        parents = [[] for _ in range(n)]
        children = [[] for _ in range(n)]
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
            parents[v].append(u)
            children[u].append(v)
        self.edges = frozenset(seen)
        self._parents = tuple(tuple(sorted(p)) for p in parents)
        self._children = tuple(tuple(sorted(c)) for c in children)
        self._check_acyclic()
        self._an_single = [None] * n
        self._an_selection = None

    def _check_acyclic(self):
        state = [0] * self.n  # 0 unvisited, 1 on stack, 2 done
        for root in range(self.n):
            if state[root]:
                continue
            stack = [(root, 0)]
            state[root] = 1
            while stack:
                v, i = stack[-1]
                if i < len(self._children[v]):
                    stack[-1] = (v, i + 1)
                    c = self._children[v][i]
                    if state[c] == 1:
                        raise GraphError("directed cycle through %d" % c)
                    if state[c] == 0:
                        state[c] = 1
                        stack.append((c, 0))
                else:
                    state[v] = 2
                    stack.pop()

    def _ancestors_of(self, v):
        if self._an_single[v] is None:
            out = {v}
            stack = [v]
            while stack:
                u = stack.pop()
                for p in self._parents[u]:
                    if p not in out:
                        out.add(p)
                        stack.append(p)
            self._an_single[v] = frozenset(out)
        return self._an_single[v]

    def ancestors(self, xs):
        """xs plus all nodes with a directed path into some member of xs."""
        out = set()
        for v in xs:
            _check_var(v, self.n)
            out |= self._ancestors_of(v)
        return frozenset(out)

    def selection_ancestors(self):
        if self._an_selection is None:
            self._an_selection = self.ancestors(self.selection)
        return self._an_selection

    def descendants(self, xs):
        out = set()
        stack = []
        for v in xs:
            _check_var(v, self.n)
            out.add(v)
            stack.append(v)
        while stack:
            u = stack.pop()
            for c in self._children[u]:
                if c not in out:
                    out.add(c)
                    stack.append(c)
        return frozenset(out)

    def skeleton_pairs(self):
        return sorted((u, v) if u < v else (v, u) for u, v in self.edges)

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
        for e in d["edges"]:
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

    def to_dot(self, graph_name="g"):
        lines = ["digraph %s {" % graph_name]
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
    for v in z:
        _check_var(v, dag.n)
    if x == y:
        raise GraphError("x and y must differ")
    if x in z or y in z:
        raise GraphError("x and y must not be in the conditioning set")
    return dsep_walk(dag, x, y, z)


def dsep_walk(dag, x, y, z):
    """d_separated without input checks, for callers whose ids are already
    valid: x != y, both outside the collection z. Reachability over
    (node, direction) states, linear in the number of edges."""
    parents = dag._parents
    children = dag._children
    n = dag.n

    # ancestors of z, for collider openings
    anz = bytearray(n)
    stack = []
    for v in z:
        anz[v] = 1
        stack.append(v)
    while stack:
        v = stack.pop()
        for p in parents[v]:
            if not anz[p]:
                anz[p] = 1
                stack.append(p)
    inz = bytearray(n)
    for v in z:
        inz[v] = 1

    # active-trail reachability from x; state 2v+1 = arrived moving up
    visited = bytearray(2 * n)
    stack = [2 * x + 1]
    visited[2 * x + 1] = 1
    while stack:
        code = stack.pop()
        v, up = code >> 1, code & 1
        if v == y:
            return False
        if up:
            if not inz[v]:
                for p in parents[v]:
                    if not visited[2 * p + 1]:
                        visited[2 * p + 1] = 1
                        stack.append(2 * p + 1)
                for c in children[v]:
                    if not visited[2 * c]:
                        visited[2 * c] = 1
                        stack.append(2 * c)
        else:
            if not inz[v]:
                for c in children[v]:
                    if not visited[2 * c]:
                        visited[2 * c] = 1
                        stack.append(2 * c)
            if anz[v]:
                for p in parents[v]:
                    if not visited[2 * p + 1]:
                        visited[2 * p + 1] = 1
                        stack.append(2 * p + 1)
    return True


def m_separated(mag, x, y, z):
    """True iff no m-connecting path joins x and y given z in the MAG.

    A path m-connects when every noncollider on it is outside z and every
    collider on it is an ancestor of z. Reachability over (node, entry-mark)
    states; the input must satisfy the MAG invariants.
    """
    mag.require_mag()
    _check_var(x, mag.n)
    _check_var(y, mag.n)
    z = frozenset(z)
    for v in z:
        _check_var(v, mag.n)
    if x == y:
        raise GraphError("x and y must differ")
    if x in z or y in z:
        raise GraphError("x and y must not be in the conditioning set")

    anz = mag._ancestors(z)
    visited = set()
    queue = deque()
    for w in mag.adj(x):
        queue.append((w, mag.mark(w, x)))
    while queue:
        v, entry = queue.popleft()
        if v == y:
            return False
        if (v, entry) in visited:
            continue
        visited.add((v, entry))
        for w in mag.adj(v):
            out = mag.mark(v, w)
            collider = entry == ARROW and out == ARROW
            if collider:
                if v not in anz:
                    continue
            elif v in z:
                continue
            queue.append((w, mag.mark(w, v)))
    return True


def latent_project(dag):
    """Project a causal DAG onto its observed variables, yielding the MAG.

    Output ids are 0..|observed|-1 in ascending order of the dag's observed
    ids. Two observed variables are adjacent iff no subset of the remaining
    observed variables (together with the selection set) d-separates them;
    equivalently iff conditioning on their joint observed ancestors fails to
    separate them. The mark at a on edge {a, b} is TAIL iff a is an ancestor
    of {b} union the selection set, else ARROW.
    """
    obs = dag.observed
    obs_set = frozenset(obs)
    sel = frozenset(dag.selection)
    an_sel = dag.selection_ancestors()
    an = [dag._ancestors_of(a) for a in obs]
    edges = []
    for i, a in enumerate(obs):
        for j in range(i + 1, len(obs)):
            b = obs[j]
            canonical = ((an[i] | an[j] | an_sel) & obs_set) - {a, b}
            if dsep_walk(dag, a, b, canonical | sel):
                continue
            ma = TAIL if a in an[j] or a in an_sel else ARROW
            mb = TAIL if b in an[i] or b in an_sel else ARROW
            edges.append((i, j, ma, mb))
    mag = MixedGraph(len(obs), edges, names=[dag.names[o] for o in obs])
    if not mag.is_ancestral():
        raise RuntimeError("latent projection produced a non-ancestral graph; "
                           "this is a bug")
    return mag
