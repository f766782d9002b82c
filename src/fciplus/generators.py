"""Random instance generation and the canonical worked examples.

The canonical examples reproduce the classic situations where the plain
adjacency search fails: a pair separable only through a node nonadjacent to
both endpoints, a nested/hierarchical variant, and transitive inclusion of
deep separator nodes. Each example carries the list of independence facts
that define it and is validated against the d-separation oracle at load
time; a failing fact rejects the example rather than trusting the
construction blindly.
"""

import random

from .checks import _true_dsep_links
from .graphs import CausalDag, GraphError, latent_project, d_separated
from .oracles import DsepOracle
from .pc import pc_adjacency_search


class GenerationError(RuntimeError):
    """Random generation exhausted its rejection budget."""


class ExampleValidationError(GraphError):
    """A canonical example failed one of its defining independence facts."""


def random_sparse_dag(n_observed, k, n_latent=0, n_selection=0,
                      edge_density=0.25, seed=0, max_tries=3000,
                      plant_dsep=False):
    """Random causal DAG whose projected graph has maximum degree <= k.

    Each try draws the edges of a DAG over n_observed + n_latent +
    n_selection nodes from a random topological order, then picks latent
    variables among nodes with at least two children (to induce bi-directed
    edges) and selection variables among childless nodes with at least two
    parents (to induce undirected edges). It then counts, for every observed
    node, the adjacencies that survive any projection (see
    _surviving_degrees) and rejects the draw outright if one count exceeds
    k. The count is never above the projected degree, so this changes no
    accepted draw, and it runs after the draw has taken its random numbers,
    so the random stream is the same as without it. Only a draw that passes
    it is built into a CausalDag and projected, and the projection's
    maximum degree decides. Either rejection counts as "degree".

    With plant_dsep, two of the latents and five randomly chosen observed
    nodes are wired into the canonical motif that defeats the plain
    adjacency search (a confounded criss-cross fed by a common source), on
    top of the random background. Uniform sampling almost never produces
    that motif, so corpora that must exercise the deep-search stage enable
    this; whether a given instance really contains such a pair is still
    verified from the graph (see has_dsep_link), never assumed.
    """
    if n_observed < 2:
        raise GraphError("need at least 2 observed variables")
    if k < 1:
        raise GraphError("degree bound k must be >= 1")
    if not 0 <= edge_density <= 1:
        raise GraphError("edge_density %r is outside [0, 1]" % (edge_density,))
    if plant_dsep and (n_observed < 5 or n_latent < 2):
        raise GraphError("plant_dsep needs >= 5 observed and >= 2 latent variables")
    rng = random.Random(seed)
    total = n_observed + n_latent + n_selection
    reasons = {"latent_pool": 0, "selection_pool": 0, "degree": 0}
    for _ in range(max_tries):
        if plant_dsep:
            parts = _planted_draw(rng, n_observed, n_latent, n_selection,
                                  edge_density)
        else:
            parts = _uniform_draw(rng, total, n_observed, n_latent,
                                  n_selection, edge_density, reasons)
        if parts is None:
            continue
        if max(_surviving_degrees(*parts).values()) > k:
            reasons["degree"] += 1
            continue
        dag = CausalDag(*parts)
        if latent_project(dag).max_degree() > k:
            reasons["degree"] += 1
            continue
        return dag
    raise GenerationError(
        "no admissible graph in %d tries (rejections: %r); relax the degree "
        "bound or lower edge_density" % (max_tries, reasons))


def _surviving_degrees(total, edges, observed, latent, selection):
    """Lower bound on each observed node's degree in the projection of the
    DAG (total, edges, observed, latent, selection), as {node: count}.

    Counts only adjacencies that no conditioning set can remove: an edge
    between two observed nodes, two observed children of one latent node
    (a <- L -> b) and two observed parents of one selection node
    (a -> S <- b, S always conditioned on). Each is an inducing path, so
    the projection keeps every pair counted here.
    """
    obs, lat, sel = set(observed), set(latent), set(selection)
    near = {v: set() for v in observed}
    groups = {h: [] for h in lat | sel}
    for a, b in edges:
        if a in obs and b in obs:
            near[a].add(b)
            near[b].add(a)
        elif a in obs and b in sel:
            groups[b].append(a)
        elif a in lat and b in obs:
            groups[a].append(b)
    for group in groups.values():
        for a in group:
            near[a].update(group)
            near[a].discard(a)
    return {v: len(near[v]) for v in observed}


def _uniform_draw(rng, total, n_observed, n_latent, n_selection,
                  edge_density, reasons):
    order = list(range(total))
    rng.shuffle(order)
    edges = []
    children = {v: 0 for v in range(total)}
    parents = {v: 0 for v in range(total)}
    for i in range(total):
        for j in range(i + 1, total):
            if rng.random() < edge_density:
                edges.append((order[i], order[j]))
                children[order[i]] += 1
                parents[order[j]] += 1
    latent_pool = sorted(v for v in range(total) if children[v] >= 2)
    if len(latent_pool) < n_latent:
        reasons["latent_pool"] += 1
        return None
    latent = rng.sample(latent_pool, n_latent)
    selection_pool = sorted(v for v in range(total)
                            if children[v] == 0 and parents[v] >= 2
                            and v not in latent)
    if len(selection_pool) < n_selection:
        reasons["selection_pool"] += 1
        return None
    selection = rng.sample(selection_pool, n_selection)
    observed = [v for v in range(total)
                if v not in latent and v not in selection]
    return total, edges, observed, latent, selection


def _planted_draw(rng, n_observed, n_latent, n_selection, edge_density):
    order = list(range(n_observed))
    rng.shuffle(order)
    slots = sorted(rng.sample(range(n_observed), 5))
    z = order[slots[0]]
    u, v = order[slots[1]], order[slots[2]]
    x, y = order[slots[3]], order[slots[4]]
    if rng.random() < 0.5:
        u, v = v, u
    if rng.random() < 0.5:
        x, y = y, x
    edges = {(z, u), (z, v), (u, y), (v, x)}
    for i in range(n_observed):
        for j in range(i + 1, n_observed):
            if rng.random() < edge_density:
                edges.add((order[i], order[j]))
    # background edges that would merge the motif pairs outright
    for a, b in ((x, y), (u, x), (v, y), (z, x), (z, y)):
        edges.discard((a, b))
        edges.discard((b, a))
    lat1, lat2 = n_observed, n_observed + 1
    edges |= {(lat1, u), (lat1, x), (lat2, v), (lat2, y)}
    for extra in range(2, n_latent):
        lat = n_observed + extra
        a, b = rng.sample(range(n_observed), 2)
        edges |= {(lat, a), (lat, b)}
    for s_i in range(n_selection):
        sel = n_observed + n_latent + s_i
        a, b = rng.sample(range(n_observed), 2)
        edges |= {(a, sel), (b, sel)}
    total = n_observed + n_latent + n_selection
    return (total, sorted(edges), list(range(n_observed)),
            list(range(n_observed, n_observed + n_latent)),
            list(range(n_observed + n_latent, total)))


def has_dsep_link(dag):
    """True iff the adjacency search leaves an edge absent from the true
    projected graph, i.e. some pair needs a separating node nonadjacent to
    both endpoints."""
    skeleton, _ = pc_adjacency_search(DsepOracle(dag))
    true_pairs = set(latent_project(dag).edge_pairs())
    return any(p not in true_pairs for p in skeleton.edge_pairs())


def bidirected_chain(length):
    """L = length observed nodes X0..X(L-1) joined into the bi-directed
    chain X0 <-> X1 <-> ... <-> X(L-1): latent Li is a parent of Xi and
    X(i+1). Every nonadjacent pair is separated by the empty set, yet each
    inner node is a collider between its neighbours, so the classic
    reachability supersets span the whole chain."""
    if length < 2:
        raise GraphError("a bi-directed chain needs at least 2 nodes")
    names = (["X%d" % i for i in range(length)]
             + ["L%d" % i for i in range(length - 1)])
    edges = [(length + i, j) for i in range(length - 1) for j in (i, i + 1)]
    return CausalDag(len(names), edges, range(length),
                     range(length, len(names)), names=names)


class CanonicalExample:
    """A named reconstructed instance plus its defining facts.

    `facts` is a list of (label, predicate) pairs over the dag; `validate`
    raises ExampleValidationError naming the first violated fact. `k` is the
    degree bound of the projected graph, suitable for running the pipelines.
    """

    def __init__(self, name, dag, k, facts):
        self.name = name
        self.dag = dag
        self.k = k
        self.facts = facts

    def obs_index(self):
        """Map observed variable name -> oracle/projection id."""
        return {self.dag.names[o]: i for i, o in enumerate(self.dag.observed)}

    def validate(self):
        for label, pred in self.facts:
            if not pred(self.dag):
                raise ExampleValidationError(
                    "example %r violates fact: %s" % (self.name, label))
        return self


def _named_dag(names, edges, latent=(), selection=()):
    index = {nm: i for i, nm in enumerate(names)}
    e = [(index[u], index[v]) for u, v in edges]
    lat = [index[v] for v in latent]
    sel = [index[v] for v in selection]
    obs = [i for i in range(len(names)) if i not in lat and i not in sel]
    return CausalDag(len(names), e, obs, lat, sel, names=names)


def _dsep_fact(label, x, y, zs, want=True):
    def pred(dag):
        index = {nm: i for i, nm in enumerate(dag.names)}
        sel = set(dag.selection)
        return d_separated(dag, index[x], index[y],
                           {index[v] for v in zs} | sel) == want
    return (label, pred)


def _nonadjacent_fact(label, x, y):
    def pred(dag):
        mag = latent_project(dag)
        names = [dag.names[o] for o in dag.observed]
        return not mag.has_edge(names.index(x), names.index(y))
    return (label, pred)


def _no_adjacent_subset_separates_fact(label, x, y):
    def pred(dag):
        names = [dag.names[o] for o in dag.observed]
        pair = tuple(sorted((names.index(x), names.index(y))))
        return pair in _true_dsep_links(dag, latent_project(dag))
    return (label, pred)


def _five_node_example():
    # A pair (X, Y) separable only by {U, V, Z} where Z ends up nonadjacent
    # to both X and Y before the pair can be tested against it.
    dag = _named_dag(
        ["U", "V", "X", "Y", "Z", "L1", "L2"],
        [("Z", "U"), ("Z", "V"), ("U", "Y"), ("V", "X"),
         ("L1", "U"), ("L1", "X"), ("L2", "V"), ("L2", "Y")],
        latent=["L1", "L2"],
    )
    facts = [
        _dsep_fact("X _||_ Y | {U,V,Z}", "X", "Y", {"U", "V", "Z"}),
        _nonadjacent_fact("Z not adjacent to X", "Z", "X"),
        _nonadjacent_fact("Z not adjacent to Y", "Z", "Y"),
        _nonadjacent_fact("X not adjacent to Y", "X", "Y"),
        _no_adjacent_subset_separates_fact(
            "no subset of Adj(X) u Adj(Y) separates X, Y", "X", "Y"),
    ]
    return CanonicalExample("five_node_deep_link", dag, 3, facts)


def _hierarchical_example():
    # Two nested gadgets sharing the deep node W: the pair (X, Z) needs
    # {S, T, W}; the pair (X, Y) needs W as well, via {U, V, W}.
    dag = _named_dag(
        ["S", "T", "U", "V", "W", "X", "Y", "Z",
         "D1", "D2", "D3", "D4"],
        [("W", "S"), ("W", "T"), ("S", "Z"), ("T", "X"),
         ("W", "U"), ("W", "V"), ("U", "Y"), ("V", "X"),
         ("D1", "S"), ("D1", "X"), ("D2", "T"), ("D2", "Z"),
         ("D3", "U"), ("D3", "X"), ("D4", "V"), ("D4", "Y")],
        latent=["D1", "D2", "D3", "D4"],
    )
    facts = [
        _dsep_fact("X _||_ Z | {S,T,W}", "X", "Z", {"S", "T", "W"}),
        _dsep_fact("X _||_ Y | {S,T,U,V,W,Z}", "X", "Y",
                   {"S", "T", "U", "V", "W", "Z"}),
        # both pairs need the shared deep node W
        _dsep_fact("X dependent on Y given {U,V}", "X", "Y", {"U", "V"},
                   want=False),
        _dsep_fact("X dependent on Z given {S,T}", "X", "Z", {"S", "T"},
                   want=False),
        _nonadjacent_fact("X not adjacent to Z", "X", "Z"),
        _nonadjacent_fact("X not adjacent to Y", "X", "Y"),
        _nonadjacent_fact("S not adjacent to T", "S", "T"),
    ]
    return CanonicalExample("hierarchical_links", dag, 4, facts)


def _transitive_hierarchy_example():
    # The deep node Z3 separates S from Z1, but also S from W; whichever of
    # the two minimal sets the adjacency search stores, the hierarchy of
    # {X, Y, S, T, U, V} reaches Z3 (directly or through W).
    dag = _named_dag(
        ["S", "T", "U", "V", "W", "X", "Y", "Z1", "Z2", "Z3",
         "C1", "C2", "C3", "C4", "B2"],
        [("Z2", "S"), ("Z2", "T"), ("S", "Y"), ("T", "X"),
         ("Z1", "U"), ("Z1", "V"), ("U", "Y"), ("V", "X"),
         ("W", "Z3"), ("Z3", "Z1"),
         ("C1", "S"), ("C1", "X"), ("C2", "T"), ("C2", "Y"),
         ("C3", "U"), ("C3", "X"), ("C4", "V"), ("C4", "Y"),
         ("B2", "S"), ("B2", "W")],
        latent=["C1", "C2", "C3", "C4", "B2"],
    )
    facts = [
        _dsep_fact("X _||_ Y | {S,T,U,V,Z1,Z2,Z3}", "X", "Y",
                   {"S", "T", "U", "V", "Z1", "Z2", "Z3"}),
        _dsep_fact("S _||_ Z1 | {Z3}", "S", "Z1", {"Z3"}),
        _dsep_fact("S dependent on Z1 marginally (minimality)",
                   "S", "Z1", set(), want=False),
        _dsep_fact("S _||_ Z1 | {W} (alternative minimal set)",
                   "S", "Z1", {"W"}),
        _nonadjacent_fact("S not adjacent to Z1", "S", "Z1"),
        _nonadjacent_fact("X not adjacent to Y", "X", "Y"),
    ]
    return CanonicalExample("transitive_hierarchy", dag, 4, facts)


def canonical_examples():
    """Validated reconstructions of the canonical instances, by name."""
    examples = [_five_node_example(), _hierarchical_example(),
                _transitive_hierarchy_example()]
    return {ex.name: ex.validate() for ex in examples}
