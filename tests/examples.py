"""The paper's worked examples as test data.

They reproduce the classic situations where the plain adjacency search
fails: a pair separable only through a node nonadjacent to both endpoints
(the deep-link motif), a nested variant, and transitive inclusion of deep
separator nodes. EXAMPLES maps each name to (dag, k, facts): k is the
degree bound of the projected graph, and facts lists the independence facts
that define the example, one tuple each:

- ("dsep", x, y, zs): x and y are d-separated given zs;
- ("dep", x, y, zs): they are not;
- ("nonadjacent", x, y): x and y are not adjacent in the projection;
- ("deep", x, y): no subset of Adj(x) u Adj(y) separates them.

tests/test_harness.py checks every fact against the graph.
"""

from collections import namedtuple

from fciplus import CausalDag

Example = namedtuple("Example", "dag k facts")


def _named_dag(names, edges, latent):
    index = {nm: i for i, nm in enumerate(names)}
    lat = [index[v] for v in latent]
    return CausalDag(len(names), [(index[u], index[v]) for u, v in edges],
                     [i for i in range(len(names)) if i not in lat], lat,
                     names=names)


def obs_index(dag):
    """Map observed variable name -> oracle/projection id."""
    return {dag.names[o]: i for i, o in enumerate(dag.observed)}


EXAMPLES = {
    # A pair (X, Y) separable only by {U, V, Z} where Z ends up nonadjacent
    # to both X and Y before the pair can be tested against it.
    "five_node_deep_link": Example(_named_dag(
        ["U", "V", "X", "Y", "Z", "L1", "L2"],
        [("Z", "U"), ("Z", "V"), ("U", "Y"), ("V", "X"),
         ("L1", "U"), ("L1", "X"), ("L2", "V"), ("L2", "Y")],
        latent=["L1", "L2"],
    ), 3, [
        ("dsep", "X", "Y", {"U", "V", "Z"}),
        ("nonadjacent", "Z", "X"),
        ("nonadjacent", "Z", "Y"),
        ("nonadjacent", "X", "Y"),
        ("deep", "X", "Y"),
    ]),
    # Two nested gadgets sharing the deep node W: the pair (X, Z) needs
    # {S, T, W}; the pair (X, Y) needs W as well, via {U, V, W}.
    "hierarchical_links": Example(_named_dag(
        ["S", "T", "U", "V", "W", "X", "Y", "Z",
         "D1", "D2", "D3", "D4"],
        [("W", "S"), ("W", "T"), ("S", "Z"), ("T", "X"),
         ("W", "U"), ("W", "V"), ("U", "Y"), ("V", "X"),
         ("D1", "S"), ("D1", "X"), ("D2", "T"), ("D2", "Z"),
         ("D3", "U"), ("D3", "X"), ("D4", "V"), ("D4", "Y")],
        latent=["D1", "D2", "D3", "D4"],
    ), 4, [
        ("dsep", "X", "Z", {"S", "T", "W"}),
        ("dsep", "X", "Y", {"S", "T", "U", "V", "W", "Z"}),
        # both pairs need the shared deep node W
        ("dep", "X", "Y", {"U", "V"}),
        ("dep", "X", "Z", {"S", "T"}),
        ("nonadjacent", "X", "Z"),
        ("nonadjacent", "X", "Y"),
        ("nonadjacent", "S", "T"),
    ]),
    # The deep node Z3 separates S from Z1, but also S from W; whichever of
    # the two minimal sets the adjacency search stores, the hierarchy of
    # {X, Y, S, T, U, V} reaches Z3 (directly or through W).
    "transitive_hierarchy": Example(_named_dag(
        ["S", "T", "U", "V", "W", "X", "Y", "Z1", "Z2", "Z3",
         "C1", "C2", "C3", "C4", "B2"],
        [("Z2", "S"), ("Z2", "T"), ("S", "Y"), ("T", "X"),
         ("Z1", "U"), ("Z1", "V"), ("U", "Y"), ("V", "X"),
         ("W", "Z3"), ("Z3", "Z1"),
         ("C1", "S"), ("C1", "X"), ("C2", "T"), ("C2", "Y"),
         ("C3", "U"), ("C3", "X"), ("C4", "V"), ("C4", "Y"),
         ("B2", "S"), ("B2", "W")],
        latent=["C1", "C2", "C3", "C4", "B2"],
    ), 4, [
        ("dsep", "X", "Y", {"S", "T", "U", "V", "Z1", "Z2", "Z3"}),
        ("dsep", "S", "Z1", {"Z3"}),
        # minimality: S and Z1 are dependent marginally
        ("dep", "S", "Z1", set()),
        # the alternative minimal set
        ("dsep", "S", "Z1", {"W"}),
        ("nonadjacent", "S", "Z1"),
        ("nonadjacent", "X", "Y"),
    ]),
}
