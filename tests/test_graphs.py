"""Graph core: ancestry, separation criteria, latent projection, I/O."""

import itertools
import json
import random

import pytest

from fciplus import (
    ARROW, CIRCLE, TAIL, CausalDag, GraphError, MixedGraph, d_separated,
    latent_project,
)
from fciplus import graphs
from fciplus.graphs import ModelViolationError

from .brute import (
    bf_d_separated, bf_m_separated, bf_mag_adjacent, brute_projection,
    is_ancestral, mag_ancestors, moral_d_separated, naive_ancestors,
    naive_components, relaxed_inducing_pairs,
)


def chain3():
    return CausalDag(3, [(0, 1), (1, 2)], observed=[0, 1, 2],
                     names=["A", "B", "C"])


def random_dag(n, density, seed, n_latent=0, n_selection=0):
    rng = random.Random(seed)
    total = n + n_latent + n_selection
    order = list(range(total))
    rng.shuffle(order)
    edges = []
    for i in range(total):
        for j in range(i + 1, total):
            if rng.random() < density:
                edges.append((order[i], order[j]))
    # selection variables must be childless for a well-formed example
    special = rng.sample(range(total), n_latent + n_selection)
    latent, selection = special[:n_latent], special[n_latent:]
    edges = [(u, v) for u, v in edges if u not in selection]
    observed = [v for v in range(total) if v not in special]
    return CausalDag(total, edges, observed, latent, selection)


def sparse_dags(count, seed):
    """Seeded random_dag draws with 8-20 observed nodes, pair density 1/n,
    0-3 latents and 0-1 selection variables: most have several skeleton
    components."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = rng.randint(8, 20)
        out.append(random_dag(n, 1.0 / n, seed * 1000 + i,
                              n_latent=rng.randint(0, 3),
                              n_selection=rng.randint(0, 1)))
    return out


def is_mag(g):
    """No circle marks, and ancestral."""
    return all(CIRCLE not in e[2:] for e in g.edges()) and is_ancestral(g)


def pair_kinds(dag):
    """{kind: count} over the observed pairs of dag, by how latent_project
    settles them: "edge" (a DAG edge joins them), "walk" (no edge, but a
    relaxed inducing path does, from relaxed_inducing_pairs) or "apart"
    (neither)."""
    joined = relaxed_inducing_pairs(dag)
    kinds = {"apart": 0, "edge": 0, "walk": 0}
    for a, b in itertools.combinations(dag.observed, 2):
        if (a, b) in dag.edges or (b, a) in dag.edges:
            kinds["edge"] += 1
        elif (a, b) in joined:
            kinds["walk"] += 1
        else:
            kinds["apart"] += 1
    return kinds


class TestAncestors:
    def test_chain_transitive_closure(self):
        assert chain3().ancestors([2]) == {0, 1, 2}

    def test_empty_seed(self):
        assert chain3().ancestors([]) == frozenset()

    def test_collider_has_no_ancestors_beyond_itself(self):
        dag = CausalDag(3, [(0, 2), (1, 2)], observed=[0, 1, 2])
        assert dag.ancestors([0]) == {0}

    def test_unknown_id_rejected(self):
        with pytest.raises(GraphError):
            chain3().ancestors([7])

    @pytest.mark.parametrize("seed", range(5))
    def test_monotone_and_idempotent(self, seed):
        dag = random_dag(7, 0.3, seed)
        rng = random.Random(seed)
        xs = set(rng.sample(range(7), 2))
        ys = xs | {rng.randrange(7)}
        assert dag.ancestors(xs) <= dag.ancestors(ys)
        assert dag.ancestors(dag.ancestors(xs)) == dag.ancestors(xs)

    @pytest.mark.parametrize("seed", range(6))
    def test_agrees_with_parent_walk_on_larger_dags(self, seed):
        n = 16 + seed % 3 * 4
        dag = random_dag(n, 2.5 / n, seed, n_latent=3, n_selection=1)
        rng = random.Random(seed + 300)
        for v in range(dag.n):
            assert dag.ancestors([v]) == naive_ancestors(dag, {v})
        for _ in range(50):
            xs = rng.sample(range(dag.n), rng.randrange(4))
            assert dag.ancestors(xs) == naive_ancestors(dag, xs)

    def test_mixed_graph_directed_paths_only(self):
        g = MixedGraph(3, [(0, 1, TAIL, ARROW), (1, 2, ARROW, ARROW)])
        assert mag_ancestors(g, [1]) == {0, 1}
        assert mag_ancestors(g, [2]) == {2}


class TestDSeparation:
    def test_blocked_chain(self):
        dag = chain3()
        assert d_separated(dag, 0, 2, {1})
        assert not d_separated(dag, 0, 2, set())

    def test_collider_opens_under_conditioning(self):
        dag = CausalDag(3, [(0, 2), (1, 2)], observed=[0, 1, 2])
        assert d_separated(dag, 0, 1, set())
        assert not d_separated(dag, 0, 1, {2})

    def test_descendant_of_collider_opens(self):
        dag = CausalDag(4, [(0, 2), (1, 2), (2, 3)], observed=[0, 1, 2, 3])
        assert not d_separated(dag, 0, 1, {3})

    def test_input_validation(self):
        dag = chain3()
        with pytest.raises(GraphError):
            d_separated(dag, 0, 0, set())
        with pytest.raises(GraphError):
            d_separated(dag, 0, 2, {0})
        with pytest.raises(GraphError):
            d_separated(dag, 0, 9, set())

    @pytest.mark.parametrize("seed", range(8))
    def test_agrees_with_path_enumeration_all_triples(self, seed):
        n = 5 + seed % 4  # up to 8 nodes
        dag = random_dag(n, 0.35, seed)
        rest = list(range(n))
        for x, y in itertools.combinations(range(n), 2):
            others = [v for v in rest if v not in (x, y)]
            for r in range(len(others) + 1):
                for zs in itertools.combinations(others, r):
                    assert d_separated(dag, x, y, set(zs)) == \
                        bf_d_separated(dag, x, y, set(zs)), (x, y, zs)

    @pytest.mark.parametrize("seed", range(6))
    def test_agrees_with_moral_graph_on_larger_dags(self, seed):
        n = 16 + seed % 3 * 4   # 16, 20 or 24 observed
        dag = random_dag(n, 2.5 / n, seed, n_latent=3 + seed % 3,
                         n_selection=1 + seed % 2)
        rng = random.Random(seed + 200)
        total, sel = dag.n, set(dag.selection)
        for _ in range(300):
            x, y = rng.sample(range(total), 2)
            zs = {v for v in range(total)
                  if v not in (x, y) and rng.random() < 0.2}
            if rng.random() < 0.5:
                zs |= sel - {x, y}
            assert d_separated(dag, x, y, zs) == \
                moral_d_separated(dag, x, y, zs), (x, y, sorted(zs))

    @pytest.mark.parametrize("seed", range(6))
    def test_agrees_with_moral_graph_across_components(self, seed):
        dag = sparse_dags(1, seed + 40)[0]
        comps = naive_components(dag)
        assert len(comps) >= 2
        comp = {v: frozenset(c) for c in comps for v in c}
        rng = random.Random(seed + 600)
        total, sel = dag.n, set(dag.selection)
        cross = 0
        for _ in range(300):
            x, y = rng.sample(range(total), 2)
            zs = {v for v in range(total)
                  if v not in (x, y) and rng.random() < 0.3}
            if rng.random() < 0.5:
                zs |= sel - {x, y}
            cross += y not in comp[x]
            assert d_separated(dag, x, y, zs) == \
                moral_d_separated(dag, x, y, zs), (x, y, sorted(zs))
        assert 0 < cross < 300

    @pytest.mark.parametrize("seed", range(6))
    def test_symmetry(self, seed):
        dag = random_dag(7, 0.3, seed)
        rng = random.Random(seed + 100)
        for _ in range(30):
            x, y = rng.sample(range(7), 2)
            zs = {v for v in range(7) if v not in (x, y) and rng.random() < 0.3}
            assert d_separated(dag, x, y, zs) == d_separated(dag, y, x, zs)


class TestMSeparation:
    def test_adjacent_never_separated(self):
        g = MixedGraph(2, [(0, 1, ARROW, ARROW)])
        assert not bf_m_separated(g, 0, 1, set())

    def test_bidirected_chain_collider(self):
        g = MixedGraph(3, [(0, 2, ARROW, ARROW), (1, 2, ARROW, ARROW)])
        assert bf_m_separated(g, 0, 1, set())
        assert not bf_m_separated(g, 0, 1, {2})

    def test_rejects_non_mag(self):
        # is_mag, which test_marks_follow_ancestry_and_result_is_mag applies
        # to every projection, rejects each kind of non-MAG
        assert is_mag(MixedGraph(2, [(0, 1, ARROW, TAIL)]))   # 1 -> 0
        assert is_mag(MixedGraph(3, [(0, 1, TAIL, TAIL),
                                     (1, 2, TAIL, ARROW)]))   # 0 -- 1 -> 2
        assert not is_mag(MixedGraph(2, [(0, 1, CIRCLE, CIRCLE)]))
        cyc = MixedGraph(3, [(0, 1, TAIL, ARROW), (1, 2, TAIL, ARROW),
                             (0, 2, ARROW, TAIL)])
        almost_cyc = MixedGraph(3, [(0, 1, TAIL, ARROW), (1, 2, TAIL, ARROW),
                                    (0, 2, ARROW, ARROW)])
        into_undirected = MixedGraph(3, [(0, 1, TAIL, TAIL),
                                         (1, 2, ARROW, TAIL)])
        for g in (cyc, almost_cyc, into_undirected):
            assert not is_ancestral(g) and not is_mag(g)

    @pytest.mark.parametrize("seed", range(10))
    def test_projection_consistency_exhaustive(self, seed):
        # m-separation in the projected MAG == d-separation (plus selection)
        # in the dag, for every observed triple; up to 8 observed nodes
        rng = random.Random(seed)
        n = rng.choice([4, 5, 6])
        dag = random_dag(n, 0.3, seed, n_latent=rng.choice([1, 2]),
                         n_selection=rng.choice([0, 1]))
        mag = latent_project(dag)
        obs = dag.observed
        sel = set(dag.selection)
        for x, y in itertools.combinations(range(len(obs)), 2):
            others = [v for v in range(len(obs)) if v not in (x, y)]
            for r in range(len(others) + 1):
                for zs in itertools.combinations(others, r):
                    want = d_separated(dag, obs[x], obs[y],
                                       {obs[v] for v in zs} | sel)
                    assert bf_m_separated(mag, x, y, set(zs)) == want


class TestLatentProjection:
    def test_sufficient_dag_projects_to_itself(self):
        dag = chain3()
        mag = latent_project(dag)
        assert mag.edges() == [(0, 1, TAIL, ARROW), (1, 2, TAIL, ARROW)]

    def test_confounder_yields_bidirected(self):
        dag = CausalDag(3, [(2, 0), (2, 1)], observed=[0, 1], latent=[2])
        assert latent_project(dag).edges() == [(0, 1, ARROW, ARROW)]

    def test_selection_yields_undirected(self):
        dag = CausalDag(3, [(0, 2), (1, 2)], observed=[0, 1], selection=[2])
        assert latent_project(dag).edges() == [(0, 1, TAIL, TAIL)]

    @pytest.mark.parametrize("seed", range(12))
    def test_adjacency_matches_subset_exhaustive_definition(self, seed):
        rng = random.Random(seed)
        n = rng.choice([4, 5, 6])
        dag = random_dag(n, 0.3, seed + 50, n_latent=rng.choice([0, 1, 2]),
                         n_selection=rng.choice([0, 1]))
        mag = latent_project(dag)
        obs = dag.observed
        for i, j in itertools.combinations(range(len(obs)), 2):
            assert mag.has_edge(i, j) == bf_mag_adjacent(dag, obs[i], obs[j])

    @pytest.mark.parametrize("seed", range(12))
    def test_marks_follow_ancestry_and_result_is_mag(self, seed):
        rng = random.Random(seed)
        dag = random_dag(6, 0.3, seed + 90, n_latent=rng.choice([1, 2]),
                         n_selection=rng.choice([0, 1]))
        mag = latent_project(dag)
        assert is_mag(mag)
        obs = dag.observed
        sel = list(dag.selection)
        for a, b, ma, mb in mag.edges():
            assert (ma == TAIL) == (obs[a] in dag.ancestors([obs[b]] + sel))
            assert (mb == TAIL) == (obs[b] in dag.ancestors([obs[a]] + sel))


    def test_equals_brute_projection_on_sparse_dags(self):
        kinds = {"apart": 0, "edge": 0, "walk": 0}
        for dag in sparse_dags(40, 7):
            assert latent_project(dag).edges() == brute_projection(dag), \
                dag.to_json()
            for kind, count in pair_kinds(dag).items():
                kinds[kind] += count
        # both shortcuts and the walk are exercised
        assert min(kinds.values()) >= 50, kinds

    def test_equals_brute_projection_with_latents_and_selection(self):
        # denser draws, each with latents and selection variables, so that
        # inducing paths run through latent chains and colliders
        rng = random.Random(29)
        walked = 0
        for seed in range(300):
            n = rng.randint(5, 12)
            dag = random_dag(n, rng.choice([1.5, 2.5, 4.0]) / n, seed + 500,
                             n_latent=rng.randint(1, 4),
                             n_selection=rng.randint(1, 2))
            assert latent_project(dag).edges() == brute_projection(dag), \
                dag.to_json()
            walked += pair_kinds(dag)["walk"]
        assert walked >= 500


class TestComponents:
    @pytest.mark.parametrize("seed", range(4))
    def test_masks_match_naive_components(self, seed):
        for dag in sparse_dags(10, seed + 80):
            for comp in naive_components(dag):
                mask = sum(1 << v for v in comp)
                assert all(dag._comp[v] == mask for v in comp)

    def test_projection_walks_only_unsettled_pairs(self, corpus, monkeypatch):
        # latent_project walks exactly the pairs that a relaxed inducing
        # path joins and no DAG edge does; walking every candidate joined by
        # an edge, or every same-component pair, adds walks
        walks = 0
        real = graphs.dsep_reach

        def counted(*args):
            nonlocal walks
            walks += 1
            return real(*args)

        monkeypatch.setattr(graphs, "dsep_reach", counted)
        want = 0
        for inst in corpus:
            latent_project(inst.dag)
            want += pair_kinds(inst.dag)["walk"]
        assert walks == want


class TestGraphValues:
    def test_edits_produce_new_graphs(self):
        # editing a copy leaves the source's edges and adjacency intact
        g = MixedGraph(2, [(0, 1, CIRCLE, CIRCLE)])
        g2 = g.copy()
        g2.remove_edge(0, 1)
        assert g.has_edge(0, 1) and g.adj(0) == [1] and g.adj(1) == [0]
        assert not g2.has_edge(0, 1) and not g2.adj(0)

    def test_builder_conflict_raises(self):
        g = MixedGraph(2, [(0, 1, TAIL, ARROW)])
        with pytest.raises(ModelViolationError):
            g.set_mark(0, 1, ARROW)
        assert g.set_mark(0, 1, TAIL) is False  # no-op

    def test_mark_table_reads(self):
        g = MixedGraph(3, [(0, 1, TAIL, ARROW), (1, 2, CIRCLE, ARROW)])
        assert g.mark(0, 1) == TAIL and g.mark(1, 0) == ARROW
        assert g.mark(0, 2) is None and not g.has_edge(0, 2)
        assert g.is_directed_edge(0, 1) and not g.is_directed_edge(1, 0)
        assert not g.is_directed_edge(0, 2) and g.n_edges == 2
        assert g.edges() == [(0, 1, TAIL, ARROW), (1, 2, CIRCLE, ARROW)]

    def test_builder_round_trip(self):
        g = MixedGraph(3, [(0, 1, TAIL, ARROW), (1, 2, CIRCLE, ARROW)],
                       names=["a", "b", "c"])
        back = g.copy()
        assert back == g
        assert back.adj(1) == g.adj(1) == [0, 2]

    def test_either_endpoint_order_builds_equal_graphs(self):
        g = MixedGraph(3, [(0, 1, TAIL, ARROW), (1, 2, CIRCLE, ARROW)])
        h = MixedGraph(3, [(2, 1, ARROW, CIRCLE), (1, 0, ARROW, TAIL)])
        assert g == h and g.edges() == h.edges()

    def test_adjacency_ascending_for_edges_out_of_order(self):
        g = MixedGraph(40, [(0, 3, CIRCLE, CIRCLE), (0, 35, CIRCLE, CIRCLE)])
        assert list(g.adj(0)) == [3, 35]
        h = MixedGraph(5, [(4, 2, TAIL, ARROW), (2, 0, CIRCLE, CIRCLE),
                           (3, 2, ARROW, ARROW), (1, 2, CIRCLE, TAIL)])
        assert list(h.adj(2)) == [0, 1, 3, 4]

    def test_builder_edits(self):
        g = MixedGraph(3, [(0, 1, TAIL, ARROW), (2, 0, ARROW, CIRCLE)])
        assert g.adj(0) == [1, 2] and g.mark(0, 2) == CIRCLE
        with pytest.raises(GraphError):
            g.set_mark(1, 2, ARROW)       # nonadjacent pair
        with pytest.raises(ModelViolationError):
            g.set_mark(1, 0, TAIL)        # tail over a committed arrowhead
        g.remove_edge(1, 0)
        assert g == MixedGraph(3, [(0, 2, CIRCLE, ARROW)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphError):
            MixedGraph(2, [(0, 1, TAIL, ARROW), (1, 0, TAIL, ARROW)])

    def test_dag_cycle_rejected(self):
        with pytest.raises(GraphError):
            CausalDag(2, [(0, 1), (1, 0)], observed=[0, 1])

    def test_buried_cycle_rejected(self):
        # 6 -> 7 -> 8 -> 6 inside a 10-node DAG; node 2 hangs below the
        # cycle, so the lowest node left unsorted is not on it
        edges = [(0, 1), (1, 6), (0, 3), (3, 4), (6, 7), (7, 8), (8, 6),
                 (7, 2), (2, 5), (4, 9), (8, 9)]
        with pytest.raises(GraphError, match=r"directed cycle through [678]$"):
            CausalDag(10, edges, observed=range(10))

    def test_partition_must_be_exhaustive(self):
        with pytest.raises(GraphError):
            CausalDag(3, [], observed=[0, 1])

    def test_mixed_graph_json_round_trip(self):
        g = MixedGraph(3, [(0, 1, TAIL, ARROW), (1, 2, ARROW, CIRCLE)],
                       names=["a", "b", "c"])
        assert MixedGraph.from_json(g.to_json()) == g

    def test_dag_json_round_trip(self):
        dag = CausalDag(4, [(0, 1), (2, 1)], observed=[0, 1], latent=[2],
                        selection=[3], names=["w", "x", "l", "s"])
        assert CausalDag.from_json(dag.to_json()) == dag

    def test_json_schema_fields(self):
        d = json.loads(chain3().to_json())
        assert set(d) == {"n", "names", "observed", "latent", "selection", "edges"}
        assert d["edges"][0] == {"a": 0, "b": 1, "mark_a": "tail", "mark_b": "arrow"}

    def test_dot_export_marks(self):
        g = MixedGraph(2, [(0, 1, CIRCLE, ARROW)])
        dot = g.to_dot()
        assert "arrowtail=odot" in dot and "arrowhead=normal" in dot
        und = MixedGraph(2, [(0, 1, TAIL, TAIL)]).to_dot()
        assert "arrowtail=none" in und and "arrowhead=none" in und

    def test_edge_iteration_is_lexicographic(self):
        g = MixedGraph(4, [(2, 3, CIRCLE, CIRCLE), (0, 3, CIRCLE, CIRCLE),
                           (0, 1, CIRCLE, CIRCLE)])
        assert g.edge_pairs() == [(0, 1), (0, 3), (2, 3)]
