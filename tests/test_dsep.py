"""Candidate-link detection, hierarchies, minimal separators, the search."""

import contextlib
import itertools
import random

import pytest

from fciplus import (
    ARROW, CIRCLE, TAIL, CausalDag, DsepOracle, MixedGraph, SepsetMap,
    augment_graph, dsep_search, find_possible_dsep_links, hie, latent_project,
    minimal_dsep, pc_adjacency_search, run_pipeline,
)
from fciplus.oracles import OracleStats
from fciplus.generators import canonical_examples, random_sparse_dag

from .brute import bf_separable


def bidirected(n, pairs):
    return MixedGraph(n, [(a, b, ARROW, ARROW) for a, b in pairs])


def planted_dag(seed):
    rng = random.Random(seed)
    return random_sparse_dag(rng.choice([8, 9, 10]), 3, n_latent=2,
                             n_selection=rng.choice([0, 1]),
                             edge_density=0.08, seed=seed + 5000,
                             plant_dsep=True)


class TestPatternDetection:
    def test_no_bidirected_edges_no_links(self):
        g = MixedGraph(4, [(0, 1, CIRCLE, CIRCLE), (1, 2, TAIL, ARROW)])
        assert find_possible_dsep_links(g) == []

    def test_canonical_pattern_detected(self):
        ex = canonical_examples()["hierarchical_links"]
        oracle = DsepOracle(ex.dag)
        skel, seps = pc_adjacency_search(oracle, k=ex.k)
        gplus = augment_graph(skel, seps, oracle)
        m = ex.obs_index()
        links = find_possible_dsep_links(gplus)
        assert (min(m["X"], m["Z"]), max(m["X"], m["Z"])) in links

    def test_triangle_with_shared_flank_not_detected(self):
        # u <-> x <-> y <-> u: the only flank candidates coincide
        g = bidirected(3, [(0, 1), (1, 2), (0, 2)])
        assert find_possible_dsep_links(g) == []

    def test_adjacent_flanks_not_detected(self):
        # u <-> x <-> y <-> v but u, v adjacent
        g = bidirected(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert find_possible_dsep_links(g) == []

    def test_chain_of_four_detects_middle_edge(self):
        g = bidirected(4, [(0, 1), (1, 2), (2, 3)])
        assert find_possible_dsep_links(g) == [(1, 2)]

    def test_ordering_is_lexicographic(self):
        g = bidirected(8, [(2, 3), (1, 2), (3, 4), (5, 6), (6, 7), (4, 5)])
        links = find_possible_dsep_links(g)
        assert links == sorted(links)


class TestHierarchy:
    def test_empty_sepsets_closure_is_seed(self):
        h = hie({1, 2}, SepsetMap())
        assert h.closure == {1, 2} and h.seed == {1, 2}

    def test_closure_is_idempotent(self):
        seps = SepsetMap()
        seps.set(0, 1, {2}, 1)
        seps.set(2, 3, {4}, 1)
        h = hie({0, 1, 3}, seps)
        assert hie(h.closure, seps).closure == h.closure

    def test_transitive_inclusion_regardless_of_stored_alternative(self):
        # ids: X=0 Y=1 S=2 T=3 U=4 V=5 W=6 Z1=7 Z2=8 Z3=9. Whichever
        # minimal set was stored for (S, Z1), the deep node Z3 ends up in
        # the closure of {X, Y, S, T, U, V}: directly, or through W.
        base = SepsetMap()
        base.set(2, 3, {8}, 1)   # sep(S,T) = {Z2}
        base.set(4, 5, {7}, 1)   # sep(U,V) = {Z1}
        base.set(6, 7, {9}, 1)   # sep(W,Z1) = {Z3}
        seed = {0, 1, 2, 3, 4, 5}

        direct = base.copy()
        direct.set(2, 7, {9}, 1)   # sep(S,Z1) = {Z3}
        assert 9 in hie(seed, direct).closure

        indirect = base.copy()
        indirect.set(2, 7, {6}, 1)  # sep(S,Z1) = {W}
        closure = hie(seed, indirect).closure
        assert 6 in closure and 9 in closure

    def test_matches_canonical_reconstruction(self):
        ex = canonical_examples()["transitive_hierarchy"]
        oracle = DsepOracle(ex.dag)
        _, seps = pc_adjacency_search(oracle, k=ex.k)
        m = ex.obs_index()
        seed = {m[v] for v in ("X", "Y", "S", "T", "U", "V")}
        assert m["Z3"] in hie(seed, seps).closure


class TestMinimalDsep:
    def test_already_minimal_unchanged(self):
        dag = CausalDag(3, [(0, 1), (1, 2)], observed=range(3))
        assert minimal_dsep(0, 2, frozenset({1}), DsepOracle(dag)) == {1}

    def test_isolated_node_removed(self):
        dag = CausalDag(4, [(0, 1), (1, 2)], observed=range(4))
        assert minimal_dsep(0, 2, frozenset({1, 3}), DsepOracle(dag)) == {1}

    def test_precondition_violation_raises(self):
        dag = CausalDag(2, [(0, 1)], observed=range(2))
        with pytest.raises(RuntimeError):
            minimal_dsep(0, 1, frozenset(), DsepOracle(dag))

    @pytest.mark.parametrize("seed", range(12))
    def test_output_minimal_by_brute_force(self, seed):
        rng = random.Random(seed)
        n = rng.choice([6, 7, 8])
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.3]
        dag = CausalDag(n, edges, observed=range(n))
        oracle = DsepOracle(dag)
        checked = 0
        for x, y in itertools.combinations(range(n), 2):
            full = frozenset(v for v in range(n) if v not in (x, y))
            if not oracle.query(x, y, full):
                continue
            zmin = minimal_dsep(x, y, full, oracle)
            assert oracle.query(x, y, zmin)
            for r in range(len(zmin)):
                for sub in itertools.combinations(sorted(zmin), r):
                    assert not oracle.query(x, y, frozenset(sub)), \
                        "a strict subset separates"
            checked += 1
            if checked >= 3:
                break


class TestDsepSearch:
    def test_canonical_resolution(self):
        ex = canonical_examples()["five_node_deep_link"]
        oracle = DsepOracle(ex.dag)
        skel, seps = pc_adjacency_search(oracle, k=ex.k)
        gplus = augment_graph(skel, seps, oracle)
        m = ex.obs_index()
        x, y = m["X"], m["Y"]
        assert gplus.has_edge(x, y)
        g2, seps2, log = dsep_search(gplus, seps, oracle, k=ex.k)
        assert not g2.has_edge(x, y)
        assert seps2.get(x, y) == {m["U"], m["V"], m["Z"]}
        assert m["Z"] not in g2.adj(x) | g2.adj(y)
        assert len(log.resolutions) == 1
        assert log.resolutions[0]["pattern_present"]

    def test_no_pattern_means_no_stage_queries(self):
        dag = CausalDag(3, [(0, 1), (1, 2)], observed=range(3))
        oracle = DsepOracle(dag)
        skel, seps = pc_adjacency_search(oracle)
        gplus = augment_graph(skel, seps, oracle)
        g2, _, log = dsep_search(gplus, seps, oracle, k=3)
        assert g2 == gplus
        assert oracle.stats.stages["dsep_search"].queries == 0
        assert log.resolutions == [] and log.detected == [[]]

    @pytest.mark.parametrize("seed", range(10))
    def test_final_skeleton_matches_truth(self, seed):
        dag = planted_dag(seed)
        oracle = DsepOracle(dag)
        skel, seps = pc_adjacency_search(oracle, k=3)
        gplus = augment_graph(skel, seps, oracle)
        g2, _, _ = dsep_search(gplus, seps, oracle, k=3)
        assert sorted(g2.edge_pairs()) == sorted(latent_project(dag).edge_pairs())

    @pytest.mark.parametrize("seed", range(6))
    def test_fixpoint_no_separable_pair_remains(self, seed):
        rng = random.Random(seed)
        dag = random_sparse_dag(rng.choice([7, 8]), 3, n_latent=2,
                                edge_density=0.1, seed=seed + 6000,
                                plant_dsep=True)
        oracle = DsepOracle(dag)
        skel, seps = pc_adjacency_search(oracle, k=3)
        gplus = augment_graph(skel, seps, oracle)
        g2, _, _ = dsep_search(gplus, seps, oracle, k=3)
        obs = dag.observed
        for a, b in g2.edge_pairs():
            assert not bf_separable(dag, obs[a], obs[b]), \
                "edge left although some subset separates it"

    def test_both_canonical_links_resolve(self):
        ex = canonical_examples()["hierarchical_links"]
        oracle = DsepOracle(ex.dag)
        skel, seps = pc_adjacency_search(oracle, k=ex.k)
        gplus = augment_graph(skel, seps, oracle)
        g2, _, log = dsep_search(gplus, seps, oracle, k=ex.k)
        assert len(log.resolutions) == 2
        assert len(log.resolutions) <= gplus.n_edges
        assert log.failed_final == []

    @pytest.mark.parametrize("source", [
        "five_node_deep_link", "hierarchical_links", "transitive_hierarchy",
        0, 1, 2, 3, 4, 5])
    def test_each_stored_set_augments_once(self, source):
        # the incremental augment after each resolution must give the graph
        # a from-scratch augment of the final skeleton gives, without ever
        # repeating an augment query
        if isinstance(source, str):
            ex = canonical_examples()[source]
            dag, k = ex.dag, ex.k
        else:
            dag, k = planted_dag(source), 3
        report = run_pipeline("fciplus", DsepOracle(dag), k=k,
                              with_checks=False)
        augment = report.stats["augment"]
        assert augment["queries"] == augment["distinct"]
        oracle = DsepOracle(dag)
        skel, seps = pc_adjacency_search(oracle, k=k)
        g2, seps2, log = dsep_search(augment_graph(skel, seps, oracle), seps,
                                     oracle, k=k)
        bare = skel.builder()
        for r in log.resolutions:
            bare.remove_edge(*r["pair"])
        assert g2 == augment_graph(bare.build(), seps2, oracle)

    @pytest.mark.parametrize("seed", range(5))
    def test_reactivations_bounded(self, seed):
        dag = random_sparse_dag(9, 3, n_latent=2, edge_density=0.08,
                                seed=seed + 7700, plant_dsep=True)
        oracle = DsepOracle(dag)
        skel, seps = pc_adjacency_search(oracle, k=3)
        gplus = augment_graph(skel, seps, oracle)
        _, _, log = dsep_search(gplus, seps, oracle, k=3)
        max_links = max((len(batch) for batch in log.detected), default=0)
        assert log.reactivations <= len(log.resolutions) * max_links


class _ScriptedOracle:
    """Fixed answer table; anything not listed is dependent."""

    def __init__(self, table, n_vars):
        self.table = dict(table)
        self.n_vars = n_vars
        self.names = None
        self.stats = OracleStats()
        self._stage = "reference"

    @contextlib.contextmanager
    def stage(self, name):
        prev = self._stage
        self._stage = name
        try:
            yield self
        finally:
            self._stage = prev

    def query(self, x, y, z):
        key = (min(x, y), max(x, y), frozenset(z))
        self.stats.record(self._stage, key, len(z))
        return self.table.get(key, False)


class TestWorkListSemantics:
    def test_failed_candidate_retried_after_resolution(self):
        # Two candidate links on bi-directed chains 0-1-2-3 and 4-5-6-7:
        # (1,2) flanked by 0 and 3, (5,6) flanked by 4 and 7. The pair
        # (0,3) carries the stored set {5,6}, so once (5,6) resolves with
        # {4}, the hierarchy of (1,2)'s bases grows by {4,5,6} and only
        # then does its query succeed.
        g = bidirected(8, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)])
        seps = SepsetMap()
        seps.set(0, 3, {5, 6}, 2)
        table = {
            (5, 6, frozenset({4})): True,
            (1, 2, frozenset({0, 3, 4, 5, 6})): True,
        }
        oracle = _ScriptedOracle(table, 8)
        assert find_possible_dsep_links(g) == [(1, 2), (5, 6)]
        g2, seps2, log = dsep_search(g, seps, oracle, k=1)
        assert not g2.has_edge(5, 6)
        assert not g2.has_edge(1, 2), "failed candidate must be retried"
        assert log.reactivations == 1
        assert seps2.get(5, 6) == {4}
        assert seps2.get(1, 2) == {0, 3, 4, 5, 6}
        assert [tuple(r["pair"]) for r in log.resolutions] == [(5, 6), (1, 2)]

    def test_double_resolution_guard(self):
        # a lying oracle cannot make the same link resolve twice: once
        # resolved, the edge is gone and cannot re-enter the pattern list
        g = bidirected(4, [(0, 1), (1, 2), (2, 3)])
        table = {(1, 2, frozenset()): True}
        oracle = _ScriptedOracle(table, 4)
        g2, _, log = dsep_search(g, SepsetMap(), oracle, k=1)
        assert not g2.has_edge(1, 2)
        assert len(log.resolutions) == 1
