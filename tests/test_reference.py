"""Reference verifiers: reachability supersets, the exhaustive search of
tests/brute.py, classic two-stage pipeline."""

import itertools
import random

import pytest

from fciplus import (
    ARROW, CIRCLE, CausalDag, DsepOracle, MixedGraph, apply_fci_rules,
    fci_reference, latent_project, orient_v_structures, pc_adjacency_search,
    possible_dsep, run_pipeline, compare_runs,
)
from fciplus.generators import canonical_examples, random_sparse_dag

from .brute import (
    bf_possible_dsep, bf_true_dsep, exhaustive_skeleton, mask, members,
)


class TestPossibleDsep:
    def test_isolated_edge_empty(self):
        g = MixedGraph(2, [(0, 1, CIRCLE, CIRCLE)])
        assert possible_dsep(g, 0, 1) == 0

    def test_collider_on_path_included(self):
        g = MixedGraph(3, [(0, 2, ARROW, ARROW), (1, 2, ARROW, ARROW)])
        assert 2 in members(possible_dsep(g, 0, 1))

    def test_noncollider_nontriangle_breaks_path(self):
        # 0 -> 1 -> 2 with tails at 1: 2 is not reachable from 0
        g = MixedGraph(3, [(0, 1, "tail", ARROW), (1, 2, "tail", ARROW)])
        assert possible_dsep(g, 0, 2) == mask({1})

    def test_triangle_keeps_path_alive(self):
        g = MixedGraph(4, [(0, 1, CIRCLE, CIRCLE), (1, 2, CIRCLE, CIRCLE),
                           (0, 2, CIRCLE, CIRCLE), (2, 3, CIRCLE, CIRCLE)])
        # 1 sits in triangle (0,1,2), so the walk continues to 3
        assert possible_dsep(g, 0, 3) == mask({1, 2})

    @pytest.mark.parametrize("seed", range(8))
    def test_superset_of_true_ancestral_collider_set(self, seed):
        # the reachability superset must cover the set that is guaranteed
        # to separate any separable pair, for every edge the plain search
        # left behind
        rng = random.Random(seed)
        dag = random_sparse_dag(rng.choice([7, 8]), 3, n_latent=2,
                                n_selection=rng.choice([0, 1]),
                                edge_density=0.09, seed=seed + 9100,
                                plant_dsep=True)
        mag = latent_project(dag)
        oracle = DsepOracle(dag)
        skel, seps = pc_adjacency_search(oracle, k=3)
        pi0 = orient_v_structures(skel, seps)
        for a, b in pi0.edge_pairs():
            if mag.has_edge(a, b):
                continue
            assert bf_true_dsep(mag, a, b) <= members(possible_dsep(pi0, a, b))

    @pytest.mark.parametrize("seed", range(10))
    def test_agrees_with_path_enumeration(self, seed):
        rng = random.Random(seed)
        dag = random_sparse_dag(rng.choice([5, 6, 7]), 4,
                                n_latent=rng.choice([0, 1, 2]),
                                edge_density=0.25, seed=seed + 40)
        oracle = DsepOracle(dag)
        skel, seps = pc_adjacency_search(oracle)
        pi0 = orient_v_structures(skel, seps)
        for a, b in itertools.combinations(range(pi0.n), 2):
            assert possible_dsep(pi0, a, b) == \
                mask(bf_possible_dsep(pi0, a, b))


class TestExhaustiveSkeleton:
    def test_empty_dag(self):
        dag = CausalDag(4, [], observed=range(4))
        skel, seps = exhaustive_skeleton(DsepOracle(dag))
        assert skel.n_edges == 0
        assert all(zs == 0 for _, zs in seps.items())

    def test_single_edge_kept(self):
        dag = CausalDag(2, [(0, 1)], observed=range(2))
        skel, _ = exhaustive_skeleton(DsepOracle(dag))
        assert skel.edge_pairs() == [(0, 1)]

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_projection_adjacency(self, seed):
        rng = random.Random(seed)
        dag = random_sparse_dag(rng.choice([6, 7, 8]), 3,
                                n_latent=rng.choice([0, 1, 2]),
                                n_selection=rng.choice([0, 1]),
                                edge_density=0.2, seed=seed + 20)
        skel, _ = exhaustive_skeleton(DsepOracle(dag))
        assert sorted(skel.edge_pairs()) == \
            sorted(latent_project(dag).edge_pairs())


class TestFciReference:
    def test_sufficient_instance_equals_pc_pipeline(self):
        dag = random_sparse_dag(8, 3, edge_density=0.25, seed=3)
        a = run_pipeline("pc", DsepOracle(dag), k=3, with_checks=False)
        b = run_pipeline("fci", DsepOracle(dag), k=3, with_checks=False)
        assert compare_runs(a, b)["identical"]

    def test_canonical_edge_removed(self):
        ex = canonical_examples()["five_node_deep_link"]
        m = ex.obs_index()
        pag, skel, seps, removed = fci_reference(DsepOracle(ex.dag), k=ex.k)
        assert not skel.has_edge(m["X"], m["Y"])
        assert seps.get(m["X"], m["Y"]) is not None
        assert removed["reference"] == 1

    @pytest.mark.parametrize("seed", range(8))
    def test_pag_equals_exhaustive_skeleton_pag(self, seed):
        rng = random.Random(seed)
        dag = random_sparse_dag(rng.choice([8, 9, 10]), 3, n_latent=2,
                                n_selection=rng.choice([0, 1]),
                                edge_density=0.09, seed=seed + 1200,
                                plant_dsep=(seed % 2 == 0))
        pag, _, _, _ = fci_reference(DsepOracle(dag), k=3)
        skel, seps = exhaustive_skeleton(DsepOracle(dag))
        truth = apply_fci_rules(orient_v_structures(skel, seps), seps)
        assert pag == truth
