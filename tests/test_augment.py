"""Augmented skeleton: invariant arrowheads from single-node dependencies."""

import random

import pytest

from fciplus import (
    ARROW, CIRCLE, CausalDag, DsepOracle, augment_graph,
    find_possible_dsep_links, orient_v_structures, pc_adjacency_search,
    run_pipeline,
)
from fciplus.augment import AugmentedSkeleton
from fciplus.generators import canonical_examples, random_sparse_dag

from .brute import mask
from .test_dsep import planted_dag


def run_to_gplus(dag, k=None):
    oracle = DsepOracle(dag)
    skel, seps = pc_adjacency_search(oracle, k=k)
    return augment_graph(skel, seps, oracle), skel, seps, oracle


class TestAugment:
    def test_unshielded_collider_gets_both_arrowheads(self):
        dag = CausalDag(3, [(0, 2), (1, 2)], observed=range(3))
        gplus, _, _, _ = run_to_gplus(dag)
        assert gplus.mark(2, 0) == ARROW and gplus.mark(2, 1) == ARROW
        # far endpoints stay circles
        assert gplus.mark(0, 2) == CIRCLE and gplus.mark(1, 2) == CIRCLE

    def test_chain_has_no_candidates(self):
        dag = CausalDag(3, [(0, 1), (1, 2)], observed=range(3))
        oracle = DsepOracle(dag)
        skel, seps = pc_adjacency_search(oracle)
        before = oracle.stats.stages["augment"].queries
        gplus = augment_graph(skel, seps, oracle)
        assert gplus == skel
        assert oracle.stats.stages["augment"].queries == before == 0

    def test_canonical_hierarchical_pattern_present(self):
        ex = canonical_examples()["hierarchical_links"]
        gplus, _, _, _ = run_to_gplus(ex.dag, k=ex.k)
        m = ex.obs_index()
        for a, b in [("S", "X"), ("X", "Z"), ("Z", "T")]:
            assert gplus.is_bidirected(m[a], m[b]), (a, b)
        assert not gplus.has_edge(m["S"], m["T"])

    def test_idempotent(self):
        ex = canonical_examples()["five_node_deep_link"]
        gplus, _, seps, oracle = run_to_gplus(ex.dag, k=ex.k)
        assert augment_graph(gplus, seps, oracle) == gplus

    @pytest.mark.parametrize("seed", range(10))
    def test_arrowheads_sound_vs_ground_truth(self, seed):
        rng = random.Random(seed)
        dag = random_sparse_dag(rng.choice([6, 7, 8]), 3,
                                n_latent=rng.choice([1, 2]),
                                n_selection=rng.choice([0, 1]),
                                edge_density=0.2, seed=seed + 300)
        gplus, _, _, _ = run_to_gplus(dag, k=3)
        obs = dag.observed
        sel = list(dag.selection)
        for a, b, ma, mb in gplus.edges():
            if ma == ARROW:
                assert obs[a] not in dag.ancestors([obs[b]] + sel)
            if mb == ARROW:
                assert obs[b] not in dag.ancestors([obs[a]] + sel)

    @pytest.mark.parametrize("seed", range(10))
    def test_covers_all_collider_arrowheads(self, seed):
        # every arrowhead the collider orientation would place is already
        # in the augmented skeleton
        rng = random.Random(seed)
        dag = random_sparse_dag(rng.choice([6, 7, 8]), 3,
                                n_latent=rng.choice([0, 1, 2]),
                                edge_density=0.22, seed=seed + 900)
        oracle = DsepOracle(dag)
        skel, seps = pc_adjacency_search(oracle, k=3)
        gplus = augment_graph(skel, seps, oracle)
        pi0 = orient_v_structures(skel, seps)
        for a, b, ma, mb in pi0.edges():
            if ma == ARROW:
                assert gplus.mark(a, b) == ARROW
            if mb == ARROW:
                assert gplus.mark(b, a) == ARROW


def test_on_demand_detection_matches_materialized():
    # the on-demand skeleton, which evaluates the arrowhead with the fewest
    # pending sets first and caches across removals, detects exactly the
    # candidates of the fully augmented graph, before and after each
    # resolution of the search
    detected = 0
    for seed in range(20):
        dag = planted_dag(seed)
        log = run_pipeline("fciplus", DsepOracle(dag), k=3,
                           with_checks=False).dsep_log
        oracle = DsepOracle(dag)
        skel, seps = pc_adjacency_search(oracle, k=3)
        lazy = AugmentedSkeleton(skel, seps, oracle)
        bare = skel.builder()
        for r in log["resolutions"] + [None]:
            links = find_possible_dsep_links(lazy)
            assert links == find_possible_dsep_links(
                augment_graph(bare.build(), seps, oracle))
            detected += len(links)
            if r is not None:
                x, y = r["pair"]
                bare.remove_edge(x, y)
                seps.set(x, y, mask(r["sepset"]))
                lazy.remove_edge(x, y, mask(r["sepset"]))
    assert detected >= 10, detected


class _FlippedOracle(DsepOracle):
    """Exact oracle that answers one independence query "dependent"."""

    def __init__(self, dag, flipped):
        super().__init__(dag)
        self.flipped = flipped

    def _decide(self, x, y, zmask):
        return (x, y, zmask) != self.flipped and super()._decide(x, y, zmask)


class TestAugmentedSoundnessCheck:
    @pytest.mark.parametrize("source, flipped", [
        # 0 -> 1 -> 2 and 3 -> 1: the adjacency search stores
        # sep(0, 2) = {1}, and candidate 3 is an ancestor of core member 1
        ("star", (0, 2, mask({1, 3}))),
        # the deep search stores sep(2, 6) = {3, 5, 7}, and candidate 1
        # is an ancestor of core member 6
        (3, (2, 6, mask({1, 3, 5, 7}))),
    ])
    def test_flipped_ancestral_candidate_fails(self, source, flipped):
        if source == "star":
            dag = CausalDag(4, [(0, 1), (1, 2), (3, 1)], observed=range(4))
        else:
            dag = planted_dag(source)
        assert DsepOracle(dag).query(*flipped)
        clean = run_pipeline("fciplus", DsepOracle(dag), k=3)
        assert clean.checks["arrowhead_soundness_augmented"]["ok"]
        mutated = run_pipeline("fciplus", _FlippedOracle(dag, flipped), k=3)
        assert not mutated.checks["arrowhead_soundness_augmented"]["ok"]
