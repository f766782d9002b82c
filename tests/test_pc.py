"""Adjacency search: removal soundness, sepset minimality, query budget."""

import itertools
import random

import pytest

from fciplus import (
    CausalDag, DsepOracle, IndependenceOracle, pc_adjacency_search,
)

from .brute import mask, members, skeleton_pairs


def random_sufficient_dag(n, density, seed):
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    edges = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n)
             if rng.random() < density]
    return CausalDag(n, edges, observed=range(n))


class _RecordingOracle(IndependenceOracle):
    """Independent exactly on the listed (x, y, mask) keys; records every
    call of the trusted entry `ask`, which `query` also answers through, in
    order."""

    def __init__(self, n_vars, independent):
        super().__init__(n_vars)
        self.independent = set(independent)
        self.asked = []

    def ask(self, x, y, zmask):
        self.asked.append((x, y, zmask))
        return super().ask(x, y, zmask)

    def _decide(self, x, y, zmask):
        return (x, y, zmask) in self.independent


class TestPcSearch:
    def test_empty_graph_all_marginal_sepsets(self):
        dag = CausalDag(4, [], observed=range(4))
        skel, seps = pc_adjacency_search(DsepOracle(dag))
        assert skel.n_edges == 0
        for x, y in itertools.combinations(range(4), 2):
            assert seps.get(x, y) == 0
            assert seps.get(x, y).bit_count() == 0

    def test_chain_unique_separator_at_level_one(self):
        dag = CausalDag(3, [(0, 1), (1, 2)], observed=range(3))
        skel, seps = pc_adjacency_search(DsepOracle(dag))
        assert skel.edge_pairs() == [(0, 1), (1, 2)]
        assert seps.get(0, 2) == mask({1})
        assert seps.get(0, 2).bit_count() == 1

    def test_all_marks_are_circles(self):
        dag = CausalDag(3, [(0, 1), (1, 2)], observed=range(3))
        skel, _ = pc_adjacency_search(DsepOracle(dag))
        from fciplus import CIRCLE
        assert all(ma == CIRCLE and mb == CIRCLE
                   for _, _, ma, mb in skel.edges())

    @pytest.mark.parametrize("seed", range(12))
    def test_sufficient_dag_recovers_true_skeleton(self, seed):
        n = 6 + seed % 5  # up to 10
        dag = random_sufficient_dag(n, 0.3, seed)
        skel, _ = pc_adjacency_search(DsepOracle(dag))
        assert sorted(skel.edge_pairs()) == skeleton_pairs(dag)

    @pytest.mark.parametrize("seed", range(8))
    def test_removals_sound_and_sets_minimal(self, seed):
        n = 7
        dag = random_sufficient_dag(n, 0.35, seed + 40)
        oracle = DsepOracle(dag)
        _, seps = pc_adjacency_search(oracle)
        for (x, y), zs in seps.items():
            assert oracle.query(x, y, zs), "stored set must separate"
            for w in members(zs):
                assert not oracle.query(x, y, zs & ~(1 << w)), \
                    "stored set must be minimal"

    def test_degree_cap_limits_level(self):
        # star dag: center 0 with many leaves, plus pairwise-independent leaves
        dag = CausalDag(5, [(0, i) for i in range(1, 5)], observed=range(5))
        oracle = DsepOracle(dag)
        _, seps = pc_adjacency_search(oracle, k=1)
        assert oracle.stats.stages["pc_search"].max_cond_size <= 1
        for x, y in itertools.combinations(range(1, 5), 2):
            assert seps.get(x, y) == mask({0})

    @pytest.mark.parametrize("seed", range(6))
    def test_query_budget(self, seed):
        from fciplus import random_sparse_dag
        n, k = 8, 3
        dag = random_sparse_dag(n, k, n_latent=seed % 3, edge_density=0.2,
                                seed=seed + 7)
        oracle = DsepOracle(dag)
        pc_adjacency_search(oracle, k=k)
        assert oracle.stats.stages["pc_search"].queries <= 4 * n ** (k + 2)

    def test_deterministic_given_same_oracle_model(self):
        dag = random_sufficient_dag(8, 0.3, 5)
        a = pc_adjacency_search(DsepOracle(dag))
        b = pc_adjacency_search(DsepOracle(dag))
        assert a[0] == b[0]
        assert a[1].items() == b[1].items()

    def test_degenerate_k_zero_removes_marginal_independencies_only(self):
        # 0 -> 1 and an isolated pair {2, 3}: at k=0 only marginally
        # independent pairs go
        dag = CausalDag(4, [(0, 1), (2, 3)], observed=range(4))
        oracle = DsepOracle(dag)
        skel, seps = pc_adjacency_search(oracle, k=0)
        assert sorted(skel.edge_pairs()) == [(0, 1), (2, 3)]
        assert all(zs == 0 for _, zs in seps.items())
        assert oracle.stats.stages["pc_search"].max_cond_size == 0

    def test_ask_order_for_one_pair_and_level(self):
        # only (0, 5) and (1, 4) are independent, marginally, so from level
        # 1 on Adj(0) = {1, 2, 3, 4} and Adj(1) = {0, 2, 3, 5}: the pair
        # (0, 1) asks the x-side subsets lexicographically, then the
        # y-side subsets not inside Adj(0)
        oracle = _RecordingOracle(6, {(0, 5, 0), (1, 4, 0)})
        pc_adjacency_search(oracle, k=2)
        asked = [z for x, y, z in oracle.asked if (x, y) == (0, 1)]
        assert asked == [mask(zs) for zs in [
            (),
            (2,), (3,), (4,), (5,),
            (2, 3), (2, 4), (3, 4), (2, 5), (3, 5)]]
        assert len(set(oracle.asked)) == len(oracle.asked)

    @pytest.mark.parametrize("seed", range(4))
    def test_no_mask_asked_twice(self, seed):
        oracle = DsepOracle(random_sufficient_dag(9, 0.4, seed + 70))
        pc_adjacency_search(oracle, k=3)
        st = oracle.stats.stages["pc_search"]
        assert st.queries and st.memo_hits == 0
