"""Adjacency search: removal soundness, sepset minimality, query budget."""

import itertools
import random

import pytest

from fciplus import (
    CausalDag, DsepOracle, GaussOracle, IndependenceOracle,
    apply_fci_rules, orient_v_structures, pc_adjacency_search,
)

from .brute import lexicographic_pc, mask, members, skeleton_pairs
from .test_replay_digest import SAMPLE_ALPHA, replay_inputs, sample_inputs


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

    def test_known_separator_asked_first(self):
        # Only (0, 1 | {4}) and (3, 5 | {4}) are independent. At level 1
        # the pair (0, 1) asks {2}, {3}, {4} and is removed by {4}, so 4 is
        # a known separator of 0 and 1; the next pair, (0, 2), asks {4}
        # first on 0's side, then 0's other neighbours ascending, and finds
        # nothing new on 2's side. At level 2, 0's side lists 4, 2, 3, 5
        # (1 is gone) and 2's side, which knows no separator, stays
        # ascending
        oracle = _RecordingOracle(6, {(0, 1, mask({4})), (3, 5, mask({4}))})
        pc_adjacency_search(oracle, k=2)
        asked = [z for x, y, z in oracle.asked if (x, y) == (0, 2)]
        assert asked == [mask(zs) for zs in [
            (),
            (4,), (1,), (3,), (5,),
            (3, 4), (4, 5), (3, 5), (1, 3), (1, 4), (1, 5)]]
        # the pairs of each level are still visited in lexicographic order,
        # although 3 and 5 know a separator at level 2 and 2 does not
        for level in (1, 2):
            pairs = [(x, y) for x, y, z in oracle.asked
                     if z.bit_count() == level]
            assert pairs == sorted(pairs) and (2, 3) in pairs
        assert len(set(oracle.asked)) == len(oracle.asked)


def _same_search(oracle_a, oracle_b, k):
    """Run pc_adjacency_search on oracle_a and lexicographic_pc on
    oracle_b; return both (skeleton, sepsets) after asserting that they
    keep the same edges and store sets for the same pairs."""
    new = pc_adjacency_search(oracle_a, k)
    lex = lexicographic_pc(oracle_b, k)
    assert new[0].edge_pairs() == lex[0].edge_pairs()
    assert sorted(p for p, _ in new[1].items()) == \
        sorted(p for p, _ in lex[1].items())
    return new, lex


def _assert_same_exact_pag(dag, k):
    """Under the exact oracle: the same skeleton and stored pairs as the
    lexicographic search, every stored set separating and minimal, and the
    same PAG from either search's skeleton and sets."""
    oracle = DsepOracle(dag)
    (skel, seps), (lskel, lseps) = _same_search(oracle, DsepOracle(dag), k)
    for (x, y), zs in seps.items():
        assert oracle.query(x, y, zs)
        assert not any(oracle.query(x, y, zs & ~(1 << w))
                       for w in members(zs))
    pag = apply_fci_rules(orient_v_structures(skel, seps), seps)
    lpag = apply_fci_rules(orient_v_structures(lskel, lseps), lseps)
    assert pag.edges() == lpag.edges()
    return seps, lseps


class TestKnownFirstOrder:
    """Known separators first changes which set is stored and how many
    tests are asked, never which pairs are removed; under the exact oracle
    it never changes the PAG either."""

    def test_corpus(self, corpus):
        changed = 0
        for inst in corpus:
            seps, lseps = _assert_same_exact_pag(inst.dag, 3)
            changed += seps.items() != lseps.items()
        assert changed  # the order is in effect

    def test_replay_inputs(self):
        for dag, k in replay_inputs():
            _assert_same_exact_pag(dag, k)

    def test_sample_inputs(self):
        # Fisher z answers, the collinear dataset's degenerate tests too
        changed = 0
        for data in sample_inputs():
            (_, seps), (_, lseps) = _same_search(
                GaussOracle(data, alpha=SAMPLE_ALPHA),
                GaussOracle(data, alpha=SAMPLE_ALPHA), 3)
            changed += seps.items() != lseps.items()
        assert changed
