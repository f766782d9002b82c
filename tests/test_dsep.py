"""Candidate-link detection, hierarchies, minimal separators, the search."""

import collections
import contextlib
import gc
import importlib
import itertools
import random

import pytest

from fciplus import (
    ARROW, CIRCLE, TAIL, CausalDag, DsepOracle, IndependenceOracle,
    MixedGraph, SepsetMap, dsep_search,
    find_possible_dsep_links, hie, latent_project, minimal_dsep,
    pc_adjacency_search, run_pipeline,
)
from fciplus.dsep_search import _base_combinations, _base_pair_count, _close
from fciplus.generators import random_sparse_dag

from .brute import (
    bf_separable, mask, members, naive_closure, reference_dsep_walk,
)
from .examples import EXAMPLES, obs_index
from .test_replay_digest import replay_inputs


def skeleton(n, pairs):
    return MixedGraph(n, [(a, b, CIRCLE, CIRCLE) for a, b in pairs])


def planted_dag(seed):
    rng = random.Random(seed)
    return random_sparse_dag(rng.choice([8, 9, 10]), 3, n_latent=2,
                             n_selection=rng.choice([0, 1]),
                             edge_density=0.08, seed=seed + 5000,
                             plant_dsep=True)


def motif_chain(m, seed):
    """m five-node deep-link motifs (z -> u, v; u -> y; v -> x; latents
    over u, x and over v, y), motif i's y feeding motif i+1's z, ids
    shuffled, and one more latent over the first and the last x: every
    motif's x and y are separated only through its z."""
    rng = random.Random(seed)
    n_obs = 5 * m
    ids = list(range(n_obs))
    rng.shuffle(ids)
    edges, xs, prev_y = set(), [], None
    for i in range(m):
        z, u, v, x, y = ids[5 * i:5 * i + 5]
        l1, l2 = n_obs + 2 * i, n_obs + 2 * i + 1
        edges |= {(z, u), (z, v), (u, y), (v, x), (l1, u), (l1, x),
                  (l2, v), (l2, y)}
        if prev_y is not None:
            edges.add((prev_y, z))
        prev_y = y
        xs.append(x)
    extra = n_obs + 2 * m
    edges |= {(extra, xs[0]), (extra, xs[-1])}
    return CausalDag(extra + 1, sorted(edges), range(n_obs),
                     range(n_obs, extra + 1))


class TestPatternDetection:
    def test_marks_not_read(self):
        # the chain 0 - 1 - 2 - 3 has one candidate, whatever its marks
        pairs = [(0, 1), (1, 2), (2, 3)]
        for ma, mb in itertools.product((ARROW, CIRCLE, TAIL), repeat=2):
            g = MixedGraph(4, [(a, b, ma, mb) for a, b in pairs])
            assert find_possible_dsep_links(g) == [(1, 2)]
        assert find_possible_dsep_links(skeleton(3, pairs[:2])) == []

    def test_canonical_pattern_detected(self):
        dag, k, _ = EXAMPLES["hierarchical_links"]
        oracle = DsepOracle(dag)
        skel, _ = pc_adjacency_search(oracle, k=k)
        m = obs_index(dag)
        links = find_possible_dsep_links(skel)
        assert (min(m["X"], m["Z"]), max(m["X"], m["Z"])) in links
        assert oracle.stats.stages["augment"].queries == 0

    def test_triangle_with_shared_flank_not_detected(self):
        # u - x - y - u: the only flank candidates coincide
        g = skeleton(3, [(0, 1), (1, 2), (0, 2)])
        assert find_possible_dsep_links(g) == []

    def test_adjacent_flanks_not_detected(self):
        # u - x - y - v but u, v adjacent
        g = skeleton(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert find_possible_dsep_links(g) == []

    def test_chain_of_four_detects_middle_edge(self):
        g = skeleton(4, [(0, 1), (1, 2), (2, 3)])
        assert find_possible_dsep_links(g) == [(1, 2)]

    def test_ordering_is_lexicographic(self):
        g = skeleton(8, [(2, 3), (1, 2), (3, 4), (5, 6), (6, 7), (4, 5)])
        links = find_possible_dsep_links(g)
        assert links == sorted(links)


class TestSepsetMap:
    def test_get_reads_either_order(self):
        seps = SepsetMap()
        seps.set(3, 1, mask({2}))
        seps.set(0, 4, 0)
        assert seps.get(1, 3) == seps.get(3, 1) == mask({2})
        assert seps.get(4, 0) == seps.get(0, 4) == 0
        assert seps.get(0, 1) is None and seps.get(1, 0) is None

    def test_items_list_each_pair_once_in_first_stored_order(self):
        seps = SepsetMap()
        for a, b, zs in [(5, 2, {0}), (0, 1, ()), (4, 3, {1}), (1, 6, {2})]:
            seps.set(a, b, mask(zs))
        assert seps.items() == [((2, 5), mask({0})), ((0, 1), 0),
                                ((3, 4), mask({1})), ((1, 6), mask({2}))]

    def test_overwrite_keeps_its_place_and_len(self):
        seps = SepsetMap()
        for a, b in [(0, 1), (2, 3), (1, 4)]:
            seps.set(a, b, 0)
        seps.set(3, 2, mask({5}))
        assert len(seps) == 3
        assert seps.items() == [((0, 1), 0), ((2, 3), mask({5})), ((1, 4), 0)]

    def test_copy_shares_nothing_and_starts_with_no_index(self):
        seps = SepsetMap()
        seps.set(0, 1, mask({2}))
        hie(0, seps)
        twin = seps.copy()
        assert twin._groups is None
        twin.set(0, 1, mask({3}))
        twin.set(2, 4, 0)
        assert seps.items() == [((0, 1), mask({2}))] and len(seps) == 1
        assert seps.groups() == {0: {mask({2}): mask({1})},
                                 1: {mask({2}): mask({0})}}
        assert len(twin) == 2 and twin.get(1, 0) == mask({3})

    def test_a_pair_needs_two_endpoints(self):
        seps = SepsetMap()
        with pytest.raises(ValueError, match="distinct endpoints"):
            seps.set(2, 2, 0)
        with pytest.raises(ValueError, match="distinct endpoints"):
            seps.get(2, 2)
        assert len(seps) == 0


class TestHierarchy:
    def test_empty_sepsets_closure_is_seed(self):
        assert hie(mask({1, 2}), SepsetMap()) == mask({1, 2})

    def test_closure_is_idempotent(self):
        seps = SepsetMap()
        seps.set(0, 1, mask({2}))
        seps.set(2, 3, mask({4}))
        closure = hie(mask({0, 1, 3}), seps)
        assert hie(closure, seps) == closure

    def test_transitive_inclusion_regardless_of_stored_alternative(self):
        # ids: X=0 Y=1 S=2 T=3 U=4 V=5 W=6 Z1=7 Z2=8 Z3=9. Whichever
        # minimal set was stored for (S, Z1), the deep node Z3 ends up in
        # the closure of {X, Y, S, T, U, V}: directly, or through W.
        base = SepsetMap()
        base.set(2, 3, mask({8}))   # sep(S,T) = {Z2}
        base.set(4, 5, mask({7}))   # sep(U,V) = {Z1}
        base.set(6, 7, mask({9}))   # sep(W,Z1) = {Z3}
        seed = mask({0, 1, 2, 3, 4, 5})

        direct = base.copy()
        direct.set(2, 7, mask({9}))   # sep(S,Z1) = {Z3}
        assert 9 in members(hie(seed, direct))

        indirect = base.copy()
        indirect.set(2, 7, mask({6}))  # sep(S,Z1) = {W}
        closure = members(hie(seed, indirect))
        assert 6 in closure and 9 in closure

    def test_matches_canonical_reconstruction(self):
        dag, k, _ = EXAMPLES["transitive_hierarchy"]
        oracle = DsepOracle(dag)
        _, seps = pc_adjacency_search(oracle, k=k)
        m = obs_index(dag)
        seed = mask(m[v] for v in ("X", "Y", "S", "T", "U", "V"))
        assert m["Z3"] in members(hie(seed, seps))


    @staticmethod
    def _assert_naive(seps, seeds):
        for seed_set in seeds:
            assert hie(mask(seed_set), seps) == \
                mask(naive_closure(seed_set, seps))
        # the index kept by set equals the one built from scratch
        assert seps.groups() == seps.copy().groups()

    def test_overwritten_pair_regroups(self):
        # a pair's set goes nonempty -> empty -> another set after the
        # index was built; the closure follows each value
        seps = SepsetMap()
        seps.set(0, 1, mask({2}))
        seps.set(3, 4, mask({5}))
        seps.set(2, 6, mask({3, 4}))
        hie(0, seps)
        for zs, want in [({2}, {0, 1, 2}), (set(), {0, 1}),
                         ({6, 2}, {0, 1, 2, 3, 4, 5, 6})]:
            seps.set(0, 1, mask(zs))
            assert members(hie(mask({0, 1}), seps)) == want
            self._assert_naive(seps, [{0, 1}, {0, 1, 3}, {1, 2, 6}])

    def test_partners_storing_the_same_set_form_one_group(self):
        seps = SepsetMap()
        for b, zs in [(1, {5}), (2, {5}), (3, {6}), (4, ())]:
            seps.set(0, b, mask(zs))
        assert seps.groups()[0] == {mask({5}): mask({1, 2}),
                                    mask({6}): mask({3})}
        assert 0 not in seps.groups()[4].values()
        self._assert_naive(seps, [{0, 1}, {0, 2}, {0, 4}, {1, 2}])
        # one partner leaves the group, the other keeps it
        seps.set(0, 1, mask({6}))
        assert seps.groups()[0] == {mask({5}): mask({2}),
                                    mask({6}): mask({1, 3})}
        assert members(hie(mask({0, 2}), seps)) == {0, 2, 5}
        self._assert_naive(seps, [{0, 1}, {0, 2}, {0, 1, 2, 3}])

    def test_copy_grown_after_the_copy_keeps_its_own_index(self):
        seps = SepsetMap()
        seps.set(0, 1, mask({2}))
        seps.set(2, 3, mask({4}))
        assert members(hie(mask({0, 1, 3}), seps)) == {0, 1, 2, 3, 4}
        grown = seps.copy()
        grown.set(0, 3, mask({5}))
        seps.set(1, 3, mask({6}))
        assert members(hie(mask({0, 3}), seps)) == {0, 3}
        assert members(hie(mask({0, 3}), grown)) == {0, 3, 5}
        assert members(hie(mask({1, 3}), grown)) == {1, 3}
        for m in (seps, grown):
            self._assert_naive(m, [{0, 1}, {0, 3}, {1, 3}, {0, 1, 3}])

    def test_sets_stored_before_and_after_the_index_is_built(self):
        seps = SepsetMap()
        seps.set(0, 1, mask({2}))
        seps.set(3, 4, 0)
        self._assert_naive(seps, [{0, 1}, {0, 1, 3, 4}])
        seps.set(2, 5, mask({3, 4}))
        seps.set(0, 5, 0)
        assert members(hie(mask({0, 1, 5}), seps)) == {0, 1, 2, 3, 4, 5}
        seps.set(3, 4, mask({6}))
        assert members(hie(mask({0, 1, 5}), seps)) == {0, 1, 2, 3, 4, 5, 6}
        self._assert_naive(seps, [{0, 1}, {3, 4}, {0, 1, 5}, {2, 5}])

    @staticmethod
    def _random_map(rng, n, stores):
        """A map filled by `stores` random set calls, with overwrites and
        empty sets, whose index is built after a random number of them;
        returns it with a copy grown by one more set after the copy."""
        seps = SepsetMap()
        build_at = rng.randint(0, stores)
        for i in range(stores):
            if i == build_at:
                hie(0, seps)
            a, b = rng.sample(range(n), 2)
            rest = [v for v in range(n) if v not in (a, b)]
            zs = rng.sample(rest, rng.randint(0, min(3, len(rest))))
            seps.set(a, b, mask(zs))
        grown = seps.copy()
        if rng.random() < 0.5:
            hie(0, grown)
        grown.set(0, 1, mask(range(2, min(n, 4))))
        return seps, grown

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_naive_fixpoint(self, seed):
        # random maps, overwritten and emptied entries, indexes built
        # before and after some sets, and copies updated after the copy:
        # the index must follow every change
        rng = random.Random(seed)
        for _ in range(100):
            n = rng.randint(2, 9)
            seps, grown = self._random_map(rng, n, rng.randint(0, 3 * n))
            for m in (seps, grown):
                seed_set = set(rng.sample(range(n), rng.randint(0, n)))
                assert hie(mask(seed_set), m) == \
                    mask(naive_closure(seed_set, m))
                assert m.groups() == m.copy().groups()

    @pytest.mark.parametrize("seed", range(3))
    def test_incremental_matches_from_scratch(self, seed):
        # closing an already-closed base plus new seeds equals closing the
        # union from scratch and the naive fixpoint, on the same maps
        rng = random.Random(100 + seed)
        for _ in range(100):
            n = rng.randint(3, 10)
            seps, grown = self._random_map(rng, n, rng.randint(0, 2 * n))
            for m in (seps, grown):
                base = set(rng.sample(range(n), rng.randint(0, n)))
                extra = set(rng.sample(range(n), rng.randint(0, 3)))
                closed = hie(mask(base), m)
                want = mask(naive_closure(base | extra, m))
                assert hie(mask(base | extra), m) == want
                assert hie(mask(extra), m, closed) == want


class TestMinimalDsep:
    def test_already_minimal_unchanged(self):
        dag = CausalDag(3, [(0, 1), (1, 2)], observed=range(3))
        assert minimal_dsep(0, 2, mask({1}), DsepOracle(dag)) == mask({1})

    def test_isolated_node_removed(self):
        dag = CausalDag(4, [(0, 1), (1, 2)], observed=range(4))
        assert minimal_dsep(0, 2, mask({1, 3}), DsepOracle(dag)) == mask({1})

    def test_precondition_violation_raises(self):
        dag = CausalDag(2, [(0, 1)], observed=range(2))
        with pytest.raises(RuntimeError):
            minimal_dsep(0, 1, 0, DsepOracle(dag))

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
            full = mask(v for v in range(n) if v not in (x, y))
            if not oracle.query(x, y, full):
                continue
            zmin = minimal_dsep(x, y, full, oracle)
            assert oracle.query(x, y, zmin)
            for r in range(zmin.bit_count()):
                for sub in itertools.combinations(sorted(members(zmin)), r):
                    assert not oracle.query(x, y, mask(sub)), \
                        "a strict subset separates"
            checked += 1
            if checked >= 3:
                break


class TestDsepSearch:
    def test_canonical_resolution(self):
        dag, k, _ = EXAMPLES["five_node_deep_link"]
        oracle = DsepOracle(dag)
        skel, seps = pc_adjacency_search(oracle, k=k)
        m = obs_index(dag)
        x, y = m["X"], m["Y"]
        assert skel.has_edge(x, y)
        g2, seps2, log = dsep_search(skel, seps, oracle, k=k)
        assert not g2.has_edge(x, y) and skel.has_edge(x, y)
        assert seps2.get(x, y) == mask({m["U"], m["V"], m["Z"]})
        assert m["Z"] not in g2.adj(x) + g2.adj(y)
        assert len(log["resolutions"]) == 1
        assert log["resolutions"][0]["pair"] in log["detected"][0]

    def test_no_pattern_means_no_stage_queries(self):
        dag = CausalDag(3, [(0, 1), (1, 2)], observed=range(3))
        oracle = DsepOracle(dag)
        skel, seps = pc_adjacency_search(oracle)
        g2, _, log = dsep_search(skel, seps, oracle, k=3)
        assert g2 == skel
        assert oracle.stats.stages["dsep_search"].queries == 0
        assert log["resolutions"] == [] and log["detected"] == [[]]

    @pytest.mark.parametrize("seed", range(10))
    def test_final_skeleton_matches_truth(self, seed):
        dag = planted_dag(seed)
        oracle = DsepOracle(dag)
        skel, seps = pc_adjacency_search(oracle, k=3)
        g2, _, _ = dsep_search(skel, seps, oracle, k=3)
        assert sorted(g2.edge_pairs()) == sorted(latent_project(dag).edge_pairs())

    @pytest.mark.parametrize("seed", range(6))
    def test_fixpoint_no_separable_pair_remains(self, seed):
        rng = random.Random(seed)
        dag = random_sparse_dag(rng.choice([7, 8]), 3, n_latent=2,
                                edge_density=0.1, seed=seed + 6000,
                                plant_dsep=True)
        oracle = DsepOracle(dag)
        skel, seps = pc_adjacency_search(oracle, k=3)
        g2, _, _ = dsep_search(skel, seps, oracle, k=3)
        obs = dag.observed
        for a, b in g2.edge_pairs():
            assert not bf_separable(dag, obs[a], obs[b]), \
                "edge left although some subset separates it"

    def test_both_canonical_links_resolve(self):
        dag, k, _ = EXAMPLES["hierarchical_links"]
        oracle = DsepOracle(dag)
        skel, seps = pc_adjacency_search(oracle, k=k)
        g2, _, log = dsep_search(skel, seps, oracle, k=k)
        assert len(log["resolutions"]) == 2
        assert len(log["resolutions"]) <= skel.n_edges
        # every candidate left was tried and is an edge of the truth
        left = find_possible_dsep_links(g2)
        assert [tuple(p) for p in log["failed_final"]] == left
        assert set(left) <= set(latent_project(dag).edge_pairs())

    @pytest.mark.parametrize("source", [
        "five_node_deep_link", "hierarchical_links", "transitive_hierarchy",
        0, 1, 2, 3, 4, 5])
    def test_each_pass_detects_the_structural_candidates(self, source):
        # each pass detects exactly the candidates of the adjacency-search
        # skeleton minus the pairs resolved so far; no pass adds one, since
        # edges are only removed, and the augment stage stays empty
        if isinstance(source, str):
            dag, k, _ = EXAMPLES[source]
        else:
            dag, k = planted_dag(source), 3
        report = run_pipeline("fciplus", DsepOracle(dag), k=k,
                              with_checks=False)
        assert report.stats["augment"]["queries"] == 0
        skel, _ = pc_adjacency_search(DsepOracle(dag), k=k)
        log = report.dsep_log
        assert len(log["detected"]) == len(log["resolutions"]) + 1
        for i, batch in enumerate(log["detected"]):
            assert [tuple(p) for p in batch] == find_possible_dsep_links(skel)
            if i < len(log["resolutions"]):
                skel.remove_edge(*log["resolutions"][i]["pair"])
                assert all(p in batch for p in log["detected"][i + 1])

    def test_one_stage_entry_per_pass(self):
        # the search enters its own stage once and minimal_dsep once per
        # resolution; detection enters no stage
        dag, k, _ = EXAMPLES["transitive_hierarchy"]
        oracle = DsepOracle(dag)
        skel, seps = pc_adjacency_search(oracle, k=k)
        entries = collections.Counter()
        enter = oracle.stage

        def counted(name):
            entries[name] += 1
            return enter(name)

        oracle.stage = counted
        _, _, log = dsep_search(skel, seps, oracle, k=k)
        assert entries == {"dsep_search": 1,
                           "minimal_dsep": len(log["resolutions"])}
        assert oracle.stats.stages["augment"].queries == 0

    @pytest.mark.parametrize("seed", range(5))
    def test_reactivations_bounded(self, seed):
        dag = random_sparse_dag(9, 3, n_latent=2, edge_density=0.08,
                                seed=seed + 7700, plant_dsep=True)
        oracle = DsepOracle(dag)
        skel, seps = pc_adjacency_search(oracle, k=3)
        _, _, log = dsep_search(skel, seps, oracle, k=3)
        max_links = max((len(batch) for batch in log["detected"]), default=0)
        assert log["reactivations"] <= len(log["resolutions"]) * max_links


def _ask_stream(oracle):
    """Record every (x, y, zmask) the oracle's trusted entry is asked, in
    order; `query` answers through it too."""
    stream, ask = [], oracle.ask

    def recording(x, y, zmask):
        stream.append((x, y, zmask))
        return ask(x, y, zmask)

    oracle.ask = recording
    return stream


class TestClosureCache:
    """The cached closures change no ask: dsep_search sends the oracle the
    stream of tests that brute.reference_dsep_walk, which closes every base
    pair from scratch, sends, retries included."""

    @staticmethod
    def _assert_same_asks(dag, k):
        oracle = DsepOracle(dag)
        skel, seps = pc_adjacency_search(oracle, k=k)
        stream = _ask_stream(oracle)
        g, seps2, log = dsep_search(skel, seps, oracle, k)
        ref = DsepOracle(dag)
        skel, seps = pc_adjacency_search(ref, k=k)
        want = _ask_stream(ref)
        g_ref, seps_ref = reference_dsep_walk(skel, seps, ref, k)
        assert stream == want
        assert g == g_ref and seps2.items() == seps_ref.items()
        return log

    def test_cache_is_freed_on_return(self):
        # the cache is a dict of ints local to the call, and _close a
        # module function that takes it as an argument, so the search
        # leaves no reference cycle for the garbage collector: the cache
        # goes when the call returns
        dag = motif_chain(3, 1)
        oracle = DsepOracle(dag)
        skel, seps = pc_adjacency_search(oracle, k=3)
        gc.collect()
        gc.disable()
        try:
            log = dsep_search(skel, seps, oracle, 3)[2]
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert len(log["resolutions"]) == 3

    def test_replay_inputs(self):
        # the canonical examples and the 24 draws of the replay digest
        for dag, k in replay_inputs():
            self._assert_same_asks(dag, k)

    @pytest.mark.parametrize("seed", [0, 1, 4, 13])
    def test_planted_draws_with_reactivations(self, seed):
        dag = random_sparse_dag(8 + seed % 7, 3, n_latent=2 + seed % 3,
                                n_selection=seed % 2,
                                edge_density=0.08 + 0.02 * (seed % 3),
                                seed=seed, plant_dsep=True)
        log = self._assert_same_asks(dag, 3)
        assert log["reactivations"] > 0

    @pytest.mark.parametrize("m,seed", [(2, 0), (3, 1), (4, 2), (6, 3)])
    def test_motif_chains_with_rebuilt_closures(self, m, seed):
        # several resolutions per run, each dropping the cached closures
        # that hold its pair, so retries walk and rebuild some closures
        # and reuse others
        log = self._assert_same_asks(motif_chain(m, seed), 3)
        assert len(log["resolutions"]) == m and log["reactivations"] > m


    def test_close_equals_the_naive_closure(self):
        # on the stored sets of the adjacency search, every base seed of
        # every candidate closes to the naive fixpoint: alone from an
        # empty cache, in walk order from one cache that its prefixes
        # prime, and widest seed first, which closes the prefixes on the
        # way down
        for dag, k in replay_inputs():
            skel, seps = pc_adjacency_search(DsepOracle(dag), k=k)
            seeds = []
            for x, y in find_possible_dsep_links(skel):
                ends = mask({x, y})
                base_x = [1 << v for v in skel.adj(x) if v != y]
                base_y = [1 << v for v in skel.adj(y) if v != x]
                seeds += [(ends | zx | zy, ends)
                          for zx, zy in _base_combinations(base_x, base_y, k)]
            walked, widest_first = {}, {}
            for seed, ends in seeds:
                want = mask(naive_closure(members(seed), seps))
                assert _close(seed, ends, {}, seps) == want
                assert _close(seed, ends, walked, seps) == want
            for seed, ends in reversed(seeds):
                assert _close(seed, ends, widest_first, seps) == \
                    walked[seed]
            assert walked == widest_first


class _ScriptedOracle(IndependenceOracle):
    """Fixed answer table; anything not listed is dependent."""

    def __init__(self, table, n_vars):
        super().__init__(n_vars)
        self.table = dict(table)

    def _decide(self, x, y, zmask):
        return self.table.get((x, y, zmask), False)


def _refute_one_sided(g, oracle, k):
    """Ask, as the adjacency search would, every set of at most k nodes
    inside Adj(x) \\ {y} or Adj(y) \\ {x} of each edge x - y of g, under
    the "pc_search" stage, and assert that each answer is dependent."""
    with oracle.stage("pc_search"):
        for x, y in g.edge_pairs():
            for a, b in ((x, y), (y, x)):
                side = [v for v in g.adj(a) if v != b]
                for size in range(min(k, len(side)) + 1):
                    for zs in itertools.combinations(side, size):
                        assert not oracle.query(x, y, mask(zs)), (x, y, zs)


class _CountingOracle(_ScriptedOracle):
    """Scripted oracle that counts, per (x, y, zmask) key, the tests it
    decides under the "dsep_search" stage; memo hits decide nothing."""

    def __init__(self, table, n_vars):
        super().__init__(table, n_vars)
        self.stages = []
        self.asked = collections.Counter()

    @contextlib.contextmanager
    def stage(self, name):
        self.stages.append(name)
        try:
            with super().stage(name):
                yield self
        finally:
            self.stages.pop()

    def _decide(self, x, y, zmask):
        if self.stages[-1:] == ["dsep_search"]:
            self.asked[(x, y, zmask)] += 1
        return super()._decide(x, y, zmask)


class TestWorkListSemantics:
    def test_failed_candidate_retried_after_resolution(self):
        # Two candidate links on bi-directed chains 0-1-2-3 and 4-5-6-7:
        # (1,2) flanked by 0 and 3, (5,6) flanked by 4 and 7. The oracle
        # has answered every set inside one endpoint's adjacency, as the
        # adjacency search does, so the walks skip them. The pair (0,3)
        # carries the stored set {5,6}, so once (5,6) resolves with {4,7},
        # the closure of (1,2)'s widest bases gains 7 and only then does
        # its query succeed. The pair (0,2) carries {4}, so the base {0}
        # yields {0,4} in both attempts.
        g = skeleton(8, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)])
        seps = SepsetMap()
        seps.set(0, 3, mask({5, 6}))
        seps.set(0, 2, mask({4}))
        table = {
            (5, 6, mask({4, 7})): True,
            (1, 2, mask({0, 3, 4, 5, 6, 7})): True,
        }
        oracle = _CountingOracle(table, 8)
        _refute_one_sided(g, oracle, 1)
        assert find_possible_dsep_links(g) == [(1, 2), (5, 6)]
        g2, seps2, log = dsep_search(g, seps, oracle, k=1)
        assert not g2.has_edge(5, 6)
        assert not g2.has_edge(1, 2), "failed candidate must be retried"
        assert log["reactivations"] == 1
        assert seps2.get(5, 6) == mask({4, 7})
        assert seps2.get(1, 2) == mask({0, 3, 4, 5, 6, 7})
        assert [r["pair"] for r in log["resolutions"]] == [[5, 6], [1, 2]]
        # both attempts at (1, 2) walk all four base pairs, but the retry
        # decides only the set its grown hierarchy changed; the sets that
        # failed before are memo hits
        assert log["combos_tried"]["1,2"] == 8
        asked_12 = {z: c for (x, y, z), c in oracle.asked.items()
                    if (x, y) == (1, 2)}
        assert asked_12 == {mask(zs): 1 for zs in
                            [(0, 4), (0, 3, 4, 5, 6), (0, 3, 4, 5, 6, 7)]}
        assert oracle.stats.stages["dsep_search"].queries == \
            sum(oracle.asked.values())

    def test_retry_without_new_pair_in_closure_is_skipped(self, monkeypatch):
        # (1, 2) fails on its four base pairs, then (5, 6) resolves with
        # {4, 7}. The stored sets of (0, 2) and (1, 3) take three of
        # (1, 2)'s sets outside both adjacencies, so the first attempt asks
        # them. The widest closure of (1, 2), hie({0, 1, 2, 3}), holds
        # neither 5 nor 6, so its retry could only rebuild sets that
        # failed: it asks nothing and still counts every base pair. Its
        # widest seed is also a base seed, closed in the first attempt and
        # still closed, so the retry calls hie not at all
        module = importlib.import_module("fciplus.dsep_search")
        real_hie, calls = module.hie, []

        def counting_hie(seed, sepsets, closed=0):
            calls.append(seed | closed)
            return real_hie(seed, sepsets, closed)

        monkeypatch.setattr(module, "hie", counting_hie)
        g = skeleton(8, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)])
        seps = SepsetMap()
        seps.set(0, 2, mask({4}))
        seps.set(1, 3, mask({7}))
        oracle = _CountingOracle({(5, 6, mask({4, 7})): True}, 8)
        _refute_one_sided(g, oracle, 1)
        g2, _, log = dsep_search(g, seps, oracle, k=1)
        assert not g2.has_edge(5, 6) and g2.has_edge(1, 2)
        assert log["detected"] == [[[1, 2], [5, 6]], [[1, 2]]]
        assert log["reactivations"] == 1
        assert log["failed_final"] == [[1, 2]]
        assert log["combos_tried"]["1,2"] == 8
        asked_12 = {z: c for (x, y, z), c in oracle.asked.items()
                    if (x, y) == (1, 2)}
        assert asked_12 == {mask(zs): 1
                            for zs in [(3, 7), (0, 4), (0, 3, 4, 7)]}
        # on (1, 2)'s side, one closure per seed of the first attempt:
        # {1, 2} from scratch, then {1, 2, 3} and {0, 1, 2} from the
        # closure of {1, 2}, and {0, 1, 2, 3} from that of {0, 1, 2}
        low = [c for c in calls if c & 0b1111]
        assert low == [0b0110, 0b1110, 0b0111, 0b11111]

    def test_retry_rebuilds_only_closures_holding_a_new_pair(self,
                                                           monkeypatch):
        # (1, 2) fails on its four base pairs, then (5, 6) resolves with
        # {4, 7}. The stored set {5, 6} of (0, 2) puts the new pair inside
        # the closures of the seeds {0, 1, 2} and {0, 1, 2, 3}, so the
        # retry walks, and it closes those two seeds again (each from its
        # prefix, the seed minus its highest node); the closures of
        # {1, 2} and {1, 2, 3} hold no new pair and are reused. The two
        # rebuilt sets are the retry's only decided tests
        module = importlib.import_module("fciplus.dsep_search")
        real_hie, calls = module.hie, []

        def counting_hie(seed, sepsets, closed=0):
            calls.append((seed, closed))
            return real_hie(seed, sepsets, closed)

        monkeypatch.setattr(module, "hie", counting_hie)
        g = skeleton(8, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)])
        seps = SepsetMap()
        seps.set(0, 2, mask({5, 6}))
        oracle = _CountingOracle({(5, 6, mask({4, 7})): True}, 8)
        _refute_one_sided(g, oracle, 1)
        g2, _, log = dsep_search(g, seps, oracle, k=1)
        assert not g2.has_edge(5, 6) and g2.has_edge(1, 2)
        assert log["detected"] == [[[1, 2], [5, 6]], [[1, 2]]]
        assert log["combos_tried"]["1,2"] == 8
        asked_12 = {z: c for (x, y, z), c in oracle.asked.items()
                    if (x, y) == (1, 2)}
        assert asked_12 == {mask(zs): 1 for zs in
                            [(0, 5, 6), (0, 3, 5, 6), (0, 4, 5, 6, 7),
                             (0, 3, 4, 5, 6, 7)]}
        low = [(seed, closed) for seed, closed in calls
               if (seed | closed) & 0b1111]
        first, retry = low[:4], low[4:]
        assert [seed | closed for seed, closed in first] == \
            [0b0110, 0b1110, 0b0111, 0b1101111]
        assert retry == [(mask({0}), mask({1, 2})),
                         (mask({3}), mask({0, 1, 2, 4, 5, 6, 7}))]

    def test_retry_reuses_closures_holding_one_end_of_a_new_pair(
            self, monkeypatch):
        # as above, and (1, 3) stores {5}, so the closure of {1, 2, 3}
        # holds 5 but not 6: the resolution of (5, 6) cannot grow it, so
        # the retry reuses it and closes again only the two seeds whose
        # closures hold both 5 and 6
        module = importlib.import_module("fciplus.dsep_search")
        real_hie, calls = module.hie, []

        def counting_hie(seed, sepsets, closed=0):
            calls.append((seed, closed))
            return real_hie(seed, sepsets, closed)

        monkeypatch.setattr(module, "hie", counting_hie)
        g = skeleton(8, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)])
        seps = SepsetMap()
        seps.set(0, 2, mask({5, 6}))
        seps.set(1, 3, mask({5}))
        oracle = _CountingOracle({(5, 6, mask({4, 7})): True}, 8)
        _refute_one_sided(g, oracle, 1)
        g2, _, log = dsep_search(g, seps, oracle, k=1)
        assert not g2.has_edge(5, 6) and g2.has_edge(1, 2)
        assert log["detected"] == [[[1, 2], [5, 6]], [[1, 2]]]
        low = [(seed, closed) for seed, closed in calls
               if (seed | closed) & 0b1111]
        first, retry = low[:4], low[4:]
        assert [seed | closed for seed, closed in first] == \
            [0b0110, 0b1110, 0b0111, 0b1101111]
        assert retry == [(mask({0}), mask({1, 2})),
                         (mask({3}), mask({0, 1, 2, 4, 5, 6, 7}))]

    @pytest.mark.parametrize("k", [None, 0, 1, 2, 3])
    def test_base_pair_count_matches_enumeration(self, k):
        for nx, ny in itertools.product(range(5), repeat=2):
            base_x = [1 << v for v in range(nx)]
            base_y = [1 << v for v in range(8, 8 + ny)]
            assert _base_pair_count(nx, ny, k) == \
                len(list(_base_combinations(base_x, base_y, k)))

    def test_double_resolution_guard(self):
        # a lying oracle cannot make the same link resolve twice: once
        # resolved, the edge is gone and cannot re-enter the pattern list
        g = skeleton(4, [(0, 1), (1, 2), (2, 3)])
        table = {(1, 2, mask({0, 3})): True}
        oracle = _ScriptedOracle(table, 4)
        g2, _, log = dsep_search(g, SepsetMap(), oracle, k=1)
        assert not g2.has_edge(1, 2)
        assert len(log["resolutions"]) == 1

    def test_input_must_be_over_the_oracle_variables(self):
        # the search checks its input once: a skeleton of another size, or
        # a stored set holding an id the oracle does not know, is refused
        # before any query
        g = skeleton(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(ValueError, match="oracle's 5 variables"):
            dsep_search(g, SepsetMap(), _ScriptedOracle({}, 5), k=1)
        seps = SepsetMap()
        seps.set(0, 2, mask({4}))
        oracle = _ScriptedOracle({}, 4)
        with pytest.raises(ValueError, match="oracle's 4 variables"):
            dsep_search(g, seps, oracle, k=1)
        assert oracle.stats.stages["dsep_search"].queries == 0

    def test_candidates_need_no_stored_set(self):
        # Circle chains 0-1-2-3 and 4-5-6-7, every query not in the table
        # dependent. Both middle edges are candidates from the first pass,
        # whatever the stored sets say, and detection asks nothing. (5, 6)
        # resolves through the hierarchy of {4, 7} with Zmin = {1, 4, 7};
        # (1, 2) fails, and the next pass detects it alone.
        g = skeleton(8, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)])
        seps = SepsetMap()
        for a, b, zs in [(0, 2, ()), (0, 3, (1,)), (4, 6, ()), (5, 7, ()),
                         (4, 7, (0, 3))]:
            seps.set(a, b, mask(zs))
        table = {(5, 6, mask(zs)): True
                 for zs in [{0, 1, 3, 4, 7}, {1, 3, 4, 7}, {1, 4, 7}]}
        oracle = _ScriptedOracle(table, 8)
        _, seps2, log = dsep_search(g, seps, oracle, k=1)
        assert seps2.get(5, 6) == mask({1, 4, 7})
        assert log["detected"] == [[[1, 2], [5, 6]], [[1, 2]]]
        assert log["failed_final"] == [[1, 2]]
        assert oracle.stats.stages["augment"].queries == 0
