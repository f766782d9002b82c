"""Invariant checks against their exhaustive forms in tests/brute.py."""

from collections import Counter
import copy
import importlib
from itertools import combinations
import random

from fciplus import (
    ARROW, CIRCLE, TAIL, CausalDag, DsepOracle, MixedGraph, SepsetMap,
    dsep_search, latent_project, minimal_dsep, pc_adjacency_search,
    random_sparse_dag, run_pipeline,
)
from fciplus import checks, graphs
from fciplus.checks import (
    _true_dsep_links, check_arrowhead_soundness, check_hierarchy_ancestry,
    check_hierarchy_separates_links, check_query_bounds,
    check_resolved_links, check_sepsets, check_tail_soundness,
)
from fciplus.generators import GenerationError

from .brute import (
    bf_hierarchy_ancestry, bf_true_dsep_links, brute_projection, mask,
    naive_ancestors,
)
from .examples import EXAMPLES, obs_index
from .test_dsep import _ScriptedOracle, _refute_one_sided
from .test_replay_digest import replay_inputs


def random_dags(count, seed=0):
    """Seeded random_sparse_dag draws, n = 8..16, with 0-3 latents and 0-1
    selection variables; every second draw plants the deep-link motif."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        planted = i % 2 == 1
        try:
            out.append(random_sparse_dag(
                rng.randint(8, 16), 3, n_latent=rng.randint(2 if planted else 0, 3),
                n_selection=rng.randint(0, 1),
                edge_density=rng.choice([0.08, 0.12]), seed=rng.randrange(10 ** 6),
                plant_dsep=planted, max_tries=250))
        except GenerationError:
            continue
    return out


class TestTrueDsepLinks:
    def test_matches_subset_search_on_corpus(self, corpus):
        links = 0
        for inst in corpus:
            want = bf_true_dsep_links(inst.dag, inst.mag)
            assert _true_dsep_links(inst.dag, inst.mag) == want, inst.seed
            links += len(want)
        assert links >= 30

    def test_matches_subset_search_on_random_dags(self):
        links = selected = 0
        for dag in random_dags(300):
            mag = latent_project(dag)
            want = bf_true_dsep_links(dag, mag)
            assert _true_dsep_links(dag, mag) == want, dag.to_json()
            links += len(want)
            selected += bool(want and dag.selection)
        assert links >= 100 and selected >= 10

    def test_matches_brute_forms_with_latents_and_selection(self):
        # planted draws that each hold latents and selection variables:
        # the projection and the links both equal their brute forms
        rng = random.Random(29)
        links = 0
        for _ in range(650):
            try:
                dag = random_sparse_dag(
                    rng.randint(7, 12), 3, n_latent=rng.randint(2, 4),
                    n_selection=rng.randint(1, 2),
                    edge_density=rng.choice([0.06, 0.1]),
                    seed=rng.randrange(10 ** 6), plant_dsep=True,
                    max_tries=250)
            except GenerationError:
                continue
            mag = latent_project(dag)
            assert mag.edges() == brute_projection(dag), dag.to_json()
            want = bf_true_dsep_links(dag, mag)
            assert _true_dsep_links(dag, mag) == want, dag.to_json()
            links += len(want)
        assert links >= 500

    def test_check_walks_on_the_replay_inputs(self, monkeypatch):
        # the walks the embedded checks make themselves, the projection's
        # and the link search's (the oracle's are not counted): walking
        # every same-component pair that no edge joins makes 475 and 402
        inputs = list(replay_inputs())
        links = sum(len(_true_dsep_links(dag, latent_project(dag)))
                    for dag, _k in inputs)
        walks = Counter()

        def counted(name, real):
            def walk(*args):
                walks[name] += 1
                return real(*args)
            return walk

        monkeypatch.setattr(graphs, "dsep_reach",
                            counted("projection", graphs.dsep_reach))
        monkeypatch.setattr(checks, "dsep_reach",
                            counted("links", checks.dsep_reach))
        for dag, k in inputs:
            report = run_pipeline("fciplus", DsepOracle(dag), k=k)
            assert all(c["ok"] for c in report.checks.values())
        # each pair the link search walked is a link
        assert walks == {"projection": 206, "links": links} and links == 15


def random_sepsets(rng, dag, pairs):
    """Stored sets over the observed ids of dag: each member is drawn from
    the pair's own ancestors (plus selection ancestors) and, one time in
    eight, from anywhere."""
    obs = dag.observed
    index = {o: i for i, o in enumerate(obs)}
    seps = SepsetMap()
    for _ in range(pairs):
        a, b = sorted(rng.sample(range(len(obs)), 2))
        up = dag.ancestors([obs[a], obs[b]] + list(dag.selection))
        near = sorted(index[o] for o in up if o in index and index[o] not in (a, b))
        anywhere = [v for v in range(len(obs)) if v not in (a, b)]
        zs = set()
        for _ in range(rng.randint(0, 3)):
            pool = anywhere if rng.random() < 0.125 or not near else near
            zs.add(rng.choice(pool))
        seps.set(a, b, mask(zs))
    return seps


class TestSepsetChecks:
    def test_set_that_does_not_separate_fails(self):
        # X and Y need the deep node Z: their adjacent nodes U, V alone
        # leave them connected
        dag = EXAMPLES["five_node_deep_link"].dag
        ix = obs_index(dag)
        seps = SepsetMap()
        seps.set(ix["X"], ix["Y"], mask({ix["U"], ix["V"]}))
        assert check_sepsets(seps, DsepOracle(dag)) == (
            False, "sepset violations: [('not separating', %d, %d)]"
            % (ix["X"], ix["Y"]))

    def test_set_with_a_spare_member_fails(self):
        # {Z3} and {W} each separate S from Z1, so {Z3, W} is not minimal:
        # either member can go
        dag = EXAMPLES["transitive_hierarchy"].dag
        ix = obs_index(dag)
        s, z1, w, z3 = ix["S"], ix["Z1"], ix["W"], ix["Z3"]
        seps = SepsetMap()
        seps.set(s, z1, mask({w}))
        assert check_sepsets(seps, DsepOracle(dag)) == (
            True, "1 sepsets separating and minimal")
        seps.set(s, z1, mask({w, z3}))
        assert check_sepsets(seps, DsepOracle(dag)) == (
            False, "sepset violations: [('not minimal', %d, %d, %d), "
            "('not minimal', %d, %d, %d)]" % (s, z1, w, s, z1, z3))

    def test_hierarchy_without_the_deep_set_fails(self):
        # the link X - Y has adjacent ancestors U, V; the hierarchy of
        # {U, V} reaches Z only through the set stored for (U, V)
        ex = EXAMPLES["five_node_deep_link"]
        ix = obs_index(ex.dag)
        oracle = DsepOracle(ex.dag)
        mag = latent_project(ex.dag)
        _, seps = pc_adjacency_search(oracle, k=ex.k)
        assert seps.get(ix["U"], ix["V"]) == mask({ix["Z"]})
        assert check_hierarchy_separates_links(ex.dag, mag, seps, oracle) == (
            True, "hierarchy separates all 1 true candidate links")
        doctored = seps.copy()
        doctored.set(ix["U"], ix["V"], 0)
        assert check_hierarchy_separates_links(
            ex.dag, mag, doctored, oracle) == (
            False, "hierarchy fails to separate: [(%d, %d)]"
            % (ix["X"], ix["Y"]))


class TestHierarchyAncestry:
    def test_agrees_with_closure_form(self):
        rng = random.Random(5)
        outcomes = set()
        for dag in random_dags(60, seed=1):
            for _ in range(10):
                seps = random_sepsets(rng, dag, rng.randint(1, 8))
                ok, _detail = check_hierarchy_ancestry(dag, seps)
                assert ok == bf_hierarchy_ancestry(dag, seps)
                outcomes.add(ok)
        assert outcomes == {True, False}

    def test_fails_on_the_pairs_own_set(self):
        # 0 -> 2 <- 1: the collider 2 is no ancestor of {0, 1}
        dag = CausalDag(3, [(0, 2), (1, 2)], observed=range(3))
        seps = SepsetMap()
        seps.set(0, 1, mask({2}))
        assert not bf_hierarchy_ancestry(dag, seps)
        assert check_hierarchy_ancestry(dag, seps) == (
            False, "non-ancestral hierarchy members: [(0, 1, 2)]")

    def test_fails_through_a_second_stored_pair(self):
        # 2 -> 0, 3 -> 1, 2 -> 4 <- 3. The set of (0, 1) is ancestral; the
        # closure of {0, 1} then takes in (2, 3) and its collider 4.
        dag = CausalDag(5, [(2, 0), (3, 1), (2, 4), (3, 4)], observed=range(5))
        seps = SepsetMap()
        seps.set(0, 1, mask({2, 3}))
        assert check_hierarchy_ancestry(dag, seps) == (
            True, "hierarchy members ancestral for 1 pair seeds")
        seps.set(2, 3, mask({4}))
        assert not bf_hierarchy_ancestry(dag, seps)
        assert check_hierarchy_ancestry(dag, seps) == (
            False, "non-ancestral hierarchy members: [(2, 3, 4)]")


class TestMarkSoundness:
    def test_random_marks_judged_by_ancestry(self):
        # every mark on the true MAG's edges, drawn at random: an arrowhead
        # at w towards v is unsound iff w is an ancestor of v or of the
        # selection set, a tail iff it is not
        rng = random.Random(3)
        found = {ARROW: 0, TAIL: 0}
        for dag in random_dags(40, seed=2):
            back, sel = dag.observed, set(dag.selection)
            g = MixedGraph(len(back), [
                (a, b, rng.choice((ARROW, TAIL, CIRCLE)),
                 rng.choice((ARROW, TAIL, CIRCLE)))
                for a, b in latent_project(dag).edge_pairs()])
            want = {ARROW: [], TAIL: []}
            for a, b, ma, mb in g.edges():
                for w, v, m in ((a, b, ma), (b, a, mb)):
                    ancestral = back[w] in naive_ancestors(dag, {back[v]} | sel)
                    if m == (ARROW if ancestral else TAIL):
                        want[m].append((w, v))
            for mark, check, what in ((ARROW, check_arrowhead_soundness, "arrowheads"),
                                      (TAIL, check_tail_soundness, "tails")):
                bad = want[mark]
                assert check(dag, g) == (
                    not bad, "unsound %s: %r" % (what, bad) if bad
                    else "all %s sound" % what)
                found[mark] += len(bad)
        assert min(found.values()) >= 20


def _hierarchical_run():
    dag, k, _ = EXAMPLES["hierarchical_links"]
    return dag, run_pipeline("fciplus", DsepOracle(dag), k=k)


class TestDeepSearchChecks:
    def test_resolution_outside_its_pass_fails(self):
        # two resolutions: each pair must be among the candidates of the
        # pass that resolved it
        dag, report = _hierarchical_run()
        log = report.dsep_log
        assert len(log["resolutions"]) == 2
        assert check_resolved_links(dag, log) == (True, "2 resolutions sound")
        first, second = (r["pair"] for r in log["resolutions"])
        # resolved in pass 0, the first pair is no candidate of pass 1
        swapped = copy.deepcopy(log)
        swapped["resolutions"].reverse()
        assert first not in log["detected"][1]
        assert check_resolved_links(dag, swapped) == (
            False, "resolved-link violations: [('not detected', %d, %d)]"
            % tuple(first))
        truncated = copy.deepcopy(log)
        del truncated["detected"][1:]
        assert check_resolved_links(dag, truncated) == (
            False, "resolved-link violations: [('not detected', %d, %d)]"
            % tuple(second))

    def test_ancestral_endpoint_fails(self):
        # 3 -> 5 and 4 -> 0 in the truth: a resolution of either pair, even
        # one detected in its pass, has an endpoint ancestral to the other
        dag, report = _hierarchical_run()
        for pair, side in (([3, 5], "x"), ([0, 4], "y")):
            doctored = copy.deepcopy(report.dsep_log)
            doctored["resolutions"][0].update(pair=pair, sepset=[])
            doctored["detected"][0].append(pair)
            assert check_resolved_links(dag, doctored) == (
                False, "resolved-link violations: [('%s ancestral', %d, %d)]"
                % (side, *pair))


def _scripted_retry_run():
    """The deep search over the chains 0-1-2-3 and 4-5-6-7, whose candidate
    (1, 2) fails, then resolves on its retry once (5, 6) has resolved:
    (stats, log). The oracle first answers every set inside one endpoint's
    adjacency, as the adjacency search does; the stored sets take every
    nonempty set that the walks reach outside both, so each is asked. The
    first attempt at (1, 2) walks four base pairs for three queries, (5, 6)
    resolves on its second base pair, and the retry of (1, 2) resolves on
    its second base pair, whose closure gained (5, 6)'s set."""
    g = MixedGraph(8, [(a, b, CIRCLE, CIRCLE) for a, b in
                       [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)]])
    seps = SepsetMap()
    seps.set(0, 2, mask({4}))
    seps.set(1, 3, mask({5, 6}))
    seps.set(5, 7, mask({3}))
    oracle = _ScriptedOracle({(5, 6, mask({3, 7})): True,
                              (1, 2, mask({3, 5, 6, 7})): True}, 8)
    _refute_one_sided(g, oracle, 1)
    _, _, log = dsep_search(g, seps, oracle, k=1)
    return oracle.stats.to_dict(), log


class TestDeepSearchBudgets:
    def test_walk_asks_at_most_one_query_per_base_pair(self):
        stats, log = _scripted_retry_run()
        assert stats["dsep_search"]["queries"] == 5
        assert log["combos_tried"] == {"1,2": 6, "5,6": 2}
        ok, detail = check_query_bounds(stats, 8, None, log)
        assert ok and "dsep_search 5 <= 8 base pairs" in detail
        # mutant: the retry's walk overwrites the pair's count instead of
        # adding to it, so the queries of the first attempt go uncounted
        mutant = copy.deepcopy(log)
        mutant["combos_tried"]["1,2"] = 2
        ok, detail = check_query_bounds(stats, 8, None, mutant)
        assert not ok and "dsep_search 5 <= 4 base pairs" in detail

    def test_minimal_dsep_within_its_elimination_passes(self, monkeypatch):
        _dag, report = _hierarchical_run()
        sizes = [len(r["candidate"]) for r in report.dsep_log["resolutions"]]
        budget = sum(m * (m + 1) // 2 for m in sizes)
        stats = report.stats
        assert stats["minimal_dsep"]["queries"] <= budget
        doctored = copy.deepcopy(stats)
        doctored["minimal_dsep"]["queries"] = budget
        assert check_query_bounds(doctored, report.n, 3, report.dsep_log)[0]
        doctored["minimal_dsep"]["queries"] += 1
        ok, detail = check_query_bounds(doctored, report.n, 3, report.dsep_log)
        assert not ok and "minimal_dsep %d <= %d" % (budget + 1, budget) in detail

        # mutant: minimalize by trying every set of the other variables,
        # smallest first; the sets stay minimal, but it decides tests that
        # no earlier stage asked. (A mutant that tries only the subsets of
        # Z* passes here: on hierarchical_links the adjacency search asked
        # them all, so they are memo hits.)
        def smallest_subset(x, y, z_star, oracle):
            others = [v for v in range(oracle.n_vars) if v not in (x, y)]
            with oracle.stage("minimal_dsep"):
                assert oracle.query(x, y, z_star)
                for size in range(z_star.bit_count() + 1):
                    for sub in combinations(others, size):
                        if oracle.query(x, y, mask(sub)):
                            return mask(sub)

        monkeypatch.setattr(importlib.import_module("fciplus.dsep_search"),
                            "minimal_dsep", smallest_subset)
        dag, k, _ = EXAMPLES["transitive_hierarchy"]
        mutated = run_pipeline("fciplus", DsepOracle(dag), k=k)
        budget = sum(m * (m + 1) // 2 for m in
                     (len(r["candidate"])
                      for r in mutated.dsep_log["resolutions"]))
        assert mutated.checks["sepsets_minimal"]["ok"]
        assert not mutated.checks["query_bounds"]["ok"]
        assert mutated.stats["minimal_dsep"]["queries"] > budget

    def test_minimal_dsep_budget_is_tight(self):
        # Z* = {2, 3, 4} for the pair (0, 1), and each pass removes one
        # member, the last in id order: the passes hold 3, 2 and 1 members
        # and decide 3 + 2 + 1 = 6 tests, the whole budget. The
        # precondition was decided by dsep_search, as in a run
        z_star = mask({2, 3, 4})
        log = {"combos_tried": {"0,1": 1},
               "resolutions": [{"pair": [0, 1], "candidate": [2, 3, 4],
                                "sepset": [2]}]}

        def run(eliminate):
            oracle = _ScriptedOracle({(0, 1, m): True for m in
                                      (z_star, mask({2, 3}), mask({2}))}, 6)
            with oracle.stage("dsep_search"):
                assert oracle.query(0, 1, z_star)
            assert eliminate(0, 1, z_star, oracle) == mask({2})
            return check_query_bounds(oracle.stats.to_dict(), 6, None, log)

        ok, detail = run(minimal_dsep)
        assert ok and "dsep_search 1 <= 1 base pairs, minimal_dsep 6 <= 6" \
            in detail

        # mutant: one test more than its passes allow, such as a final
        # check of the result against one node more
        def one_more(x, y, z_star, oracle):
            current = minimal_dsep(x, y, z_star, oracle)
            with oracle.stage("minimal_dsep"):
                oracle.ask(x, y, current | 1 << 5)
            return current

        ok, detail = run(one_more)
        assert not ok and "minimal_dsep 7 <= 6" in detail
