"""Orientation: collider phase plus the complete rule set to fixpoint."""

import random

import pytest

from fciplus import (
    ARROW, CIRCLE, TAIL, CausalDag, DsepOracle, MixedGraph, SepsetMap,
    apply_fci_rules, orient_v_structures, pc_adjacency_search, run_pipeline,
)
from fciplus import orientation
from fciplus.generators import GenerationError, random_sparse_dag
from fciplus.graphs import ModelViolationError

from .brute import equivalence_class_pag


def scan(rule, s, sepsets=None):
    """One scan of rule over s, its marks set by the commit function: True
    if any mark changed."""
    if sepsets is None:
        sepsets = SepsetMap()
    return orientation._commit(s, rule(s, sepsets))


class TestVStructures:
    def test_canonical_collider(self):
        dag = CausalDag(3, [(0, 2), (1, 2)], observed=range(3))
        skel, seps = pc_adjacency_search(DsepOracle(dag))
        pag = orient_v_structures(skel, seps)
        assert pag.mark(2, 0) == ARROW and pag.mark(2, 1) == ARROW
        assert pag.mark(0, 2) == CIRCLE and pag.mark(1, 2) == CIRCLE

    def test_noncollider_unoriented(self):
        dag = CausalDag(3, [(0, 1), (1, 2)], observed=range(3))
        skel, seps = pc_adjacency_search(DsepOracle(dag))
        pag = orient_v_structures(skel, seps)
        assert all(m == CIRCLE for _, _, ma, mb in pag.edges() for m in (ma, mb))

    def test_shielded_triple_untouched(self):
        dag = CausalDag(3, [(0, 1), (0, 2), (1, 2)], observed=range(3))
        skel, seps = pc_adjacency_search(DsepOracle(dag))
        pag = orient_v_structures(skel, seps)
        assert all(m == CIRCLE for _, _, ma, mb in pag.edges() for m in (ma, mb))

    def test_tail_conflict_raises(self):
        skel = MixedGraph(3, [(0, 2, CIRCLE, TAIL), (1, 2, CIRCLE, CIRCLE)])
        seps = SepsetMap()
        seps.set(0, 1, 0)
        with pytest.raises(ModelViolationError):
            orient_v_structures(skel, seps)


class TestRules:
    def test_r1_forced_orientation(self):
        # a o-> b o-o c with a, c nonadjacent becomes a o-> b -> c
        g = MixedGraph(3, [(0, 1, CIRCLE, ARROW), (1, 2, CIRCLE, CIRCLE)])
        out = apply_fci_rules(g, SepsetMap())
        assert out.mark(1, 2) == TAIL and out.mark(2, 1) == ARROW
        assert out.mark(0, 1) == CIRCLE

    def test_rule_conflict_raises(self):
        # R1 must put an arrowhead at c on 1 o-- 2, where a tail is committed
        g = MixedGraph(3, [(0, 1, CIRCLE, ARROW), (1, 2, CIRCLE, TAIL)])
        with pytest.raises(ModelViolationError):
            apply_fci_rules(g, SepsetMap())

    @pytest.mark.parametrize("shielded", [False, True])
    def test_r3_needs_nonadjacent_colliding_ends(self, shielded):
        # a *-> b <-* c, a *-o d o-* c and d *-o b (a, b, c, d = 0, 1, 2,
        # 3): R3 puts an arrowhead at b on d *-o b only when a and c are
        # nonadjacent
        edges = [(0, 1, CIRCLE, ARROW), (2, 1, CIRCLE, ARROW),
                 (0, 3, CIRCLE, CIRCLE), (2, 3, CIRCLE, CIRCLE),
                 (3, 1, CIRCLE, CIRCLE)]
        if shielded:
            edges.append((0, 2, CIRCLE, CIRCLE))
        s = MixedGraph(4, edges)
        assert scan(orientation._r3, s) is not shielded
        assert s.mark(1, 3) == (CIRCLE if shielded else ARROW)

    def test_two_node_graph_unchanged(self):
        g = MixedGraph(2, [(0, 1, CIRCLE, CIRCLE)])
        assert apply_fci_rules(g, SepsetMap()) == g

    def test_fixpoint_idempotent(self):
        dag = CausalDag(5, [(0, 2), (1, 2), (2, 3), (3, 4)], observed=range(5))
        skel, seps = pc_adjacency_search(DsepOracle(dag))
        start = orient_v_structures(skel, seps)
        pag = apply_fci_rules(start, seps)
        assert apply_fci_rules(pag, seps) == pag
        # both phases edit a copy and leave their input as it was
        assert all(e[2:] == (CIRCLE, CIRCLE) for e in skel.edges())
        assert start != pag and start == orient_v_structures(skel, seps)

    @pytest.mark.parametrize("graph, order, calls", [
        # no rule fires: one idle call per rule ends the loop
        (MixedGraph(2, [(0, 1, CIRCLE, CIRCLE)]), None, 10),
        (MixedGraph(2, [(0, 1, CIRCLE, CIRCLE)]), (3, 1, 2), 3),
        # R1 fires on its first call, then every rule runs idle once
        (MixedGraph(3, [(0, 1, CIRCLE, ARROW), (1, 2, CIRCLE, CIRCLE)]),
         None, 11),
        # R1 orients 1 -> 2, then reads that arrowhead at 2 in the same
        # scan and orients 2 -> 3: still one firing call
        (MixedGraph(4, [(0, 1, CIRCLE, ARROW), (1, 2, CIRCLE, CIRCLE),
                        (2, 3, CIRCLE, CIRCLE)]), None, 11),
    ])
    def test_loop_ends_after_one_idle_call_per_rule(self, monkeypatch, graph,
                                                    order, calls):
        # order lists rule numbers; None runs all ten in order
        made = []

        def counted(rule):
            def call(s, sepsets):
                made.append(rule)
                return rule(s, sepsets)
            return call
        rules = orientation._RULES
        monkeypatch.setattr(orientation, "_RULES", tuple(
            counted(rules[rid - 1]) for rid in order or range(1, 11)))
        apply_fci_rules(graph, SepsetMap())
        assert len(made) == calls

    @pytest.mark.parametrize("seed", range(8))
    def test_rule_order_does_not_change_fixpoint(self, monkeypatch, seed):
        rng = random.Random(seed)
        dag = random_sparse_dag(rng.choice([6, 7, 8]), 3,
                                n_latent=rng.choice([0, 1, 2]),
                                n_selection=rng.choice([0, 1]),
                                edge_density=0.2, seed=seed + 700)
        oracle = DsepOracle(dag)
        skel, seps = pc_adjacency_search(oracle, k=3)
        start = orient_v_structures(skel, seps)
        reference = apply_fci_rules(start, seps)
        rules = list(orientation._RULES)
        for _ in range(3):
            rng.shuffle(rules)
            monkeypatch.setattr(orientation, "_RULES", tuple(rules))
            assert apply_fci_rules(start, seps) == reference

    @pytest.mark.parametrize("cycle, chord, fires", [
        # a o-o b closes the circle path <a, c, d, b> (a, b, c, d = 0, 1,
        # 2, 3), a, d and b, c nonadjacent: every edge becomes undirected
        ((0, 2, 3, 1), None, True),
        # the chord a o-o d covers the path
        ((0, 2, 3, 1), (0, 3, CIRCLE, CIRCLE), False),
        # <a, c, e, d, b> stays uncovered, but a -> d makes a adjacent to d
        ((0, 2, 4, 3, 1), (0, 3, TAIL, ARROW), False),
    ])
    def test_r5_needs_uncovered_circle_cycle(self, cycle, chord, fires):
        edges = [(u, v, CIRCLE, CIRCLE) for u, v in zip(cycle, cycle[1:])]
        edges.append((0, 1, CIRCLE, CIRCLE))
        s = MixedGraph(len(cycle), edges + ([chord] if chord else []))
        assert scan(orientation._r5, s) is fires
        want = TAIL if fires else CIRCLE
        assert all(s.mark(x, y) == want and s.mark(y, x) == want
                   for x, y, _, _ in edges)

    @pytest.mark.parametrize("path, chord, fires", [
        # a o-> c and the potentially directed path a o-o b -> d -> c (a,
        # c, b, d = 0, 1, 2, 3), b and c nonadjacent: a -> c
        ((0, 2, 3, 1), None, True),
        # the chord a -> d covers the path
        ((0, 2, 3, 1), (0, 3), False),
        # <a, b, d, e, c> stays uncovered, but b -> c makes b adjacent to c
        ((0, 2, 3, 4, 1), (2, 1), False),
    ])
    def test_r9_needs_uncovered_pd_path(self, path, chord, fires):
        edges = [(0, 1, CIRCLE, ARROW), (0, 2, CIRCLE, CIRCLE)]
        edges += [(u, v, TAIL, ARROW) for u, v in zip(path[1:], path[2:])]
        if chord:
            edges.append(chord + (TAIL, ARROW))
        s = MixedGraph(len(path), edges)
        assert scan(orientation._r9, s) is fires
        assert s.mark(0, 1) == (TAIL if fires else CIRCLE)

    @pytest.mark.parametrize("shielded", [False, True])
    def test_r10_needs_nonadjacent_second_vertices(self, shielded):
        # a o-> c <- b, c <- d, uncovered pd paths a o-o mu -> b and
        # a o-o omega -> d (a, c, b, d, mu, omega = 0, 1, 2, 3, 4, 5):
        # R10 orients a -> c when mu and omega are nonadjacent
        edges = [(0, 1, CIRCLE, ARROW), (2, 1, TAIL, ARROW),
                 (3, 1, TAIL, ARROW), (0, 4, CIRCLE, CIRCLE),
                 (4, 2, TAIL, ARROW), (0, 5, CIRCLE, CIRCLE),
                 (5, 3, TAIL, ARROW)]
        if shielded:
            edges.append((4, 5, CIRCLE, CIRCLE))
        s = MixedGraph(6, edges)
        assert scan(orientation._r10, s) is not shielded
        assert s.mark(0, 1) == (CIRCLE if shielded else TAIL)

    @pytest.mark.parametrize("shielded", [False, True])
    def test_r7_needs_nonadjacent_ends(self, shielded):
        # a -o b o-o c (a, b, c = 0, 1, 2): R7 puts a tail at b on b-c
        # only when a and c are nonadjacent
        edges = [(0, 1, TAIL, CIRCLE), (1, 2, CIRCLE, CIRCLE)]
        if shielded:
            edges.append((0, 2, CIRCLE, CIRCLE))
        s = MixedGraph(3, edges)
        assert scan(orientation._r7, s) is not shielded
        assert s.mark(1, 2) == (CIRCLE if shielded else TAIL)
        assert s.mark(2, 1) == CIRCLE

    @pytest.mark.parametrize("first, second, fires", [
        # a -> b -> c and a o-> c (a, b, c = 0, 1, 2): a -> c
        ((TAIL, ARROW), (TAIL, ARROW), True),
        # a -o b -> c and a o-> c: a -> c
        ((TAIL, CIRCLE), (TAIL, ARROW), True),
        # a -> b o-> c: b -> c is not known, so nothing
        ((TAIL, ARROW), (CIRCLE, ARROW), False),
    ])
    def test_r8_needs_directed_second_edge(self, first, second, fires):
        s = MixedGraph(3, [(0, 1) + first, (1, 2) + second,
                           (0, 2, CIRCLE, ARROW)])
        assert scan(orientation._r8, s) is fires
        assert s.mark(0, 2) == (TAIL if fires else CIRCLE)
        assert s.mark(2, 0) == ARROW

    @pytest.mark.parametrize("at_v, fires", [(ARROW, True), (CIRCLE, False)])
    def test_r4_needs_collider_interior(self, at_v, fires):
        # the path <t, v, b, c> of the test below (t, v, b, c = 0, 1, 2,
        # 3) with b in sepset(t, c): once the mark at v on t *-* v is a
        # circle, v is no collider, the path does not discriminate and
        # b o-o c stays as it was
        g = MixedGraph(4, [(0, 1, CIRCLE, at_v), (1, 2, ARROW, ARROW),
                           (1, 3, TAIL, ARROW), (2, 3, CIRCLE, CIRCLE)])
        seps = SepsetMap()
        seps.set(0, 3, 1 << 2)
        assert scan(orientation._r4, g, seps) is fires
        assert g.mark(2, 3) == (TAIL if fires else CIRCLE)
        assert g.mark(3, 2) == (ARROW if fires else CIRCLE)

    def test_discriminating_path_endpoint_in_sepset(self):
        # path <t, v, b, c>: v a collider and a parent of c, t and c
        # nonadjacent, circle at b on b-c; b in sepset(t, c) forces b -> c
        g = MixedGraph(4, [(0, 1, CIRCLE, ARROW), (1, 2, ARROW, ARROW),
                           (1, 3, TAIL, ARROW), (2, 3, CIRCLE, CIRCLE)])
        seps = SepsetMap()
        seps.set(0, 3, 1 << 2)
        out = apply_fci_rules(g, seps)
        assert out.mark(2, 3) == TAIL and out.mark(3, 2) == ARROW

    def test_discriminating_path_endpoint_not_in_sepset(self):
        # same shape with b outside sepset(t, c): the triple closes up
        # with arrowheads on both edges at b
        g = MixedGraph(4, [(0, 1, CIRCLE, ARROW), (1, 2, ARROW, ARROW),
                           (1, 3, TAIL, ARROW), (2, 3, CIRCLE, CIRCLE)])
        seps = SepsetMap()
        seps.set(0, 3, 0)
        out = apply_fci_rules(g, seps)
        assert out.mark(2, 3) == ARROW and out.mark(3, 2) == ARROW
        assert out.mark(1, 2) == ARROW and out.mark(2, 1) == ARROW

    def test_selection_rules_produce_undirected_edges(self):
        # two selected colliders chain the observed nodes: the completed
        # graph keeps undirected edges (selection cannot be ruled out)
        dag = CausalDag(5, [(0, 3), (1, 3), (1, 4), (2, 4)],
                        observed=[0, 1, 2], selection=[3, 4])
        report = run_pipeline("fciplus", DsepOracle(dag), k=2)
        marks = {m for _, _, ma, mb in report.pag.edges() for m in (ma, mb)}
        assert ARROW not in marks


def mags_reachable_from_generator(count=24):
    """Distinct projected MAGs on 4 observed nodes."""
    seen = {}
    seed = 0
    while len(seen) < count and seed < 4000:
        seed += 1
        rng = random.Random(seed)
        try:
            dag = random_sparse_dag(4, 3, n_latent=rng.choice([0, 1, 2]),
                                    n_selection=rng.choice([0, 1]),
                                    edge_density=rng.choice([0.2, 0.3, 0.4]),
                                    seed=seed, max_tries=60)
        except GenerationError:
            continue
        from fciplus import latent_project
        mag = latent_project(dag)
        key = tuple(mag.edges())
        if key not in seen and mag.n_edges:
            seen[key] = dag
    return list(seen.values())


class TestMicroCompleteness:
    def test_output_marks_equal_equivalence_class_intersection(self, micro_catalog):
        from fciplus import latent_project
        dags = mags_reachable_from_generator()
        assert len(dags) >= 10
        for dag in dags:
            mag = latent_project(dag)
            truth = equivalence_class_pag(mag, micro_catalog)
            report = run_pipeline("fciplus", DsepOracle(dag), k=3,
                                  with_checks=False)
            got = [(a, b, ma, mb) for a, b, ma, mb in report.pag.edges()]
            want = [(a, b, ma, mb) for a, b, ma, mb in truth.edges()]
            assert got == want, "marks differ from enumeration ground truth"

    def test_every_four_node_dag_and_partition(self, mag_catalogs):
        # exhaustive: every DAG on 4 nodes, every observed/latent/selection
        # assignment with >= 2 observed, deduplicated by projected graph
        import itertools
        from fciplus import CausalDag, GraphError, latent_project

        pairs = list(itertools.combinations(range(4), 2))
        seen = {}
        for assign in itertools.product((0, 1, 2), repeat=6):
            edges = []
            for (a, b), st in zip(pairs, assign):
                if st == 1:
                    edges.append((a, b))
                elif st == 2:
                    edges.append((b, a))
            try:
                CausalDag(4, edges, observed=range(4))
            except GraphError:
                continue
            for part in itertools.product((0, 1, 2), repeat=4):
                obs = [i for i in range(4) if part[i] == 0]
                lat = [i for i in range(4) if part[i] == 1]
                sel = [i for i in range(4) if part[i] == 2]
                if len(obs) < 2:
                    continue
                dag = CausalDag(4, edges, obs, lat, sel)
                mag = latent_project(dag)
                key = (len(obs), tuple(mag.edges()))
                seen.setdefault(key, dag)
        assert len(seen) > 500
        for (n_obs, _), dag in sorted(seen.items(), key=lambda kv: kv[0]):
            mag = latent_project(dag)
            truth = equivalence_class_pag(mag, mag_catalogs[n_obs])
            rep = run_pipeline("fciplus", DsepOracle(dag), k=3,
                               with_checks=False)
            assert rep.pag.edges() == truth.edges(), dag.to_json()
