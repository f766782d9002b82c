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
        s = MixedGraph(4, edges).builder()
        assert orientation._r3(s, SepsetMap()) is not shielded
        assert s.mark(1, 3) == (CIRCLE if shielded else ARROW)

    def test_two_node_graph_unchanged(self):
        g = MixedGraph(2, [(0, 1, CIRCLE, CIRCLE)])
        assert apply_fci_rules(g, SepsetMap()) == g

    def test_fixpoint_idempotent(self):
        dag = CausalDag(5, [(0, 2), (1, 2), (2, 3), (3, 4)], observed=range(5))
        skel, seps = pc_adjacency_search(DsepOracle(dag))
        pag = apply_fci_rules(orient_v_structures(skel, seps), seps)
        assert apply_fci_rules(pag, seps) == pag

    @pytest.mark.parametrize("graph, order, calls", [
        # no rule fires: one idle call per rule ends the loop
        (MixedGraph(2, [(0, 1, CIRCLE, CIRCLE)]), None, 10),
        (MixedGraph(2, [(0, 1, CIRCLE, CIRCLE)]), (3, 1, 2), 3),
        # R1 fires on its first call, then every rule runs idle once
        (MixedGraph(3, [(0, 1, CIRCLE, ARROW), (1, 2, CIRCLE, CIRCLE)]),
         None, 11),
    ])
    def test_loop_ends_after_one_idle_call_per_rule(self, monkeypatch, graph,
                                                    order, calls):
        made = []
        for rid, rule in orientation._RULES.items():
            def counted(s, sepsets, rule=rule, rid=rid):
                made.append(rid)
                return rule(s, sepsets)
            monkeypatch.setitem(orientation._RULES, rid, counted)
        apply_fci_rules(graph, SepsetMap(), rule_order=order)
        assert len(made) == calls

    @pytest.mark.parametrize("seed", range(8))
    def test_rule_order_does_not_change_fixpoint(self, seed):
        rng = random.Random(seed)
        dag = random_sparse_dag(rng.choice([6, 7, 8]), 3,
                                n_latent=rng.choice([0, 1, 2]),
                                n_selection=rng.choice([0, 1]),
                                edge_density=0.2, seed=seed + 700)
        oracle = DsepOracle(dag)
        skel, seps = pc_adjacency_search(oracle, k=3)
        start = orient_v_structures(skel, seps)
        reference = apply_fci_rules(start, seps)
        order = list(range(1, 11))
        for _ in range(3):
            rng.shuffle(order)
            assert apply_fci_rules(start, seps, rule_order=order) == reference

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
