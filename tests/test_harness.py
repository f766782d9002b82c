"""Harness: generation, canonical examples, pipelines, reports, CLI."""

import pytest
from click.testing import CliRunner

from fciplus import (
    CausalDag, DsepOracle, GraphError, compare_runs, has_dsep_link,
    latent_project, random_sparse_dag, run_pipeline,
)
from fciplus.cli import main
from fciplus.generators import (
    ExampleValidationError, GenerationError, CanonicalExample,
    canonical_examples, _named_dag, _dsep_fact,
)
from fciplus.report import RunReport


class TestGenerator:
    def test_deterministic_given_seed(self):
        a = random_sparse_dag(8, 3, 2, 1, 0.2, seed=11)
        b = random_sparse_dag(8, 3, 2, 1, 0.2, seed=11)
        assert a.to_json() == b.to_json()

    def test_sufficiency_projects_to_dag_itself(self):
        dag = random_sparse_dag(8, 3, 0, 0, 0.2, seed=4)
        mag = latent_project(dag)
        assert sorted(mag.edge_pairs()) == dag.skeleton_pairs()
        assert all(mag.is_directed_edge(a, b) or mag.is_directed_edge(b, a)
                   for a, b in mag.edge_pairs())

    def test_degree_bound_respected(self):
        for seed in range(6):
            dag = random_sparse_dag(9, 3, 2, 0, 0.2, seed=seed)
            assert latent_project(dag).max_degree() <= 3

    def test_rejection_budget_error(self):
        with pytest.raises(GenerationError):
            random_sparse_dag(12, 1, 3, 0, 0.9, seed=0, max_tries=5)

    def test_planted_requires_room(self):
        with pytest.raises(GraphError):
            random_sparse_dag(4, 3, 2, 0, 0.1, seed=0, plant_dsep=True)
        with pytest.raises(GraphError):
            random_sparse_dag(8, 3, 1, 0, 0.1, seed=0, plant_dsep=True)

    def test_planted_instances_mostly_carry_links(self):
        hits = 0
        for seed in range(20):
            dag = random_sparse_dag(8, 3, 2, 0, 0.08, seed=seed,
                                    plant_dsep=True)
            hits += has_dsep_link(dag)
        assert hits >= 10

    def test_plain_instances_reported_fraction(self):
        # the detector runs on plain instances too; mostly negative there
        hits = sum(has_dsep_link(random_sparse_dag(8, 3, 2, 0, 0.2, seed=s))
                   for s in range(10))
        assert 0 <= hits <= 10


class TestCanonicalExamples:
    def test_all_examples_validate(self):
        exs = canonical_examples()
        assert set(exs) == {"five_node_deep_link", "hierarchical_links", "transitive_hierarchy"}
        for ex in exs.values():
            assert ex.validate() is ex

    def test_broken_reconstruction_rejected(self):
        dag = _named_dag(["A", "B"], [("A", "B")])
        bad = CanonicalExample("broken", dag, 1,
                               [_dsep_fact("A _||_ B", "A", "B", set())])
        with pytest.raises(ExampleValidationError, match="A _||_ B"):
            bad.validate()


class TestRunPipeline:
    def test_pc_equals_fciplus_on_sufficient_instance(self):
        dag = random_sparse_dag(9, 3, 0, 0, 0.2, seed=8)
        a = run_pipeline("pc", DsepOracle(dag), k=3, with_checks=False)
        b = run_pipeline("fciplus", DsepOracle(dag), k=3, with_checks=False)
        assert compare_runs(a, b)["identical"]

    def test_canonical_edge_absent_from_output(self):
        ex = canonical_examples()["five_node_deep_link"]
        m = ex.obs_index()
        rep = run_pipeline("fciplus", DsepOracle(ex.dag), k=ex.k)
        assert not rep.pag.has_edge(m["X"], m["Y"])
        assert rep.checks and rep.checks_ok()

    def test_query_budget_embedded(self):
        ex = canonical_examples()["five_node_deep_link"]
        rep = run_pipeline("fciplus", DsepOracle(ex.dag), k=ex.k)
        assert rep.checks["query_bounds"]["ok"]

    def test_replay_is_bit_identical(self):
        dag = random_sparse_dag(8, 3, 2, 0, 0.15, seed=21)
        a = run_pipeline("fciplus", DsepOracle(dag), k=3, seed=21)
        b = run_pipeline("fciplus", DsepOracle(dag), k=3, seed=21)
        assert a.replay_key() == b.replay_key()

    def test_report_round_trip(self):
        dag = random_sparse_dag(7, 3, 1, 0, 0.2, seed=2)
        rep = run_pipeline("fciplus", DsepOracle(dag), k=3, seed=2)
        back = RunReport.from_json_line(rep.to_json_line())
        assert back.replay_key() == rep.replay_key()

    def test_unknown_algorithm_rejected(self):
        dag = random_sparse_dag(6, 3, 0, 0, 0.2, seed=1)
        with pytest.raises(ValueError):
            run_pipeline("ges", DsepOracle(dag), k=3)


class TestCompareRuns:
    def test_identical_reports_empty_diff(self):
        dag = random_sparse_dag(8, 3, 1, 0, 0.2, seed=5)
        a = run_pipeline("fciplus", DsepOracle(dag), k=3, with_checks=False)
        b = run_pipeline("fciplus", DsepOracle(dag), k=3, with_checks=False)
        d = compare_runs(a, b)
        assert d["identical"]
        assert not d["edges_only_in_a"] and not d["mark_diffs"]

    def test_canonical_diff_names_the_extra_edge(self):
        ex = canonical_examples()["five_node_deep_link"]
        m = ex.obs_index()
        a = run_pipeline("pc", DsepOracle(ex.dag), k=ex.k, with_checks=False)
        b = run_pipeline("fciplus", DsepOracle(ex.dag), k=ex.k,
                         with_checks=False)
        d = compare_runs(a, b)
        assert not d["identical"]
        pair = (min(m["X"], m["Y"]), max(m["X"], m["Y"]))
        assert d["edges_only_in_a"] == [pair]
        assert d["edges_only_in_b"] == []

    def test_mismatched_tables_rejected(self):
        d1 = random_sparse_dag(6, 3, 0, 0, 0.2, seed=1)
        d2 = random_sparse_dag(7, 3, 0, 0, 0.2, seed=1)
        a = run_pipeline("pc", DsepOracle(d1), with_checks=False)
        b = run_pipeline("pc", DsepOracle(d2), with_checks=False)
        with pytest.raises(ValueError):
            compare_runs(a, b)


class TestCli:
    def test_generate_run_compare_round_trip(self, tmp_path):
        runner = CliRunner()
        g = tmp_path / "g.json"
        r1 = tmp_path / "r1.jsonl"
        r2 = tmp_path / "r2.jsonl"
        res = runner.invoke(main, ["generate", "--n", "8", "--k", "3",
                                   "--latents", "2", "--density", "0.15",
                                   "--seed", "5", "--out", str(g)])
        assert res.exit_code == 0, res.output
        for path in (r1, r2):
            res = runner.invoke(main, ["run", "--alg", "fciplus", "--graph",
                                       str(g), "--k", "3", "--report", str(path)])
            assert res.exit_code == 0, res.output
        res = runner.invoke(main, ["compare", "--a", str(r1), "--b", str(r2)])
        assert res.exit_code == 0, res.output

    def test_compare_flags_differences(self, tmp_path):
        runner = CliRunner()
        ex = canonical_examples()["five_node_deep_link"]
        g = tmp_path / "g.json"
        g.write_text(ex.dag.to_json())
        r1, r2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert runner.invoke(main, ["run", "--alg", "pc", "--graph", str(g),
                                    "--k", "3", "--report", str(r1)]).exit_code == 0
        assert runner.invoke(main, ["run", "--alg", "fciplus", "--graph", str(g),
                                    "--k", "3", "--report", str(r2)]).exit_code == 0
        res = runner.invoke(main, ["compare", "--a", str(r1), "--b", str(r2)])
        assert res.exit_code == 1
        assert "differ" in res.output

    def test_run_rejects_bad_input(self, tmp_path):
        runner = CliRunner()
        res = runner.invoke(main, ["run", "--alg", "fciplus"])
        assert res.exit_code == 2
        bad = tmp_path / "bad.json"
        bad.write_text("{\"n\": 2}")
        res = runner.invoke(main, ["run", "--graph", str(bad)])
        assert res.exit_code == 2

    def test_show_emits_dot(self, tmp_path):
        runner = CliRunner()
        g = tmp_path / "g.json"
        dag = CausalDag(3, [(2, 0), (2, 1)], observed=[0, 1], latent=[2])
        g.write_text(dag.to_json())
        res = runner.invoke(main, ["show", "--graph", str(g)])
        assert res.exit_code == 0 and "digraph" in res.output
        pag = tmp_path / "p.json"
        pag.write_text(latent_project(dag).to_json())
        res = runner.invoke(main, ["show", "--graph", str(pag)])
        assert res.exit_code == 0 and "arrowhead=normal" in res.output

    def test_bench_smoke(self, tmp_path):
        runner = CliRunner()
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for s in (1, 2):
            dag = random_sparse_dag(7, 3, 1, 0, 0.2, seed=s)
            (corpus / ("g%d.json" % s)).write_text(dag.to_json())
        out = tmp_path / "bench.jsonl"
        res = runner.invoke(main, ["bench", "--corpus", str(corpus),
                                   "--algs", "pc,fciplus", "--k", "3",
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert len(out.read_text().splitlines()) == 4

    def test_run_on_csv_data(self, tmp_path):
        import numpy as np
        rng = np.random.default_rng(0)
        x = rng.standard_normal(1500)
        z = 0.9 * x + rng.standard_normal(1500)
        y = 0.9 * z + rng.standard_normal(1500)
        csv = tmp_path / "d.csv"
        csv.write_text("x,z,y\n" + "\n".join(
            "%.5f,%.5f,%.5f" % t for t in zip(x, z, y)) + "\n")
        runner = CliRunner()
        res = runner.invoke(main, ["run", "--alg", "fciplus", "--data",
                                   str(csv), "--alpha", "0.01", "--k", "2"])
        assert res.exit_code == 0, res.output
