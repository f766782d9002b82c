"""Harness: generation, worked-example facts, pipelines, reports, CLI."""

import json
import warnings

import pytest
from click.testing import CliRunner

from fciplus import (
    CausalDag, DsepOracle, GraphError, compare_runs, d_separated,
    has_dsep_link, latent_project, random_sparse_dag, run_pipeline,
)
from fciplus.checks import _true_dsep_links
from fciplus.cli import main
from fciplus.generators import GenerationError
from fciplus.report import RunReport

from .brute import skeleton_pairs
from .examples import EXAMPLES, obs_index

FIVE_NODE = EXAMPLES["five_node_deep_link"]


class TestGenerator:
    def test_deterministic_given_seed(self):
        a = random_sparse_dag(8, 3, 2, 1, 0.2, seed=11)
        b = random_sparse_dag(8, 3, 2, 1, 0.2, seed=11)
        assert a.to_json() == b.to_json()

    def test_sufficiency_projects_to_dag_itself(self):
        dag = random_sparse_dag(8, 3, 0, 0, 0.2, seed=4)
        mag = latent_project(dag)
        assert sorted(mag.edge_pairs()) == skeleton_pairs(dag)
        assert all(mag.is_directed_edge(a, b) or mag.is_directed_edge(b, a)
                   for a, b in mag.edge_pairs())

    def test_degree_bound_respected(self):
        for seed in range(6):
            for nl, ns, dens, planted in ((2, 0, 0.2, False),
                                          (2, 1, 0.2, False),
                                          (3, 2, 0.15, False),
                                          (2, 1, 0.1, True),
                                          (3, 1, 0.08, True)):
                dag = random_sparse_dag(9, 3, nl, ns, dens, seed=seed,
                                        plant_dsep=planted)
                assert len(dag.selection) == ns
                assert latent_project(dag).max_degree() <= 3

    def test_rejection_budget_error(self):
        with pytest.raises(GenerationError):
            random_sparse_dag(12, 1, 3, 0, 0.9, seed=0, max_tries=5)

    def test_edge_density_outside_unit_interval(self):
        for density in (-0.1, 1.5, 2.0, float("nan")):
            with pytest.raises(GraphError, match="edge_density"):
                random_sparse_dag(8, 3, 1, 0, density, seed=0)
        random_sparse_dag(8, 3, 0, 0, 0.0, seed=0)

    def test_negative_variable_counts_rejected(self):
        for latents, selection in ((-1, 0), (0, -1)):
            with pytest.raises(GraphError, match="variable counts"):
                random_sparse_dag(6, 3, latents, selection, seed=0)

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
        assert set(EXAMPLES) == {"five_node_deep_link", "hierarchical_links",
                                 "transitive_hierarchy"}
        for name, (dag, _, facts) in EXAMPLES.items():
            index = {nm: i for i, nm in enumerate(dag.names)}
            obs, mag = obs_index(dag), latent_project(dag)
            for kind, x, y, *zs in facts:
                if kind == "deep":
                    held = (tuple(sorted((obs[x], obs[y])))
                            in _true_dsep_links(dag, mag))
                elif kind == "nonadjacent":
                    held = not mag.has_edge(obs[x], obs[y])
                else:
                    held = d_separated(dag, index[x], index[y],
                                       {index[v] for v in zs[0]}) \
                        == (kind == "dsep")
                assert held, (name, kind, x, y, *zs)


class TestRunPipeline:
    def test_pc_equals_fciplus_on_sufficient_instance(self):
        dag = random_sparse_dag(9, 3, 0, 0, 0.2, seed=8)
        a = run_pipeline("pc", DsepOracle(dag), k=3, with_checks=False)
        b = run_pipeline("fciplus", DsepOracle(dag), k=3, with_checks=False)
        assert compare_runs(a, b)["identical"]

    def test_canonical_edge_absent_from_output(self):
        dag, k, _ = FIVE_NODE
        m = obs_index(dag)
        rep = run_pipeline("fciplus", DsepOracle(dag), k=k)
        assert not rep.pag.has_edge(m["X"], m["Y"])
        assert rep.checks and rep.checks_ok()

    def test_query_budget_embedded(self):
        rep = run_pipeline("fciplus", DsepOracle(FIVE_NODE.dag), k=FIVE_NODE.k)
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

    @pytest.mark.parametrize("algorithm", ["pc", "fci", "fciplus"])
    def test_negative_degree_bound_rejected(self, algorithm):
        dag = random_sparse_dag(6, 3, 0, 0, 0.2, seed=1)
        with pytest.raises(ValueError, match="degree bound"):
            run_pipeline(algorithm, DsepOracle(dag), k=-1)


class TestCompareRuns:
    def test_identical_reports_empty_diff(self):
        dag = random_sparse_dag(8, 3, 1, 0, 0.2, seed=5)
        a = run_pipeline("fciplus", DsepOracle(dag), k=3, with_checks=False)
        b = run_pipeline("fciplus", DsepOracle(dag), k=3, with_checks=False)
        d = compare_runs(a, b)
        assert d["identical"]
        assert not d["edges_only_in_a"] and not d["mark_diffs"]

    def test_canonical_diff_names_the_extra_edge(self):
        dag, k, _ = FIVE_NODE
        m = obs_index(dag)
        a = run_pipeline("pc", DsepOracle(dag), k=k, with_checks=False)
        b = run_pipeline("fciplus", DsepOracle(dag), k=k, with_checks=False)
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


# JSON that parses but is not a graph or report object
# each wrong-shaped input, with the field its error names
WRONG_SHAPES = (("[]", "top level"), ("[1, 2]", "top level"),
                ('{"n": 2, "edges": 5, "observed": [0, 1]}', '"edges"'))


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

    def test_run_reads_k_from_the_truth(self, tmp_path):
        # fciplus without --k takes the projected graph's maximum degree
        g, out = tmp_path / "g.json", tmp_path / "r.jsonl"
        g.write_text(FIVE_NODE.dag.to_json())
        res = CliRunner().invoke(main, ["run", "--alg", "fciplus", "--graph",
                                        str(g), "--report", str(out)])
        assert res.exit_code == 0, res.output
        degree = latent_project(FIVE_NODE.dag).max_degree()
        assert degree == FIVE_NODE.k
        assert json.loads(out.read_text())["config"]["k"] == degree

    def test_compare_rejects_different_line_counts(self, tmp_path):
        runner = CliRunner()
        g = tmp_path / "g.json"
        g.write_text(FIVE_NODE.dag.to_json())
        one, two = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
        for path, runs in ((one, 1), (two, 2)):
            for _ in range(runs):
                assert runner.invoke(main, [
                    "run", "--alg", "pc", "--graph", str(g),
                    "--report", str(path)]).exit_code == 0
        res = runner.invoke(main, ["compare", "--a", str(one), "--b", str(two)])
        assert res.exit_code == 2, res.output
        assert "different lengths (1 vs 2)" in res.output

    def test_bench_rejects_unknown_algorithm(self, tmp_path):
        (tmp_path / "g.json").write_text(FIVE_NODE.dag.to_json())
        res = CliRunner().invoke(main, ["bench", "--corpus", str(tmp_path),
                                        "--algs", "pc,nope"])
        assert res.exit_code == 2, res.output
        assert "unknown algorithm 'nope'" in res.output

    def test_bench_rejects_corpus_without_graphs(self, tmp_path):
        (tmp_path / "notes.txt").write_text("no graphs here\n")
        res = CliRunner().invoke(main, ["bench", "--corpus", str(tmp_path)])
        assert res.exit_code == 2, res.output
        assert "no *.json graphs" in res.output

    def test_compare_flags_differences(self, tmp_path):
        runner = CliRunner()
        g = tmp_path / "g.json"
        g.write_text(FIVE_NODE.dag.to_json())
        r1, r2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert runner.invoke(main, ["run", "--alg", "pc", "--graph", str(g),
                                    "--k", "3", "--report", str(r1)]).exit_code == 0
        assert runner.invoke(main, ["run", "--alg", "fciplus", "--graph", str(g),
                                    "--k", "3", "--report", str(r2)]).exit_code == 0
        res = runner.invoke(main, ["compare", "--a", str(r1), "--b", str(r2)])
        assert res.exit_code == 1
        assert "differ" in res.output

    def test_compare_rejects_report_without_stats(self, tmp_path):
        runner = CliRunner()
        g = tmp_path / "g.json"
        g.write_text(FIVE_NODE.dag.to_json())
        good, bad = tmp_path / "good.jsonl", tmp_path / "bad.jsonl"
        assert runner.invoke(main, ["run", "--alg", "pc", "--graph", str(g),
                                    "--report", str(good)]).exit_code == 0
        line = json.loads(good.read_text())
        del line["stats"]
        bad.write_text(json.dumps(line) + "\n")
        res = runner.invoke(main, ["compare", "--a", str(good), "--b", str(bad)])
        assert res.exit_code == 2, res.output
        assert "stats" in res.output

    def test_run_rejects_bad_input(self, tmp_path):
        runner = CliRunner()
        res = runner.invoke(main, ["run", "--alg", "fciplus"])
        assert res.exit_code == 2
        bad = tmp_path / "bad.json"
        bad.write_text("{\"n\": 2}")
        res = runner.invoke(main, ["run", "--graph", str(bad)])
        assert res.exit_code == 2

    @pytest.mark.parametrize("alpha", ["0", "1", "1.5", "2.5", "-0.1"])
    def test_run_rejects_alpha_outside_unit_interval(self, tmp_path, alpha):
        csv = tmp_path / "d.csv"
        csv.write_text("x,y\n1,2\n2,1\n3,5\n4,3\n")
        res = CliRunner().invoke(main, ["run", "--data", str(csv),
                                        "--alpha", alpha])
        assert res.exit_code == 2, res.output
        assert "alpha" in res.output

    @pytest.mark.parametrize("density", ["2", "-0.5"])
    def test_generate_rejects_density_outside_unit_interval(self, tmp_path,
                                                            density):
        res = CliRunner().invoke(main, ["generate", "--n", "8", "--k", "3",
                                        "--density", density,
                                        "--out", str(tmp_path / "g.json")])
        assert res.exit_code == 2, res.output
        assert "is outside [0, 1]" in res.output
        assert not (tmp_path / "g.json").exists()

    @pytest.mark.parametrize("count", ["--latents", "--selection"])
    def test_generate_rejects_negative_variable_counts(self, tmp_path, count):
        res = CliRunner().invoke(main, ["generate", "--n", "6", "--k", "3",
                                        count, "-1",
                                        "--out", str(tmp_path / "g.json")])
        assert res.exit_code == 2, res.output
        assert "variable counts" in res.output
        assert not (tmp_path / "g.json").exists()

    def test_run_rejects_missing_values(self, tmp_path):
        csv = tmp_path / "d.csv"
        csv.write_text("x,y\n1,nan\n2,1\n3,5\n4,3\n")
        res = CliRunner().invoke(main, ["run", "--data", str(csv)])
        assert res.exit_code == 2, res.output
        assert "NaN" in res.output

    def test_run_rejects_wrong_shape(self, tmp_path):
        bad = tmp_path / "bad.json"
        for text, named in WRONG_SHAPES:
            bad.write_text(text)
            res = CliRunner().invoke(main, ["run", "--graph", str(bad)])
            assert res.exit_code == 2 and named in res.output, (text, res.output)

    @pytest.mark.parametrize("command", ["run", "bench"])
    def test_negative_k_rejected(self, tmp_path, command):
        g = tmp_path / "g.json"
        g.write_text(random_sparse_dag(6, 3, 0, 0, 0.2, seed=1).to_json())
        where = ["--graph", str(g)] if command == "run" else \
            ["--corpus", str(tmp_path)]
        res = CliRunner().invoke(main, [command, *where, "--k", "-1"])
        assert res.exit_code == 2, res.output

    def test_run_rejects_header_only_csv(self, tmp_path):
        csv = tmp_path / "d.csv"
        csv.write_text("a,b,c\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = CliRunner().invoke(main, ["run", "--data", str(csv)])
        assert res.exit_code == 2, res.output
        assert "no data rows" in res.output

    def test_compare_rejects_wrong_shape(self, tmp_path):
        runner = CliRunner()
        g = tmp_path / "g.json"
        g.write_text(FIVE_NODE.dag.to_json())
        good, bad = tmp_path / "good.jsonl", tmp_path / "bad.jsonl"
        assert runner.invoke(main, ["run", "--alg", "pc", "--graph", str(g),
                                    "--report", str(good)]).exit_code == 0
        # each shape as a whole report line, then as the pag of a good one
        line_named = ("top level", "top level", "missing field 'algorithm'")
        pag_named = ('field "pag"', 'field "pag"', '"edges"')
        for (text, _), named, in_pag in zip(WRONG_SHAPES, line_named,
                                            pag_named):
            line = json.loads(good.read_text())
            line["pag"] = json.loads(text)
            for bad_line, want in ((text, named), (json.dumps(line), in_pag)):
                bad.write_text(bad_line + "\n")
                res = runner.invoke(main, ["compare", "--a", str(good),
                                           "--b", str(bad)])
                assert res.exit_code == 2 and want in res.output, \
                    (bad_line, res.output)

    def test_bench_rejects_wrong_shape(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for text, named in WRONG_SHAPES:
            (corpus / "g.json").write_text(text)
            res = CliRunner().invoke(main, ["bench", "--corpus", str(corpus)])
            assert res.exit_code == 2 and named in res.output, (text, res.output)

    def test_show_rejects_wrong_shape(self, tmp_path):
        bad = tmp_path / "bad.json"
        for text, named in WRONG_SHAPES:
            bad.write_text(text)
            res = CliRunner().invoke(main, ["show", "--graph", str(bad)])
            assert res.exit_code == 2 and named in res.output, (text, res.output)

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

    def test_bench_totals_equal_the_pipelines_without_checks(self, tmp_path):
        # bench runs the embedded checks; they ask only tests that the run
        # already decided, which are memo hits and no queries, so every
        # algorithm's total is its own search's
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        want = {"pc": 0, "fci": 0, "fciplus": 0}
        for s in range(20):
            dag = random_sparse_dag(10, 3, 2, s % 2, 0.25, seed=s)
            (corpus / ("g%02d.json" % s)).write_text(dag.to_json())
            for a in want:
                report = run_pipeline(a, DsepOracle(dag), k=3,
                                      with_checks=False)
                want[a] += sum(st["queries"] for st in report.stats.values())
        res = CliRunner().invoke(main, ["bench", "--corpus", str(corpus)])
        assert res.exit_code == 0, res.output
        assert res.output.splitlines() == [
            "%-8s 20 instances, %d queries total" % (a, want[a])
            for a in ("pc", "fci", "fciplus")]

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
