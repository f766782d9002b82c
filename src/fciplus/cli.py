"""Command-line interface: generate instances, run pipelines, compare runs,
benchmark a corpus, and export graphs for visualization.

Exit codes: 0 success, 1 structural difference or failed embedded check,
2 invalid input.
"""

from contextlib import contextmanager
import json
import pathlib
import sys

import click

from .generators import GenerationError, has_dsep_link, random_sparse_dag
from .graphs import (
    CausalDag, GraphError, MixedGraph, ModelViolationError, latent_project,
)
from .oracles import DsepOracle, GaussOracle
from .pipelines import ALGORITHMS, run_pipeline
from .report import RunReport, compare_runs, format_diff


def _fail_input(msg):
    click.echo("error: %s" % msg, err=True)
    sys.exit(2)


@contextmanager
def _input_guard(prefix=""):
    """Reject input that fails to parse or has the wrong shape (GraphError
    and OracleError are ValueErrors) with exit code 2."""
    try:
        yield
    except KeyError as exc:
        _fail_input("%smissing field %s" % (prefix, exc))
    except (TypeError, ValueError) as exc:
        _fail_input(prefix + str(exc))


@click.group()
def main():
    """Constraint-based causal structure learning toolkit."""


@main.command()
@click.option("--n", required=True, type=int, help="number of observed variables")
@click.option("--k", required=True, type=int, help="max degree of the projected graph")
@click.option("--latents", default=0, type=int, show_default=True)
@click.option("--selection", default=0, type=int, show_default=True)
@click.option("--density", default=0.25, type=float, show_default=True)
@click.option("--seed", default=0, type=int, show_default=True)
@click.option("--plant-dsep", is_flag=True, default=False,
              help="wire in the motif that defeats the plain adjacency search")
@click.option("--out", required=True, type=click.Path(dir_okay=False))
def generate(n, k, latents, selection, density, seed, plant_dsep, out):
    """Generate a random sparse causal DAG and write it as graph JSON."""
    try:
        dag = random_sparse_dag(n, k, latents, selection, density, seed,
                                plant_dsep=plant_dsep)
    except (GenerationError, GraphError) as exc:
        _fail_input(str(exc))
    pathlib.Path(out).write_text(dag.to_json() + "\n")
    click.echo("wrote %s (n=%d, edges=%d, dsep_link=%s)"
               % (out, dag.n, len(dag.edges), has_dsep_link(dag)))


@main.command()
@click.option("--alg", "algorithm", type=click.Choice(ALGORITHMS), default="fciplus",
              show_default=True)
@click.option("--graph", "graph_path", type=click.Path(exists=True, dir_okay=False),
              help="ground-truth causal DAG JSON (exact oracle)")
@click.option("--data", "data_path", type=click.Path(exists=True, dir_okay=False),
              help="CSV samples (Gaussian partial-correlation oracle)")
@click.option("--alpha", default=0.01, type=float, show_default=True)
@click.option("--k", default=None, type=click.IntRange(min=0),
              help="degree bound for the search")
@click.option("--seed", default=None, type=int)
@click.option("--report", "report_path", type=click.Path(dir_okay=False),
              help="append the run report to this JSON-lines file")
@click.option("--no-checks", is_flag=True, default=False)
def run(algorithm, graph_path, data_path, alpha, k, seed, report_path,
        no_checks):
    """Run a pipeline against an exact or a sample-data oracle."""
    if (graph_path is None) == (data_path is None):
        _fail_input("provide exactly one of --graph or --data")
    with _input_guard():
        if graph_path is not None:
            dag = CausalDag.from_json(pathlib.Path(graph_path).read_text())
            oracle = DsepOracle(dag)
        else:
            oracle = GaussOracle.from_csv(data_path, alpha=alpha)
    if algorithm == "fciplus" and k is None and graph_path is not None:
        # with ground truth available, default to the true degree bound
        k = max(latent_project(oracle.dag).max_degree(), 1)
    try:
        report = run_pipeline(algorithm, oracle, k=k, seed=seed,
                              with_checks=not no_checks)
    except ModelViolationError as exc:
        # inconsistent test answers (sample data); not an input error
        click.echo("error: inconsistent independence answers: %s" % exc,
                   err=True)
        sys.exit(1)
    if report_path:
        with open(report_path, "a") as fh:
            fh.write(report.to_json_line() + "\n")
    total = sum(s["queries"] for s in report.stats.values())
    click.echo("%s: %d edges in output, %d queries"
               % (algorithm, report.pag.n_edges, total))
    for name, res in sorted(report.checks.items()):
        click.echo("  check %-32s %s" % (name, "ok" if res["ok"] else
                                         "FAIL (%s)" % res["detail"]))
    if report.checks and not report.checks_ok():
        sys.exit(1)


@main.command()
@click.option("--a", "path_a", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--b", "path_b", required=True, type=click.Path(exists=True, dir_okay=False))
def compare(path_a, path_b):
    """Compare two report files line by line; nonzero exit on any
    structural difference."""
    lines_a = pathlib.Path(path_a).read_text().splitlines()
    lines_b = pathlib.Path(path_b).read_text().splitlines()
    if len(lines_a) != len(lines_b):
        _fail_input("report files have different lengths (%d vs %d)"
                    % (len(lines_a), len(lines_b)))
    any_diff = False
    for i, (la, lb) in enumerate(zip(lines_a, lines_b)):
        with _input_guard("line %d: " % (i + 1)):
            ra = RunReport.from_json_line(la)
            rb = RunReport.from_json_line(lb)
            diff = compare_runs(ra, rb)
        if not diff["identical"]:
            any_diff = True
            click.echo("line %d: PAGs differ" % (i + 1))
            click.echo(format_diff(diff, ra.names))
    if any_diff:
        sys.exit(1)
    click.echo("%d report pairs identical" % len(lines_a))


@main.command()
@click.option("--corpus", required=True,
              type=click.Path(exists=True, file_okay=False))
@click.option("--algs", default="pc,fci,fciplus", show_default=True)
@click.option("--k", default=3, type=click.IntRange(min=0), show_default=True)
@click.option("--out", "out_path", type=click.Path(dir_okay=False),
              help="write all reports to this JSON-lines file")
def bench(corpus, algs, k, out_path):
    """Run algorithms over every graph JSON in a directory and report each
    algorithm's queries: the tests decided in every stage, the embedded
    checks' included."""
    algorithms = [a.strip() for a in algs.split(",") if a.strip()]
    for a in algorithms:
        if a not in ALGORITHMS:
            _fail_input("unknown algorithm %r" % a)
    paths = sorted(pathlib.Path(corpus).glob("*.json"))
    if not paths:
        _fail_input("no *.json graphs in %s" % corpus)
    reports = []
    totals = {a: 0 for a in algorithms}
    failures = 0
    for path in paths:
        with _input_guard("%s: " % path):
            dag = CausalDag.from_json(path.read_text())
        for a in algorithms:
            report = run_pipeline(a, DsepOracle(dag), k=k)
            reports.append(report)
            totals[a] += sum(s["queries"] for s in report.stats.values())
            if report.checks and not report.checks_ok():
                failures += 1
                click.echo("%s %s: embedded checks FAILED" % (path.name, a))
    for a in algorithms:
        click.echo("%-8s %d instances, %d queries total"
                   % (a, len(paths), totals[a]))
    if out_path:
        with open(out_path, "w") as fh:
            for r in reports:
                fh.write(r.to_json_line() + "\n")
    if failures:
        sys.exit(1)


@main.command()
@click.option("--graph", "graph_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="graph JSON (causal DAG or mixed graph)")
@click.option("--out", "out_path", type=click.Path(dir_okay=False),
              help="write DOT here instead of stdout")
def show(graph_path, out_path):
    """DOT export of a graph JSON file."""
    with _input_guard("bad JSON: "):
        d = json.loads(pathlib.Path(graph_path).read_text())
    with _input_guard():
        if isinstance(d, dict) and (d.get("latent") or d.get("selection")):
            dot = CausalDag.from_json_dict(d).to_dot()
        else:
            dot = MixedGraph.from_json_dict(d).to_dot()
    if out_path:
        pathlib.Path(out_path).write_text(dot)
        click.echo("wrote %s" % out_path)
    else:
        click.echo(dot, nl=False)


if __name__ == "__main__":
    main()
