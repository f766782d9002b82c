"""The four workloads: set-up, the measured loop, the checks and the metrics.

A run (one operation) is `run_pipeline("fciplus", oracle, k=3)` with the
embedded checks on wherever the oracle carries a DAG, timed together with
the construction of its oracle; `generate` times a `random_sparse_dag` draw
before it. Each run repeats whole passes over the same inputs, so the share
of failed operations never depends on how long it ran. Reported times are
scaled to a reference machine speed (speed.py).
"""

from collections import Counter
from contextlib import nullcontext
import random
import statistics
from time import perf_counter

from fciplus import DsepOracle, GaussOracle, ModelViolationError, run_pipeline
from fciplus.generators import random_sparse_dag

import inputs
from spans import Tracer, traced_oracle
from speed import SpeedClock
from truth import Truth, fisher_z_margin

K = inputs.K
ALPHA = 0.01
ALGO_STAGES = ("pc_search", "augment", "dsep_search", "minimal_dsep",
               "orientation")
SETUP_REPEATS = 3
FZ_SAMPLES = 6          # Fisher z answers re-derived per gauss_sample run
FZ_TIE = 1e-9           # margins this close to the threshold are not judged
LEARN_EVERY = 3         # generate learns the PAG of every third draw
KERNEL = {"gauss_sample": "numpy"}   # speed kernel per workload; else python


class Case:
    """One input, with the truths its checks compare against.

    A `generate` case carries the random_sparse_dag arguments instead of a
    DAG; `inspect` runs the benchmark's own checks on its first draw, and
    only cases with `learn` set go on to learn a PAG.
    """

    def __init__(self, dag=None, truth=None, pairs=None, ref_edges=None,
                 data=None, params=None, learn=True):
        self.dag = dag
        self.truth = truth
        self.pairs = pairs
        self.ref_edges = ref_edges
        self.data = data
        self.params = params
        self.learn = learn
        self.problems = []
        self.planted_unlinked = False
        self.dag_json = None

    def oracle(self, dsep_cls=DsepOracle, gauss_cls=GaussOracle):
        if self.data is None:
            return dsep_cls(self.dag)
        return gauss_cls(self.data, alpha=ALPHA)

    def inspect(self, dag):
        """Check a drawn DAG: acyclic, the requested variable counts, and a
        projected degree <= K, all by the benchmark's own code. A planted
        draw without a deep pair is recorded, not failed (see README)."""
        p = self.params
        self.dag = dag
        self.dag_json = dag.to_json()
        if (len(dag.observed), len(dag.latent), len(dag.selection)) != \
                (p["n_observed"], p["n_latent"], p["n_selection"]):
            self.problems.append("wrong variable counts")
        try:
            self.truth = Truth(dag.n, dag.edges, dag.observed, dag.selection)
        except ValueError as exc:
            self.problems.append("cyclic: %s" % exc)
            return
        self.pairs = self.truth.projected_pairs()
        degree = [0] * len(dag.observed)
        for a, b in self.pairs:
            degree[a] += 1
            degree[b] += 1
        if max(degree, default=0) > K:
            self.problems.append("projected degree %d > %d" % (max(degree), K))
        self.planted_unlinked = (p.get("plant_dsep", False)
                                 and not self.truth.deep_pairs(self.pairs))


def _reference_edges(dag):
    """The true PAG: the fci reference under the exact oracle."""
    return run_pipeline("fci", DsepOracle(dag), k=K,
                        with_checks=False).pag.edges()


def _case(inst, data=None):
    dag = inst.dag()
    return Case(dag, inst.truth, inst.pairs, _reference_edges(dag), data=data)


def setup_sparse_exact(seed):
    return [_case(inst) for inst in inputs.sparse_exact(seed)]


def setup_deep_links(seed):
    return [_case(inst) for inst in inputs.deep_links(seed)]


def setup_gauss_sample(seed):
    return [_case(inst, data) for inst, data in inputs.gauss_sample(seed)]


def generate_params(seed, count=312):
    """random_sparse_dag arguments: n = 8..20, alternately plain and with
    the planted motif; edge_density scaled to n (1.2/n plain, 0.8/n
    planted) keeps the rejection loop far below its 3000-try budget."""
    rng = random.Random("generate/%d" % seed)
    out = []
    for i in range(count):
        n = 8 + (i // 2) % 13
        j = i // 2
        if i % 2:
            p = dict(n_observed=n, k=K, n_latent=2 + j % 2,
                     n_selection=1 if j % 4 == 3 else 0,
                     edge_density=0.8 / n, plant_dsep=True)
        else:
            p = dict(n_observed=n, k=K, n_latent=j % 4,
                     n_selection=1 if j % 4 == 3 else 0,
                     edge_density=1.2 / n)
        p["seed"] = rng.randrange(2 ** 31)
        out.append(p)
    return out


def setup_generate(seed):
    """Draws and checks the DAGs whose PAGs are learned (every
    LEARN_EVERY-th) and computes their reference PAGs; the other draws are
    checked on their first draw in the measured loop."""
    cases = []
    for i, p in enumerate(generate_params(seed)):
        case = Case(params=p, learn=i % LEARN_EVERY == 0)
        if case.learn:
            case.inspect(random_sparse_dag(**p))
            case.ref_edges = _reference_edges(case.dag)
        cases.append(case)
    return cases


SETUPS = {
    "sparse_exact": setup_sparse_exact,
    "deep_links": setup_deep_links,
    "gauss_sample": setup_gauss_sample,
    "generate": setup_generate,
}


def marks_correct(edges, ref_edges):
    """Endpoint marks equal to the reference's, on edges present in both."""
    ref = {(a, b): (ma, mb) for a, b, ma, mb in ref_edges}
    hits = 0
    for a, b, ma, mb in edges:
        want = ref.get((a, b))
        if want is not None:
            hits += (ma == want[0]) + (mb == want[1])
    return hits


def algo_queries(report):
    return sum(report.stats[s]["queries"] for s in ALGO_STAGES)


def check_run(case, report, rng):
    """Problems with one fciplus run; an empty list means correct.

    On sample data, FZ_SAMPLES seeded queries are put to a fresh
    GaussOracle over the same data and compared with the benchmark's own
    residual-based Fisher z decision."""
    problems = []
    edges = report.pag.edges()
    if case.data is None:
        if edges != case.ref_edges:
            problems.append("PAG differs from the fci reference")
        if [(a, b) for a, b, _ma, _mb in edges] != case.pairs:
            problems.append("skeleton differs from the projection")
        bad = case.truth.unsound_marks(edges)
        if bad:
            problems.append("marks unsound against the DAG: %r" % bad)
        if not report.checks or not report.checks_ok():
            problems.append("embedded checks failed: %r" % sorted(
                name for name, c in report.checks.items() if not c["ok"]))
        return problems
    oracle = GaussOracle(case.data, alpha=ALPHA)
    n = oracle.n_vars
    for _ in range(FZ_SAMPLES):
        x, y = rng.sample(range(n), 2)
        zs = sorted(rng.sample([v for v in range(n) if v not in (x, y)],
                               rng.randrange(4)))
        margin = fisher_z_margin(case.data, x, y, zs, ALPHA)
        if abs(margin) > FZ_TIE and oracle.query(x, y, zs) != (margin >= 0):
            problems.append("Fisher z answer for (%d, %d | %r) differs"
                            % (x, y, zs))
    return problems


class Loop:
    """Runs whole passes over the cases and accumulates what the metrics
    need; a tracer turns on the traced oracles, the fci reference run and
    the per-layer bookkeeping."""

    def __init__(self, seed, cases, clock, tracer=None):
        self.seed = seed
        self.clock = clock
        self.cases = cases
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.run_s = {}      # case index -> scaled seconds of each run
        self.gen_s = {}      # case index -> scaled seconds of each draw
        self.passes = 0
        self.replay = {}
        self.pass_queries = None
        self.pass_marks = None
        self.first_problem = None
        self.violations = 0      # sample-data runs ended by ModelViolationError
        self.layer = Counter()   # per-layer sums over traced operations
        if tracer is None:
            self.oracle_cls = (DsepOracle, GaussOracle)
        else:
            self.oracle_cls = (traced_oracle(DsepOracle),
                               traced_oracle(GaussOracle))

    def run(self, seconds):
        deadline = perf_counter() + seconds
        while self.passes == 0 or perf_counter() < deadline:
            queries = marks = 0
            for i, case in enumerate(self.cases):
                q, m = self.operation(i, case)
                queries += q
                marks += m
            if self.pass_queries is None:
                self.pass_queries, self.pass_marks = queries, marks
            self.passes += 1

    def span(self, name):
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(name)

    def operation(self, i, case):
        self.clock.calibrate()
        self.attempted += 1
        traced = self.tracer is not None
        if traced:
            self.tracer.op = self.attempted
        problems = []
        queries = marks = 0
        try:
            if case.params is not None:
                with self.span("generators"):
                    t0 = perf_counter()
                    dag = random_sparse_dag(**case.params)
                    self.gen_s.setdefault(i, []).append(
                        self.clock.scaled(perf_counter() - t0))
                if case.dag_json is None:
                    case.inspect(dag)
                elif dag.to_json() != case.dag_json:
                    problems.append("draw differs from the first draw")
                problems += case.problems
                if not case.learn:
                    return self.tally(i, problems, 0, 0)
            with self.span("fciplus"):
                t0 = perf_counter()
                oracle = case.oracle(*self.oracle_cls)
                try:
                    report = run_pipeline("fciplus", oracle, k=K)
                except ModelViolationError:
                    # conflicting sample answers: seen on some seeds only, so
                    # counted apart and scored as a run with no correct marks
                    if case.data is None:
                        raise
                    self.violations += 1
                    return self.tally(i, problems, 0, 0)
                self.run_s.setdefault(i, []).append(
                    self.clock.scaled(perf_counter() - t0))
            rng = random.Random("check/%d/%d" % (self.seed, i))
            problems += check_run(case, report, rng)
            key = report.replay_key()
            if self.replay.setdefault(i, key) != key:
                problems.append("replay differs from the first pass")
            queries = algo_queries(report)
            marks = marks_correct(report.pag.edges(), case.ref_edges)
            if traced:
                with self.span("fci"):
                    ref = run_pipeline("fci", case.oracle(*self.oracle_cls),
                                       k=K, with_checks=False)
                self.count_layers(report, oracle, ref)
        except Exception as exc:  # a raising run is a failed operation
            problems.append("%s: %s" % (type(exc).__name__, exc))
        return self.tally(i, problems, queries, marks)

    def tally(self, i, problems, queries, marks):
        if problems:
            self.failed += 1
            if self.first_problem is None:
                self.first_problem = "case %d: %s" % (i, problems[0])
        return queries, marks

    def count_layers(self, report, oracle, ref):
        c = self.layer
        for stage, st in report.stats.items():
            c["queries." + stage] += st["queries"]
        c["queries.fci"] += (ref.stats["pc_search"]["queries"]
                             + ref.stats["reference"]["queries"])
        log = report.dsep_log
        c["combos"] += sum(log["combos_tried"].values())
        c["resolutions"] += len(log["resolutions"])
        # every failed attempt is later reactivated or left failed at the end
        c["attempts"] += (len(log["resolutions"]) + log["reactivations"]
                          + len(log["failed_final"]))
        c["query_calls"] += oracle.query_calls
        c["query_s"] += oracle.query_s
        c["decide_calls"] += oracle.decide_calls
        c["decide_s"] += oracle.decide_s
        c["test_errors"] += getattr(oracle, "n_test_errors", 0)

    def pags_per_s(self):
        return per_second(self.run_s)

    def dags_per_s(self):
        return per_second(self.gen_s) if self.gen_s else self.pags_per_s()


def per_second(times):
    """Inputs handled per second, taking each input's median time over the
    passes, so that a burst of load from elsewhere on the machine during one
    pass does not count."""
    return len(times) / sum(statistics.median(ts) for ts in times.values())


def end_to_end(name, seed, seconds):
    clock = SpeedClock(KERNEL.get(name, "python"))
    setup_times = []
    for _ in range(SETUP_REPEATS):
        clock.calibrate(force=True)
        t0 = perf_counter()
        cases = SETUPS[name](seed)
        elapsed = perf_counter() - t0
        clock.calibrate(force=True)
        setup_times.append(clock.scaled(elapsed))
    loop = Loop(seed, cases, clock)
    loop.run(seconds)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "pags_per_s": (loop.pags_per_s(), "PAGs/s"),
        "run_ms_p50": (statistics.median(
            t for ts in loop.run_s.values() for t in ts) * 1000, "ms"),
        "queries": (loop.pass_queries, "count"),
        "marks_correct": (loop.pass_marks, "count"),
        # one DAG per PAG outside generate, where a DAG is drawn per run
        "dags_per_s": (loop.dags_per_s(), "DAGs/s"),
    }
    return loop, metrics


def per_layer(name, seed, seconds, trace_path):
    cases = SETUPS[name](seed)
    clock = SpeedClock(KERNEL.get(name, "python"))
    plain = Loop(seed, cases, clock)
    plain.run(seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        loop = Loop(seed, cases, clock, tracer)
        loop.run(seconds / 2)
    finally:
        tracer.uninstall()
    tracer.write(trace_path)
    p = loop.passes
    violations = loop.violations / p
    loop.attempted += plain.attempted
    loop.failed += plain.failed
    loop.violations += plain.violations
    loop.first_problem = plain.first_problem or loop.first_problem

    totals = tracer.totals()

    def span_s(span, col=1):
        return totals.get(span, [0, 0.0, 0.0])[col] / p

    c = loop.layer
    kept = totals.get("generators", [0])[0]
    traced_pps = loop.pags_per_s()

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {
        "pc.s": (span_s("pc"), "s"),
        "pc.queries": (c["queries.pc_search"] / p, "count"),
        "augment.s": (span_s("augment"), "s"),
        "augment.calls": (span_s("augment", 0), "count"),
        "augment.queries": (c["queries.augment"] / p, "count"),
        "dsep_search.self_s": (span_s("dsep_search", 2), "s"),
        "dsep_search.queries": (c["queries.dsep_search"] / p, "count"),
        "dsep_search.combos": (c["combos"] / p, "count"),
        "dsep_search.resolutions": (c["resolutions"] / p, "count"),
        "dsep_search.resolve_ratio": (ratio(c["resolutions"], c["attempts"]),
                                      "ratio"),
        "minimal_dsep.s": (span_s("minimal_dsep"), "s"),
        "minimal_dsep.queries": (c["queries.minimal_dsep"] / p, "count"),
        "orientation.s": (span_s("orientation"), "s"),
        "orientation.model_violations": (violations, "count"),
        "checks.s": (span_s("checks"), "s"),
        # run_invariant_checks counts its oracle queries under "reference"
        "checks.queries": (c["queries.reference"] / p, "count"),
        "checks.hierarchy_ancestry_s": (span_s("checks.hierarchy_ancestry"), "s"),
        "reference.s": (span_s("reference"), "s"),
        "reference.queries": (c["queries.fci"] / p, "count"),
        "oracles.query_calls": (c["query_calls"] / p, "count"),
        "oracles.decide_calls": (c["decide_calls"] / p, "count"),
        "oracles.decide_s": (c["decide_s"] / p, "s"),
        "oracles.overhead_s": ((c["query_s"] - c["decide_s"]) / p, "s"),
        "oracles.memo_hit_ratio": (ratio(c["query_calls"] - c["decide_calls"],
                                         c["query_calls"]),
                                   "ratio"),
        "oracles.test_errors": (c["test_errors"] / p, "count"),
        "graphs.latent_project_calls": (span_s("latent_project", 0), "count"),
        "graphs.latent_project_s": (span_s("latent_project"), "s"),
        "generators.s": (span_s("generators"), "s"),
        "generators.draws": (tracer.draws / p, "count"),
        "generators.keep_ratio": (ratio(kept, tracer.draws), "ratio"),
        "generators.planted_unlinked": (sum(k.planted_unlinked for k in cases),
                                        "count"),
        "trace.pags_per_s": (traced_pps, "PAGs/s"),
        "trace.overhead": (plain.pags_per_s() / traced_pps, "ratio"),
    }
    return loop, metrics
