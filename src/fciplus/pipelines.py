"""End-to-end pipelines and the run harness.

Three pipelines share the adjacency search and orientation machinery:

  pc       adjacency search -> collider orientation -> rule set
  fciplus  adjacency search -> augmented skeleton -> hierarchy-based
           candidate-link search -> collider orientation of the final
           skeleton -> rule set
  fci      adjacency search -> collider orientation -> exhaustive subset
           search over reachability supersets -> re-orientation -> rule set

run_pipeline wraps a pipeline into a RunReport with stage timings and, when
the oracle carries a ground-truth DAG, the embedded invariant-check suite.
"""

import time

from .augment import augment_graph
from .dsep_search import dsep_search
from .orientation import apply_fci_rules, orient_v_structures
from .pc import pc_adjacency_search
from .reference import fci_reference
from .report import RunReport, graph_hash
from .checks import run_invariant_checks

ALGORITHMS = ("pc", "fci", "fciplus")


class PipelineResult:
    """Everything a pipeline produced, for reporting and checking."""

    def __init__(self, algorithm, oracle, k, pag, sepsets, gplus=None,
                 dsep_log=None, timings=None, edges_removed=None):
        self.algorithm = algorithm
        self.oracle = oracle
        self.k = k
        self.pag = pag
        self.sepsets = sepsets
        self.gplus = gplus
        self.dsep_log = dsep_log
        self.timings = timings or {}
        self.edges_removed = edges_removed or {}
        self.stats_snapshot = oracle.stats.snapshot()


def _timed(timings, name, fn):
    t0 = time.perf_counter()
    out = fn()
    timings[name] = round(time.perf_counter() - t0, 6)
    return out


def _all_pairs(n):
    return n * (n - 1) // 2


def run_pc(oracle, k=None):
    timings = {}
    skeleton, sepsets = _timed(timings, "pc_search",
                               lambda: pc_adjacency_search(oracle, k=k))
    pag = _timed(timings, "orientation",
                 lambda: apply_fci_rules(orient_v_structures(skeleton, sepsets),
                                         sepsets))
    removed = {"pc_search": _all_pairs(oracle.n_vars) - skeleton.n_edges}
    return PipelineResult("pc", oracle, k, pag, sepsets, timings=timings,
                          edges_removed=removed)


def run_fciplus(oracle, k):
    timings = {}
    skeleton, sepsets = _timed(timings, "pc_search",
                               lambda: pc_adjacency_search(oracle, k=k))
    gplus = _timed(timings, "augment",
                   lambda: augment_graph(skeleton, sepsets, oracle))
    _, sepsets, log = _timed(timings, "dsep_search",
                             lambda: dsep_search(gplus, sepsets, oracle, k))
    final = skeleton.builder()
    for r in log.resolutions:
        final.remove_edge(*r["pair"])

    def orient():
        with oracle.stage("orientation"):
            pag = orient_v_structures(final.build(), sepsets)
            return apply_fci_rules(pag, sepsets)
    pag = _timed(timings, "orientation", orient)
    removed = {"pc_search": _all_pairs(oracle.n_vars) - skeleton.n_edges,
               "dsep_search": len(log.resolutions)}
    return PipelineResult("fciplus", oracle, k, pag, sepsets, gplus=gplus,
                          dsep_log=log.to_json_dict(), timings=timings,
                          edges_removed=removed)


def run_fci(oracle, k=None):
    timings = {}
    pag, _, sepsets, removed = _timed(
        timings, "reference", lambda: fci_reference(oracle, k=k))
    return PipelineResult("fci", oracle, k, pag, sepsets, timings=timings,
                          edges_removed=removed)


def run_pipeline(algorithm, oracle, k=None, seed=None, with_checks=True):
    """Execute one pipeline and wrap it into a RunReport.

    Invariant checks run when the oracle exposes a ground-truth DAG
    (DsepOracle); their queries are attributed to the reference stage.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError("unknown algorithm %r (choose from %r)"
                         % (algorithm, ALGORITHMS))
    if algorithm == "pc":
        result = run_pc(oracle, k=k)
    elif algorithm == "fciplus":
        result = run_fciplus(oracle, k)
    else:
        result = run_fci(oracle, k=k)

    dag = getattr(oracle, "dag", None)
    checks = {}
    if with_checks and dag is not None:
        checks = run_invariant_checks(dag, result)
        result.stats_snapshot = oracle.stats.snapshot()

    input_hash = graph_hash(dag) if dag is not None else None
    config = {"k": k, "algorithm": algorithm}
    if hasattr(oracle, "alpha"):
        config["alpha"] = oracle.alpha
    return RunReport(
        algorithm=algorithm, n=oracle.n_vars,
        names=list(oracle.names) if oracle.names else
        ["X%d" % i for i in range(oracle.n_vars)],
        pag=result.pag, stats=result.stats_snapshot, config=config,
        seed=seed, input_hash=input_hash, timings=result.timings,
        dsep_log=result.dsep_log, checks=checks,
        edges_removed=result.edges_removed,
    )
