"""End-to-end pipelines and the run harness.

Three pipelines share the adjacency search and orientation machinery:

  pc       adjacency search -> collider orientation -> rule set
  fciplus  adjacency search -> hierarchy-based search of the candidate
           links, detected from the skeleton's structure alone ->
           collider orientation of the final skeleton -> rule set
  fci      adjacency search -> collider orientation -> exhaustive subset
           search over reachability supersets -> re-orientation -> rule set

run_pipeline wraps a pipeline into a RunReport with stage timings and, when
the oracle carries a ground-truth DAG, the embedded invariant-check suite.
"""

import time

from .dsep_search import dsep_search
from .orientation import apply_fci_rules, orient_v_structures
from .pc import pc_adjacency_search
from .reference import fci_reference
from .report import RunReport, graph_hash
from .checks import run_invariant_checks

ALGORITHMS = ("pc", "fci", "fciplus")


def _timed(timings, name, fn):
    t0 = time.perf_counter()
    out = fn()
    timings[name] = round(time.perf_counter() - t0, 6)
    return out


def run_pipeline(algorithm, oracle, k=None, seed=None, with_checks=True):
    """Execute one pipeline and wrap it into a RunReport.

    Invariant checks run when the oracle exposes a ground-truth DAG
    (DsepOracle); their queries are attributed to the reference stage. The
    degree bound k is None (unbounded) or at least 0.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError("unknown algorithm %r (choose from %r)"
                         % (algorithm, ALGORITHMS))
    if k is not None and k < 0:
        raise ValueError("degree bound k must be >= 0, got %r" % (k,))
    n = oracle.n_vars
    timings = {}
    dsep_log = None   # fciplus only: the deep-search log
    if algorithm == "fci":
        pag, sepsets, removed = _timed(
            timings, "reference", lambda: fci_reference(oracle, k=k))
    else:
        final, sepsets = _timed(timings, "pc_search",
                                lambda: pc_adjacency_search(oracle, k=k))
        removed = {"pc_search": n * (n - 1) // 2 - final.n_edges}
        if algorithm == "fciplus":
            final, sepsets, dsep_log = _timed(
                timings, "dsep_search",
                lambda: dsep_search(final, sepsets, oracle, k))
            removed["dsep_search"] = len(dsep_log["resolutions"])
        pag = _timed(timings, "orientation", lambda: apply_fci_rules(
            orient_v_structures(final, sepsets), sepsets))

    dag = getattr(oracle, "dag", None)
    checks = {}
    if with_checks and dag is not None:
        checks = run_invariant_checks(dag, oracle, k, pag, sepsets, dsep_log)

    input_hash = graph_hash(dag) if dag is not None else None
    config = {"k": k, "algorithm": algorithm}
    if hasattr(oracle, "alpha"):
        config["alpha"] = oracle.alpha
    return RunReport(
        algorithm=algorithm, n=n,
        names=list(oracle.names),
        pag=pag, stats=oracle.stats.to_dict(), config=config,
        seed=seed, input_hash=input_hash, timings=timings,
        dsep_log=dsep_log, checks=checks,
        edges_removed=removed, test_errors=oracle.n_test_errors,
    )
