"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with `pytest -s`). The
shared corpus (500 generated instances, degree bound 3, sizes 8..14, up to
3 latent and 1 selection variable) is built once per session; see conftest.
"""

import itertools
from collections import Counter

from fciplus import (
    ALGORITHM_STAGES, DsepOracle, IndependenceOracle, d_separated,
    pc_adjacency_search, random_sparse_dag, run_pipeline,
)
from fciplus.pipelines import ALGORITHMS
from fciplus import pc as pc_module
from fciplus.generators import bidirected_chain, canonical_examples
from fciplus.report import compare_runs

from .conftest import CORPUS_K
from .brute import equivalence_class_pag, exhaustive_skeleton, truth_pag


def _report(num, desc, ok, detail=""):
    print("criterion %d (%s): %s%s"
          % (num, desc, "PASS" if ok else "FAIL",
             " -- " + detail if detail else ""))
    assert ok, "criterion %d failed: %s %s" % (num, desc, detail)


def test_criterion_1_pag_equivalence(corpus_runs):
    mismatches = []
    dsep_count = 0
    for bundle in corpus_runs:
        dsep_count += bundle.instance.has_dsep
        if not compare_runs(bundle.fciplus, bundle.fci)["identical"]:
            mismatches.append(bundle.instance.seed)
    detail = "%d instances, %d with a true deep-separation link, %d mismatches" \
        % (len(corpus_runs), dsep_count, len(mismatches))
    ok = len(corpus_runs) >= 500 and dsep_count >= 25 and not mismatches
    _report(1, "output equivalence with the exhaustive reference", ok, detail)


def test_criterion_2_ground_truth_skeleton(corpus_runs):
    checked = 0
    bad = []
    for bundle in corpus_runs:
        inst = bundle.instance
        if inst.n > 12:
            continue
        checked += 1
        truth = sorted(inst.mag.edge_pairs())
        got = sorted(bundle.fciplus.pag.edge_pairs())
        ex_skel, _ = exhaustive_skeleton(DsepOracle(inst.dag))
        if got != truth or sorted(ex_skel.edge_pairs()) != truth:
            bad.append(inst.seed)
    ok = checked > 0 and not bad
    _report(2, "skeleton equals exhaustive search equals projection", ok,
            "%d instances checked, %d disagreements" % (checked, len(bad)))


def test_criterion_3_canonical_example():
    ex = canonical_examples()["five_node_deep_link"]
    m = ex.obs_index()
    x, y = m["X"], m["Y"]
    pc = run_pipeline("pc", DsepOracle(ex.dag), k=ex.k, with_checks=False)
    fp = run_pipeline("fciplus", DsepOracle(ex.dag), k=ex.k)
    sep = None
    for r in fp.dsep_log["resolutions"]:
        if set(r["pair"]) == {x, y}:
            sep = set(r["sepset"])
    mag = ex.obs_index()
    pool = fp.pag.adj(x) + fp.pag.adj(y)
    ok = (pc.pag.has_edge(x, y)
          and not fp.pag.has_edge(x, y)
          and sep is not None
          and any(w not in pool for w in sep))
    _report(3, "plain search keeps the edge, the deep search removes it", ok,
            "separator %r" % (sorted(sep) if sep else None))


def test_criterion_4_query_bounds(corpus_runs):
    violations = []
    worst = 0.0
    for bundle in corpus_runs:
        n = bundle.instance.n
        stats = bundle.fciplus.stats
        pc_q = stats["pc_search"]["queries"]
        total_q = sum(stats[s]["queries"] for s in ALGORITHM_STAGES)
        pc_budget = 4 * n ** (CORPUS_K + 2)
        total_budget = n ** (2 * (CORPUS_K + 2))
        worst = max(worst, total_q / total_budget)
        # detection asks no query, so the kept "augment" stage stays empty
        if (pc_q > pc_budget or total_q > total_budget
                or stats["augment"]["queries"]):
            violations.append(bundle.instance.seed)
    _report(4, "per-run query counts within the polynomial budget",
            not violations,
            "worst total/budget ratio %.2e, %d violations" % (worst, len(violations)))


def test_criterion_5_invariant_suite(corpus_runs):
    failed = Counter()
    minimality_bad = []
    for bundle in corpus_runs:
        inst = bundle.instance
        for name, res in bundle.fciplus.checks.items():
            if not res["ok"]:
                failed[name] += 1
        # minimal separating sets from the deep search, re-verified by
        # exhausting all strict subsets on instances with <= 10 variables
        if inst.n <= 10:
            obs = inst.dag.observed
            sel = set(inst.dag.selection)
            for r in bundle.fciplus.dsep_log["resolutions"]:
                x, y = r["pair"]
                zs = sorted(r["sepset"])
                dx, dy = obs[x], obs[y]
                dz = {obs[w] for w in zs}
                if not d_separated(inst.dag, dx, dy, dz | sel):
                    minimality_bad.append((inst.seed, "not separating"))
                    continue
                for rsize in range(len(zs)):
                    for sub in itertools.combinations(zs, rsize):
                        if d_separated(inst.dag, dx, dy,
                                       {obs[w] for w in sub} | sel):
                            minimality_bad.append((inst.seed, sub))
    ok = not failed and not minimality_bad
    _report(5, "soundness invariant suite with zero violations", ok,
            "embedded failures %r, minimality failures %d"
            % (dict(failed), len(minimality_bad)))


def test_criterion_6_micro_orientation_completeness(micro_catalog):
    from .test_orientation import mags_reachable_from_generator
    from fciplus import latent_project
    dags = mags_reachable_from_generator(count=30)
    bad = 0
    for dag in dags:
        mag = latent_project(dag)
        truth = equivalence_class_pag(mag, micro_catalog)
        rep = run_pipeline("fciplus", DsepOracle(dag), k=3, with_checks=False)
        if rep.pag.edges() != truth.edges():
            bad += 1
    ok = len(dags) >= 10 and bad == 0
    _report(6, "marks equal the equivalence-class intersection on 4 nodes",
            ok, "%d projected graphs checked, %d mismatches" % (len(dags), bad))


def _deep_queries(report):
    if report.algorithm == "fciplus":
        return sum(report.stats[s]["queries"]
                   for s in ("dsep_search", "minimal_dsep"))
    return report.stats["reference"]["queries"]


def test_query_count_comparison_report(corpus_runs):
    # asserted: over the whole corpus the hierarchy search asks fewer
    # algorithm queries than the exhaustive reference. Reported only: the
    # deep-stage effort on the instances whose deep stage actually fires
    plus_total = sum(b.fciplus.stats[s]["queries"]
                     for b in corpus_runs for s in ALGORITHM_STAGES)
    ref_total = sum(b.fci.stats[s]["queries"]
                    for b in corpus_runs for s in ("pc_search", "reference"))
    print("algorithm query report (corpus): fciplus %d vs fci %d"
          % (plus_total, ref_total))
    assert plus_total < ref_total
    plus_q = ref_q = n = fewer = 0
    for b in corpus_runs:
        if not b.instance.has_dsep:
            continue
        n += 1
        p = _deep_queries(b.fciplus)
        r = _deep_queries(b.fci)
        plus_q += p
        ref_q += r
        fewer += p <= r
    print("deep-stage query report (corpus): %d instances with links; "
          "hierarchy search %d queries vs exhaustive reference %d "
          "(fewer-or-equal on %d/%d)" % (n, plus_q, ref_q, fewer, n))
    # the saving shows where the reachability supersets grow: on the
    # canonical instances the exhaustive stage pays many times more
    for name, ex in sorted(canonical_examples().items()):
        a = run_pipeline("fciplus", DsepOracle(ex.dag), k=ex.k,
                         with_checks=False)
        b = run_pipeline("fci", DsepOracle(ex.dag), k=ex.k,
                         with_checks=False)
        assert compare_runs(a, b)["identical"]
        print("deep-stage query report (%s): hierarchy %d vs exhaustive %d"
              % (name, _deep_queries(a), _deep_queries(b)))
    assert n > 0


def _algorithm_queries(report):
    return sum(report.stats[s]["queries"] for s in ALGORITHM_STAGES)


def test_bidirected_chain_query_growth():
    # the paper's claim on its own example: on the bi-directed chain every
    # inner node is a collider, so the reachability supersets of fci span
    # the whole chain and its subset search grows exponentially, while the
    # hierarchy search grows polynomially; both end at the same PAG
    plus, ref = [], []
    for length in (6, 8, 10, 12):
        dag = bidirected_chain(length)
        a = run_pipeline("fciplus", DsepOracle(dag), k=3, with_checks=False)
        b = run_pipeline("fci", DsepOracle(dag), k=3, with_checks=False)
        assert a.pag == b.pag
        _assert_chain_deep_search(a, length)
        plus.append(_algorithm_queries(a))
        ref.append(sum(b.stats[s]["queries"]
                       for s in ("pc_search", "reference")))
        assert plus[-1] < ref[-1]
    print("bi-directed chain queries, L = 6..12: fciplus %s vs fci %s"
          % (plus, ref))
    for i in (1, 2):
        assert ref[i + 1] > 4 * ref[i]
        assert plus[i + 1] < 2 * plus[i]
    # beyond fci's reach the truth PAG is the reference, and the hierarchy
    # search stays below L^2 queries
    for length in (20, 30, 40, 60):
        dag = bidirected_chain(length)
        a = run_pipeline("fciplus", DsepOracle(dag), k=3, with_checks=False)
        assert a.pag.edges() == truth_pag(dag).edges()
        _assert_chain_deep_search(a, length)
        assert _algorithm_queries(a) < length ** 2, length


def _assert_chain_deep_search(report, length):
    # the L - 3 inner edges are the candidates and none resolves; the
    # adjacency search answered every set inside one endpoint's adjacency,
    # so each candidate asks one set, the one that spans both sides
    assert report.stats["dsep_search"]["queries"] == length - 3, length
    assert report.stats["minimal_dsep"]["queries"] == 0, length


def sweep_dags():
    """The sparse size sweep: n = 20, 40 and 60, plain draws (density
    1.2/n) and planted ones (0.8/n), 3 latents and 1 selection variable,
    seeds 1-5."""
    for n in (20, 40, 60):
        for planted, density in ((False, 1.2), (True, 0.8)):
            for seed in range(1, 6):
                yield random_sparse_dag(n, 3, 3, 1, density / n, seed=seed,
                                        plant_dsep=planted)


def test_truth_pag_reference(corpus_runs):
    # the truth PAG equals fci's on the corpus, and fciplus's on the chains
    # and on the sweep, where fci is too slow to serve
    for bundle in corpus_runs:
        assert truth_pag(bundle.instance.dag).edges() == \
            bundle.fci.pag.edges(), bundle.instance.seed
    dags = [bidirected_chain(length) for length in (8, 12, 20, 30, 40)]
    for dag in dags + list(sweep_dags()):
        report = run_pipeline("fciplus", DsepOracle(dag), k=3,
                              with_checks=False)
        assert report.pag.edges() == truth_pag(dag).edges(), dag.to_json()


class _RecordingDsepOracle(DsepOracle):
    """Exact oracle that records the (x, y, mask) key, x < y, of every
    call of the trusted entry `ask`, which `query` also answers through."""

    def __init__(self, dag):
        super().__init__(dag)
        self.asked = set()

    def ask(self, x, y, zmask):
        self.asked.add((min(x, y), max(x, y), zmask))
        return super().ask(x, y, zmask)


def _unasked_one_sided_sets(dag, k=CORPUS_K):
    """For each edge x - y that pc_adjacency_search(oracle, k) keeps, the
    sets of at most k members inside Adj(x) \\ {y} or Adj(y) \\ {x} that
    the search did not ask, as (x, y, mask) keys. A complete level-wise
    search leaves this list empty."""
    oracle = _RecordingDsepOracle(dag)
    skel, _ = pc_adjacency_search(oracle, k)
    unasked = []
    for x, y in skel.edge_pairs():
        for a, b in ((x, y), (y, x)):
            side = [v for v in skel.adj(a) if v != b]
            for size in range(min(k, len(side)) + 1):
                for zs in itertools.combinations(side, size):
                    key = (x, y, sum(1 << v for v in zs))
                    if key not in oracle.asked:
                        unasked.append(key)
    return unasked


def test_adjacency_search_asks_every_one_sided_set(corpus, monkeypatch):
    # completeness of the adjacency search: a kept edge was tested against
    # every small set inside either endpoint's adjacency
    for dag in [inst.dag for inst in corpus] + list(sweep_dags()):
        assert _unasked_one_sided_sets(dag) == [], dag.to_json()

    # mutant: the level loop asks only the x side's sets
    def x_side_only(oracle, x, y, xside, yside, size):
        for zs in itertools.combinations(xside, size):
            zmask = sum(zs)
            if not zmask & 1 << y and oracle.ask(x, y, zmask):
                return zmask
        return None

    monkeypatch.setattr(pc_module, "separating_of_size", x_side_only)
    assert any(_unasked_one_sided_sets(inst.dag) for inst in corpus)


class _DecideCountingOracle(DsepOracle):
    """Exact oracle that counts its `_decide` calls, the tests it decides."""

    def __init__(self, dag):
        super().__init__(dag)
        self.decided = 0

    def _decide(self, x, y, zmask):
        self.decided += 1
        return super()._decide(x, y, zmask)


def _miscounted(dag, algorithms):
    """The algorithms whose run on dag, with its embedded checks, counts
    other than one query per decided test: the stages' `queries` must sum
    to the number of memo entries and of `_decide` calls."""
    bad = []
    for algorithm in algorithms:
        oracle = _DecideCountingOracle(dag)
        report = run_pipeline(algorithm, oracle, k=CORPUS_K)
        total = sum(st["queries"] for st in report.stats.values())
        if not total == len(oracle._memo) == oracle.decided:
            bad.append(algorithm)
    return bad


def test_stage_queries_count_each_decided_test_once(corpus, monkeypatch):
    # a memo hit is no test: every stage counts only the tests it decides,
    # in fci's exhaustive reference and the embedded checks as in the search
    for inst in corpus:
        assert _miscounted(inst.dag, ALGORITHMS) == [], inst.seed
    for dag in sweep_dags():
        assert _miscounted(dag, ("pc", "fciplus")) == [], dag.to_json()

    # mutant: the memo hits are counted as queries too, at the trusted
    # entry that every search and `query` answer through
    real_ask = IndependenceOracle.ask

    def counting_hits(self, x, y, zmask):
        size = len(self._memo)
        answer = real_ask(self, x, y, zmask)
        if len(self._memo) == size:
            self._stage.queries += 1
        return answer

    monkeypatch.setattr(IndependenceOracle, "ask", counting_hits)
    assert any(_miscounted(inst.dag, ("fciplus",)) for inst in corpus)
