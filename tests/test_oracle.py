"""Oracles: d-separation delegation, stage accounting, Fisher z testing."""

from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
import inspect
import itertools
import random
from statistics import NormalDist
import sys
import warnings

import numpy as np
import pytest

from fciplus import (
    CausalDag, DsepOracle, GaussOracle, OracleError, d_separated,
    has_dsep_link, run_pipeline,
)
from fciplus import oracles
from fciplus.report import RunReport

from .brute import (
    bf_fisher_z_margin, moral_d_separated, naive_components, sweep_fisher_z,
    sweep_row, sweep_set,
)
from .examples import EXAMPLES


def fork_dag():
    # X -> Y, plus latent/selection variants used across tests
    return CausalDag(2, [(0, 1)], observed=[0, 1])


class TestDsepOracle:
    def test_adjacent_pair_dependent(self):
        o = DsepOracle(fork_dag())
        assert o.query(0, 1, set()) is False

    def test_blocked_chain_independent(self):
        dag = CausalDag(3, [(0, 1), (1, 2)], observed=[0, 1, 2])
        assert DsepOracle(dag).query(0, 2, {1}) is True

    def test_selection_conditioning_is_implicit(self):
        # X -> S <- Y with S under selection: marginally dependent
        dag = CausalDag(3, [(0, 2), (1, 2)], observed=[0, 1], selection=[2])
        assert DsepOracle(dag).query(0, 1, set()) is False

    def test_observed_reindexing(self):
        # observed ids 1, 3 in the dag appear as 0, 1 to the oracle
        dag = CausalDag(4, [(0, 1), (0, 3), (2, 3)], observed=[1, 3],
                        latent=[0, 2])
        o = DsepOracle(dag)
        assert o.n_vars == 2
        assert o.query(0, 1, set()) is False

    def test_latent_id_rejected(self):
        dag = CausalDag(3, [(2, 0), (2, 1)], observed=[0, 1], latent=[2])
        o = DsepOracle(dag)
        with pytest.raises(OracleError):
            o.query(0, 2, set())
        with pytest.raises(OracleError):
            o.query(0, 1, {5})

    @pytest.mark.parametrize("seed", range(4))
    def test_delegation_identity(self, seed):
        rng = random.Random(seed)
        edges = [(i, j) for i in range(6) for j in range(i + 1, 6)
                 if rng.random() < 0.3]
        dag = CausalDag(6, edges, observed=range(6))
        o = DsepOracle(dag)
        for x, y in itertools.combinations(range(6), 2):
            for zs in [set(), {v for v in range(6) if v not in (x, y)
                               and rng.random() < 0.4}]:
                assert o.query(x, y, zs) == d_separated(dag, x, y, zs)

    def test_memo_decides_each_key_once(self):
        class Counting(DsepOracle):
            decided = 0

            def _decide(self, x, y, zmask):
                self.decided += 1
                return super()._decide(x, y, zmask)

        dag = CausalDag(5, [(0, 1), (1, 2), (0, 3), (3, 2), (4, 2)],
                        observed=range(5))
        o = Counting(dag)
        with o.stage("pc_search"):
            answers = [o.query(0, 2, [1, 3]), o.query(2, 0, [1, 3]),
                       o.query(0, 2, [3, 1]), o.query(0, 2, 0b1010)]
        assert answers == [d_separated(dag, 0, 2, {1, 3})] * 4
        st = o.stats.stages["pc_search"]
        assert st.queries == o.decided == 1 and st.memo_hits == 3

    def test_invalid_ids_rejected_on_every_call(self):
        # a bool, float or numpy id can equal a memoized int key, and a mask
        # bit at or above n_vars can spill into the key of another pair
        # ((1, 2, bits 4 and 6) reads as (2, 3, ())); each must still be
        # rejected on a hit, as on a miss
        dag = CausalDag(4, [(0, 1), (1, 2)], observed=range(4))
        o = DsepOracle(dag)
        bad = [(True, 2, {3}), (1.0, 2, {3}), (np.int64(1), 2, {3}),
               (1, 2, {3.0}), (1, 2, {np.int64(3)}), (0, 2, {True}),
               (1, 4, ()), (-1, 2, ()), (1, 2, {4}), (2, 2, ()),
               (1, 2, {1, 3}), ("1", 2, ()), (None, 2, ()),
               (1, 2, -1), (1, 2, -8), (1, 2, 1 << 4),
               (1, 2, 1 << 4 | 1 << 6), (1, 2, 0b0010), (1, 2, 0b1100),
               (1, 2, True), (1, 2, 3.0)]
        for memoized in (False, True):
            for x, y, z in bad:
                for _ in range(2):
                    with pytest.raises(OracleError):
                        o.query(x, y, z)
            if not memoized:
                for x, y, z in [(1, 2, {3}), (0, 2, {1}), (2, 1, ()),
                                (2, 3, ())]:
                    o.query(x, y, z)
        assert sum(st.queries for st in o.stats.stages.values()) == 4


def hidden_dag_spec(rng, n, n_latent, density):
    """CausalDag arguments for a random DAG over n nodes whose latents and
    one selection variable sit at random ids, so that the observed ids are
    not 0..N-1."""
    order = list(range(n))
    rng.shuffle(order)
    edges = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n)
             if rng.random() < density]
    hidden = rng.sample(range(n), n_latent + 1)
    return {"n": n, "edges": edges, "latent": hidden[:-1],
            "selection": hidden[-1:],
            "observed": [v for v in range(n) if v not in hidden]}


def motif_chain(m):
    """m copies of the five_node_deep_link example, each with its two
    latents, chained y_i -> z_(i+1); ids 7i..7i+6 are z, u, v, x, y and the
    latents."""
    edges, latent = [], []
    for i in range(m):
        z, u, v, x, y, l1, l2 = range(7 * i, 7 * i + 7)
        edges += [(z, u), (z, v), (u, y), (v, x), (l1, u), (l1, x), (l2, v),
                  (l2, y)]
        latent += [l1, l2]
        if i:
            edges.append((z - 3, z))
    return CausalDag(7 * m, edges, latent=latent,
                     observed=[v for v in range(7 * m) if v not in latent])


class TestReachEntries:
    """DsepOracle answers a memo miss from the reach of earlier walks
    where it can; every answer must still be d-separation's."""

    def test_answers_equal_moral_d_separation(self, monkeypatch):
        walks = []   # (start, zmask, separated) per walk, in order
        real = oracles.dsep_reach

        def recorded(dag, x, y, zmask):
            out = real(dag, x, y, zmask)
            walks.append((x, zmask, out[0]))
            return out

        monkeypatch.setattr(oracles, "dsep_reach", recorded)
        kinds = Counter()
        for seed in range(24):
            rng = random.Random(seed)
            spec = hidden_dag_spec(rng, rng.randint(10, 15),
                                   rng.randint(1, 3), 0.22)
            oracle = DsepOracle(CausalDag(**spec))
            fresh = CausalDag(**spec)
            obs, sel = fresh.observed, set(fresh.selection)
            comp = {v: c for c in naive_components(fresh) for v in c}
            n_obs = len(obs)
            # a few sets asked again and again, so that entries are reused
            pool = [frozenset(rng.sample(range(n_obs), rng.randint(0, 3)))
                    for _ in range(5)]
            entries = {}   # (dag id, zmask) -> complete, as the walks left it
            asked = set()
            del walks[:]
            for _ in range(300):
                zs = rng.choice(pool)
                x, y = rng.sample([v for v in range(n_obs) if v not in zs], 2)
                a, b = sorted((obs[x], obs[y]))
                zdag = {obs[v] for v in zs} | sel
                zmask = sum(1 << v for v in zdag)
                key = (a, b, zs)
                miss = key not in asked
                asked.add(key)
                had_a, had_b = (a, zmask) in entries, (b, zmask) in entries
                complete = entries.get((a, zmask)) or entries.get((b, zmask))
                before = len(walks)
                got = oracle.query(x, y, zs)
                assert got == moral_d_separated(fresh, a, b, zdag), \
                    (seed, spec, x, y, sorted(zs))
                for start, zm, separated in walks[before:]:
                    entries[(start, zm)] = \
                        entries.get((start, zm)) or separated
                if not miss:
                    kind = "hit"
                elif len(walks) > before:
                    kind = "walk"
                elif b not in comp[a] or (a, b) in fresh.edges \
                        or (b, a) in fresh.edges:
                    kind = "shortcut"
                elif got:
                    kind = "complete entry, new target"
                elif had_b and not had_a and not complete:
                    kind = "partial entry of the other endpoint"
                else:
                    kind = "entry"
                kinds[kind] += 1
        assert len(kinds) == 6 and min(kinds.values()) >= 50, kinds

    def test_walks_at_most_memo_misses(self, corpus_runs):
        walks = misses = 0
        for bundle in corpus_runs:
            for oracle in bundle.oracles:
                assert oracle.walks <= len(oracle._memo)
                walks += oracle.walks
                misses += len(oracle._memo)
        print("corpus: %d walks for %d memo misses" % (walks, misses))

    def test_deep_links_reuse_most_walks(self):
        # walking every miss that no shortcut settles reads ~0.8 here
        dag = motif_chain(3)
        assert has_dsep_link(dag)
        for pipeline, checks in (("fciplus", True), ("fci", False)):
            oracle = DsepOracle(dag)
            run_pipeline(pipeline, oracle, k=3, with_checks=checks)
            assert oracle.walks <= 0.5 * len(oracle._memo), \
                (pipeline, oracle.walks, len(oracle._memo))


class TestStats:
    def test_stage_partition_sums_to_total(self):
        dag, k, _ = EXAMPLES["five_node_deep_link"]
        o = DsepOracle(dag)
        calls = []
        ask = o.ask

        def logged(*args):
            calls.append(args)
            return ask(*args)

        # the searches call the trusted entry, and `query` answers through it
        o.ask = logged
        run_pipeline("fciplus", o, k=k)
        stats = o.stats
        # every call is counted in exactly one stage, as the query that
        # decides its test or as a memo hit
        d = stats.to_dict().values()
        assert sum(st["queries"] + st["memo_hits"] for st in d) \
            == len(calls) > sum(st["queries"] for st in d) == len(o._memo)
        assert stats.stages["pc_search"].queries > 0
        assert stats.stages["dsep_search"].queries > 0
        assert stats.stages["minimal_dsep"].queries > 0

    def test_counters_match_a_logged_query_stream(self):
        # fciplus with its checks asks keys of the search stages again
        # under "reference"; every counter is recounted from the log
        class Logged(DsepOracle):
            def __init__(self, dag):
                super().__init__(dag)
                self.log = []
                self.current = ["reference"]

            @contextmanager
            def stage(self, name):
                with super().stage(name):
                    self.current.append(name)
                    try:
                        yield self
                    finally:
                        self.current.pop()

            def ask(self, x, y, zmask):
                self.log.append((self.current[-1],
                                 (min(x, y), max(x, y), zmask)))
                return super().ask(x, y, zmask)

        dag, k, _ = EXAMPLES["hierarchical_links"]
        o = Logged(dag)
        report = run_pipeline("fciplus", o, k=k)
        want = {s: {"queries": 0, "memo_hits": 0, "max_cond_size": 0}
                for s in o.stats.stages}
        stages_of = {}
        for stage, key in o.log:
            w = want[stage]
            if key in stages_of:
                w["memo_hits"] += 1
            else:
                # the first call of a key decides its test
                w["queries"] += 1
                w["max_cond_size"] = max(w["max_cond_size"],
                                         key[2].bit_count())
            stages_of.setdefault(key, set()).add(stage)
        assert report.stats == want
        assert any(len(stages) > 1 for stages in stages_of.values())
        assert len(o.log) > len(stages_of) == len(o._memo)

    def test_query_and_ask_share_one_memo_and_counters(self):
        # `query` checks its input and answers through the trusted entry
        # `ask`: a test decided by either is a memo hit for the other, in
        # any stage, and each call is counted once
        class Counting(DsepOracle):
            decided = 0

            def _decide(self, x, y, zmask):
                self.decided += 1
                return super()._decide(x, y, zmask)

        dag = CausalDag(4, [(0, 1), (1, 2), (2, 3)], observed=range(4))
        o = Counting(dag)
        with o.stage("pc_search"):
            assert o.query(0, 2, {1}) is True
            assert o.ask(2, 0, 0b10) is True
            assert o.ask(0, 3, 0) is False
        with o.stage("dsep_search"):
            assert o.query(3, 0, ()) is False
            assert o.ask(1, 3, 0b100) is True
            assert o.query(1, 3, [2]) is True
        st = o.stats.stages
        assert (st["pc_search"].queries, st["pc_search"].memo_hits) == (2, 1)
        assert (st["dsep_search"].queries, st["dsep_search"].memo_hits) \
            == (1, 2)
        assert st["pc_search"].max_cond_size == 1
        assert st["dsep_search"].max_cond_size == 1
        assert o.decided == len(o._memo) == 3
        with pytest.raises(OracleError):
            o.query(1, 3, {3})

    def test_repeat_query_is_a_memo_hit(self):
        o = DsepOracle(fork_dag())
        with o.stage("pc_search"):
            o.query(0, 1, set())
        with o.stage("dsep_search"):
            o.query(1, 0, set())  # symmetric key, asked in a later stage
        st = o.stats.stages
        assert (st["pc_search"].queries, st["pc_search"].memo_hits) == (1, 0)
        assert (st["dsep_search"].queries, st["dsep_search"].memo_hits) \
            == (0, 1)

    def test_max_cond_size_tracked(self):
        dag = CausalDag(4, [(0, 1)], observed=range(4))
        o = DsepOracle(dag)
        with o.stage("augment"):
            o.query(0, 1, {2, 3})
        assert o.stats.stages["augment"].max_cond_size == 2

    def test_stats_json_schema(self):
        o = DsepOracle(fork_dag())
        o.query(0, 1, set())
        d = o.stats.to_dict()
        assert set(d) == {"pc_search", "augment", "dsep_search",
                          "minimal_dsep", "orientation", "reference"}
        assert set(d["reference"]) == {"queries", "memo_hits",
                                       "max_cond_size"}

    def test_unknown_stage_rejected(self):
        o = DsepOracle(fork_dag())
        with pytest.raises(OracleError):
            with o.stage("warmup"):
                pass


def simulate(coeffs, n, rng):
    """Linear-Gaussian sample for a 3-variable system given edge coeffs."""
    x = rng.standard_normal(n)
    z = coeffs.get("xz", 0) * x + rng.standard_normal(n)
    y = coeffs.get("xy", 0) * x + coeffs.get("zy", 0) * z + rng.standard_normal(n)
    return np.column_stack([x, z, y])


def fisher_z(cov, n_samples, x, y, z, alpha):
    """oracles._fisher_z on a covariance array at significance level alpha,
    with empty sweep caches: True iff independent, None for a degenerate
    test."""
    crit = NormalDist().inv_cdf(1 - alpha / 2)
    return oracles._fisher_z(np.asarray(cov, dtype=float).tolist(), {},
                             n_samples, x, y, sum(1 << v for v in z), crit)


class TestFisherZ:
    def test_zero_correlation_independent_any_alpha(self):
        cov = np.eye(3)
        for alpha in (0.5, 0.05, 0.001):
            assert fisher_z(cov, 100, 0, 1, [], alpha) is True
            assert fisher_z(cov, 100, 0, 1, [2], alpha) is True

    def test_too_few_samples_reported_as_dependent(self):
        assert fisher_z(np.eye(3), 4, 0, 1, [2], 0.05) is None
        assert fisher_z(np.eye(3), 5, 0, 1, [2], 0.05) is True

    def test_singular_submatrix_reported_as_dependent(self):
        assert fisher_z(np.ones((2, 2)), 50, 0, 1, [], 0.05) is None

    @pytest.mark.parametrize("eps, degenerate", [(1e-6, True), (1e-4, False)])
    def test_relative_tolerance_on_residual_variances(self, eps, degenerate):
        # exact covariance of w = z + eps * e, z, u, v with z, e, u, v
        # independent N(0, 1): w given z keeps eps^2 of its variance, and
        # 1 - rho^2 of (w, z) is about eps^2, so each query below is
        # degenerate iff eps^2 <= 1e-10; as an x, as a y, as a pivot in z
        # and as the 1 - rho^2 of an unconditional pair
        cov = np.eye(4)
        cov[0, 0] += eps * eps
        cov[0, 1] = cov[1, 0] = 1.0
        queries = [((0, 2, [1]), True), ((2, 0, [1]), True),
                   ((2, 3, [0, 1]), True), ((0, 1, []), False)]
        for (x, y, z), independent in queries:
            got = fisher_z(cov, 100, x, y, z, 0.01)
            assert got is (None if degenerate else independent)

    def test_matches_least_squares_residuals(self):
        # random linear-Gaussian data, |z| = 0..6, sample sizes small
        # enough that both answers occur; the package's Schur-complement
        # sweep must agree with an independent regression wherever the
        # decision is not a numerical tie
        rng = np.random.default_rng(21)
        answers = {True: 0, False: 0}
        sizes = set()
        for _ in range(40):
            n_vars, n_rows = 9, int(rng.integers(30, 400))
            weights = np.triu(rng.uniform(-1, 1, (n_vars, n_vars))
                              * (rng.random((n_vars, n_vars)) < 0.3), 1)
            data = rng.standard_normal((n_rows, n_vars))
            for j in range(n_vars):
                data[:, j] += data[:, :j] @ weights[:j, j]
            alpha = float(rng.choice([0.01, 0.05, 0.2]))
            o = GaussOracle(data, alpha=alpha)
            for _ in range(25):
                size = int(rng.integers(0, 7))
                x, y, *zs = (int(v) for v in
                             rng.choice(n_vars, size + 2, replace=False))
                got = o.query(x, y, zs)
                margin = bf_fisher_z_margin(data, x, y, zs, alpha)
                if abs(margin) > 1e-9:
                    assert got == (margin >= 0), (x, y, zs, margin)
                    answers[got] += 1
                    sizes.add(size)
            assert o.n_test_errors == 0
        assert min(answers.values()) > 200
        assert sizes == set(range(7))

    def test_rows_equal_one_sweep_of_the_whole_submatrix(self):
        # every row the cache composes from narrower sets must equal, float
        # for float, the row that one sweep of the whole submatrix gives
        # (brute.sweep_row), and a set must be degenerate exactly when that
        # sweep is. Column 10 is 2 * column 3 plus 1e-9 noise, so a set
        # holding both is degenerate; sets hold column 10 as their lowest,
        # a middle and their highest member. The cache is filled afresh
        # for each set, and shared with the narrowest or the widest set
        # asked first
        rng = np.random.default_rng(29)
        n_vars, n_rows = 20, 400
        data = rng.standard_normal((n_rows, n_vars))
        for j in range(1, n_vars):
            data[:, j] += data[:, :j] @ (rng.uniform(-1, 1, j)
                                         * (rng.random(j) < 0.2))
        data[:, 10] = 2 * data[:, 3] + 1e-9 * rng.standard_normal(n_rows)
        cov = np.cov(data, rowvar=False).tolist()

        def pick(ids, k):
            return sorted(int(v) for v in rng.choice(ids, k, replace=False))

        low, high = list(range(10)), list(range(11, n_vars))
        sets = []
        for size in range(10):
            sets += [pick(n_vars, size) for _ in range(12)]
            if size:
                sets += [[10] + pick(high, size - 1),
                         pick(low, size - 1) + [10]]
            for k in range(1, size - 1):
                sets.append(pick(low, k) + [10] + pick(high, size - 1 - k))

        def reference(z):
            steps = sweep_set(cov, z)
            if steps is None:
                return None
            return {v: sweep_row(cov, v, z, steps)
                    for v in range(n_vars) if v not in z}

        want = [reference(z) for z in sets]
        assert 0 < want.count(None) < len(sets) / 2
        # a non-degenerate set can still leave a row almost no variance
        assert any(r is not None and 3 in r and r[3][0] < 1e-12
                   for r in want)

        def composed(order, shared):
            rows = {}
            got = [None] * len(sets)
            for i in order:
                z = sets[i]
                zmask = sum(1 << v for v in z)
                outside = [v for v in range(n_vars) if v not in z]
                if shared:
                    random.Random(i).shuffle(outside)
                    ok = all([oracles._add_rows(cov, rows, zmask, [v])
                              for v in outside])
                else:
                    rows = {}
                    ok = oracles._add_rows(cov, rows, zmask, outside)
                assert ok is (rows[zmask] is not None)
                if ok:
                    got[i] = {v: (var, list(fs), list(es))
                              for v, (var, fs, es) in rows[zmask].items()}
            return got

        by_size = sorted(range(len(sets)), key=lambda i: len(sets[i]))
        assert composed(range(len(sets)), shared=False) == want
        assert composed(by_size, shared=True) == want
        assert composed(by_size[::-1], shared=True) == want

    def test_set_beyond_the_recursion_limit(self):
        # rows are built without recursion, so a conditioning set (say,
        # from a wide CSV) may hold more members than the recursion limit
        rng = np.random.default_rng(31)
        data = rng.standard_normal((1000, 202))
        data[:, 1:] += 0.3 * data[:, :-1]
        o = GaussOracle(data, alpha=0.01)
        z = list(range(2, 202))
        want = sweep_fisher_z(o.cov, o.n_samples, 0, 1, z, o._crit)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(100)
        try:
            got = o.query(0, 1, z)
        finally:
            sys.setrecursionlimit(limit)
        assert want is False and got is False and o.n_test_errors == 0

    def test_direct_effect_rejected_at_high_rate(self):
        rng = np.random.default_rng(7)
        dependent = 0
        sims = 200
        for _ in range(sims):
            data = simulate({"xy": 0.9}, 1000, rng)
            o = GaussOracle(data, alpha=0.01)
            dependent += not o.query(0, 2, set())
        assert dependent / sims > 0.99

    def test_blocked_chain_accepted_at_high_rate(self):
        rng = np.random.default_rng(8)
        independent = 0
        sims = 200
        for _ in range(sims):
            data = simulate({"xz": 0.8, "zy": 0.8}, 1000, rng)
            o = GaussOracle(data, alpha=0.01)
            independent += o.query(0, 2, {1})
        assert independent / sims >= 0.95


class TestGaussOracle:
    def test_constant_column_rejected_at_load(self):
        data = np.column_stack([np.ones(50), np.arange(50.0), np.zeros(50)])
        with pytest.raises(OracleError,
                           match=r"constant columns \[0, 2\] cannot be"):
            GaussOracle(data)
        # a column that differs from the others only in its last (or its
        # first) row is not constant
        for row in (-1, 0):
            live = np.ones(50)
            live[row] = 1.5
            GaussOracle(np.column_stack([live, np.arange(50.0)]))

    def test_sweep_caches_do_not_leak_between_tests(self, monkeypatch):
        # one oracle caches each (variable, set) residual row and each
        # degenerate set; a shuffled stream of tests that share sets must
        # answer, and count degenerate tests, as a fresh oracle per test
        # does. Column 5 is near-collinear with column 0 and column 6 with
        # column 3, so every set holding both of a pair is degenerate, as
        # is every test of one of them given a set holding the other; a set
        # holding 3 and 6 above a lower member is degenerate through the
        # set without that member
        rng = np.random.default_rng(17)
        data = rng.standard_normal((300, 7))
        data[:, 2] += 0.8 * data[:, 0] - 0.6 * data[:, 1]
        data[:, 3] += 0.7 * data[:, 2]
        data[:, 4] += 0.5 * data[:, 1] + 0.5 * data[:, 3]
        data[:, 5] = 2 * data[:, 0] + 1e-9 * rng.standard_normal(300)
        data[:, 6] = -1.5 * data[:, 3] + 1e-9 * rng.standard_normal(300)
        stream = [(x, y, zs) for x, y in itertools.combinations(range(7), 2)
                  for size in range(5)
                  for zs in itertools.combinations(
                      [v for v in range(7) if v not in (x, y)], size)]
        random.Random(3).shuffle(stream)

        def fresh(x, y, zs):
            o = GaussOracle(data, alpha=0.2)
            return o.query(x, y, zs), o.n_test_errors

        want = [fresh(*t) for t in stream]

        def shared(cache=dict):
            o = GaussOracle(data, alpha=0.2)
            o._rows = cache()
            answers = [o.query(x, y, zs) for x, y, zs in stream]
            return answers, o.n_test_errors

        assert shared() == ([a for a, _ in want], sum(e for _, e in want))
        assert 0 < sum(e for _, e in want) < len(stream)
        assert sum(a for a, _ in want) > 0 and not all(a for a, _ in want)

        # mutant: a row cached under its set alone, so that any row kept
        # under a set answers for every variable
        class FirstRow:
            def __init__(self, have):
                self.row = next(iter(have.values()))

            def __contains__(self, v):
                return True

            def __getitem__(self, v):
                return self.row

        class BySetAlone(dict):
            def get(self, z, default=None):
                have = dict.get(self, z, default)
                return FirstRow(have) if have else have

            def __getitem__(self, z):
                have = dict.__getitem__(self, z)
                return FirstRow(have) if have else have

        assert shared(BySetAlone) != (
            [a for a, _ in want], sum(e for _, e in want))

        # mutant: only the set a test asks checks its own pivot, so a
        # degenerate set met below it is neither marked nor makes the wider
        # sets degenerate
        check = "        if pivot <= _DEGENERATE * cov[w][w]:\n"
        source = inspect.getsource(oracles._add_rows)
        assert source.count(check) == 1
        scope = dict(vars(oracles))
        exec(source.replace(check, check.replace("if ", "if not chain and ")),
             scope)
        monkeypatch.setattr(oracles, "_add_rows", scope["_add_rows"])
        assert shared() != ([a for a, _ in want], sum(e for _, e in want))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected_at_load(self, bad):
        # one missing value would otherwise make every test on its column
        # answer dependent without being counted
        data = np.random.default_rng(5).standard_normal((50, 3))
        data[7, 2] = bad
        with pytest.raises(OracleError, match="NaN or infinite"):
            GaussOracle(data)

    def test_csv_ingestion(self, tmp_path):
        rng = np.random.default_rng(3)
        data = simulate({"xz": 0.9, "zy": 0.9}, 400, rng)
        path = tmp_path / "d.csv"
        path.write_text("x,z,y\n" + "\n".join(
            ",".join("%.6f" % v for v in row) for row in data) + "\n")
        o = GaussOracle.from_csv(path, alpha=0.01)
        assert o.names == ("x", "z", "y")
        assert o.n_samples == 400
        assert o.query(0, 2, {1})
        assert not o.query(0, 1, set())

    @pytest.mark.parametrize("text, message", [
        ("a,b\n1,apple\n", "non-numeric data in %s: "),
        ("a,b\n1,2\n3\n", "%s line 3 has 1 column, header has 2"),
        ("a,b\n# note\n1,2,5\n", "%s line 3 has 3 columns, header has 2"),
    ], ids=["non_numeric", "ragged", "wide"])
    def test_csv_rejects_garbage(self, tmp_path, text, message):
        # a row of the wrong width is named by its 1-based line in the file
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(OracleError) as exc:
            GaussOracle.from_csv(path)
        assert str(exc.value).startswith(message % path)

    def test_csv_rejects_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        for text in ("a,b,c\n", "a,b,c\n\n# no data yet\n"):
            path.write_text(text)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(OracleError, match="no data rows"):
                    GaussOracle.from_csv(path)

    def test_name_count_checked_at_construction(self):
        data = np.random.default_rng(2).standard_normal((20, 3))
        with pytest.raises(OracleError, match="expected 3 names"):
            GaussOracle(data, names=["a", "b"])

    def test_pipeline_runs_on_sample_data(self):
        rng = np.random.default_rng(11)
        data = simulate({"xz": 0.9, "zy": 0.9}, 2000, rng)
        report = run_pipeline("fciplus", GaussOracle(data, alpha=0.01), k=2)
        # chain skeleton: x - z - y, no x - y edge
        assert report.pag.has_edge(0, 1) and report.pag.has_edge(1, 2)
        assert not report.pag.has_edge(0, 2)

    def test_collider_recovered_from_sample_data(self):
        from fciplus import ARROW
        rng = np.random.default_rng(12)
        z1 = rng.standard_normal(3000)
        z2 = rng.standard_normal(3000)
        x = 0.9 * z1 + 0.9 * z2 + rng.standard_normal(3000)
        data = np.column_stack([z1, x, z2])
        report = run_pipeline("fciplus", GaussOracle(data, alpha=0.01), k=2)
        assert report.pag.mark(1, 0) == ARROW
        assert report.pag.mark(1, 2) == ARROW
        assert not report.pag.has_edge(0, 2)

    def test_degenerate_tests_reach_the_report(self):
        # two collinear columns make every covariance submatrix holding
        # both singular; each such answer is counted in the report
        rng = np.random.default_rng(13)
        a, b = rng.standard_normal((2, 300))
        data = np.column_stack([a, 2 * a, b])
        report = run_pipeline("fciplus", GaussOracle(data), k=2)
        assert report.test_errors > 0
        back = RunReport.from_json_line(report.to_json_line())
        assert back.test_errors == report.test_errors
        assert back.replay_key() != replace(back, test_errors=0).replay_key()
        old = report.to_json_dict()
        del old["test_errors"]
        assert RunReport.from_json_dict(old).test_errors == 0
        exact = run_pipeline("fciplus", DsepOracle(fork_dag()), k=2)
        assert exact.test_errors == 0

    def test_near_collinear_column_counted_as_degenerate(self):
        # 2a + 1e-9 noise does not make the covariance matrix exactly
        # singular (it inverts without error), but its residual variance
        # given a is far below 1e-10 of its own variance, so every test
        # that holds both columns is degenerate; a + 1e-4 noise stays
        # above the tolerance and is tested normally
        rng = np.random.default_rng(14)
        a, b, noise = rng.standard_normal((3, 500))
        near = np.column_stack([a, 2 * a + 1e-9 * noise, b])
        np.linalg.inv(np.cov(near, rowvar=False))
        o = GaussOracle(near)
        assert o.query(0, 1, ()) is False and o.n_test_errors == 1
        assert o.query(0, 2, {1}) is False and o.n_test_errors == 2
        assert oracles._fisher_z(o.cov, {}, 500, 1, 2, 0b1, o._crit) is None
        report = run_pipeline("fciplus", GaussOracle(near), k=2)
        assert report.test_errors > 0
        loose = GaussOracle(np.column_stack([a, a + 1e-4 * noise, b]))
        assert loose.query(0, 1, ()) is False
        assert loose.query(0, 2, {1}) is True
        assert loose.n_test_errors == 0

    @pytest.mark.parametrize("alpha", [0, 1, 1.5, 2.5, -0.1, float("nan")])
    def test_alpha_outside_unit_interval_rejected_at_load(self, alpha):
        data = np.random.default_rng(4).standard_normal((50, 3))
        with pytest.raises(OracleError, match="alpha"):
            GaussOracle(data, alpha=alpha)

    def test_too_few_samples_reach_the_report(self):
        # six rows leave no degrees of freedom once |z| = 3; a liberal alpha
        # keeps edges until the search conditions on three variables
        data = np.random.default_rng(2).standard_normal((6, 5))
        report = run_pipeline("fciplus", GaussOracle(data, alpha=0.9), k=3)
        assert report.test_errors > 0
        assert report.stats["pc_search"]["max_cond_size"] == 3
