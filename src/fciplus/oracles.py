"""Conditional-independence oracles and per-stage query accounting.

Every search stage runs its queries under a named stage so the counters can
be partitioned afterwards; a query answers True for independence. A test
costs one query, counted under the stage that decides it on a memo miss;
every later call of it, in any stage, is counted as that stage's memo hit,
which is no test. `query` is the public entry: it checks its input on
every call. The searches build their ids and masks from valid ones, so they
call the trusted entry `ask`, which checks nothing; `query` answers through
it, so both share one memo and one set of counters.

DsepOracle answers from d-separation on a ground-truth causal DAG
(conditioning on the selection set is implicit). GaussOracle answers from
partial correlations of Gaussian samples via the Fisher z test
`_fisher_z`; a degenerate test answers dependent and is counted in
`n_test_errors` (the report's `test_errors`). It keeps one residual row,
O(|Z|) floats, per (variable, set Z) asked, extended from Z minus its
lowest member by the products of one sweep of the covariance submatrix.
"""

from contextlib import contextmanager
from math import atanh, sqrt
from statistics import NormalDist

import numpy as np

from .graphs import default_names, dsep_reach

# "augment" is never entered (candidate detection asks no queries); it stays
# so that every report keeps the stage keys its readers index
STAGES = ("pc_search", "augment", "dsep_search", "minimal_dsep",
          "orientation", "reference")
# the stages a pipeline's own search runs under; the fci reference and the
# embedded checks run under "reference"
ALGORITHM_STAGES = STAGES[:-1]
_PHI_INV = NormalDist().inv_cdf
_DEGENERATE = 1e-10   # relative tolerance of a degenerate Fisher z test


class OracleError(ValueError):
    """Invalid oracle input or query."""


class StageStats:
    __slots__ = ("queries", "memo_hits", "max_cond_size")

    def __init__(self):
        self.queries = 0
        self.memo_hits = 0
        self.max_cond_size = 0

    def to_dict(self):
        return {"queries": self.queries, "memo_hits": self.memo_hits,
                "max_cond_size": self.max_cond_size}


class OracleStats:
    """Counters of independence queries, partitioned by pipeline stage.

    `queries` counts the tests a stage decided, each on a memo miss, and
    `max_cond_size` is the largest conditioning set among them; `memo_hits`
    counts the stage's calls whose answer the memo already held. Each test is
    decided once, so the stages' `queries` sum to the memo's size.
    """

    def __init__(self):
        self.stages = {s: StageStats() for s in STAGES}

    def to_dict(self):
        return {s: st.to_dict() for s, st in self.stages.items()}


class IndependenceOracle:
    """Base class: deterministic, symmetric-in-(x, y) independence queries.

    A conditioning set is an int mask over the variable ids (bit v for
    variable v). `query` also takes an iterable of ids and turns it into
    its mask first; then it checks, in constant time, that x and y are
    distinct ids in range and outside the mask, and that the mask holds
    only ids in range, and answers through `ask`, which checks nothing.
    Subclasses implement _decide(x, y, zmask), a bool, for x < y. `ask`
    memoizes each answer, keyed by one int, so _decide runs once per key;
    a call is counted as a query of the current stage when it decides the
    test, and as a memo hit otherwise.
    """

    def __init__(self, n_vars, names=None):
        self.n_vars = n_vars
        self.names = default_names(n_vars) if names is None else tuple(names)
        if len(self.names) != n_vars:
            raise OracleError("expected %d names, got %d"
                              % (n_vars, len(self.names)))
        # (x * n + y) << n | zmask -> answer
        self._memo = {}
        self.stats = OracleStats()
        self.n_test_errors = 0   # answers from a degenerate test (sample data)
        self._stage = self.stats.stages["reference"]

    @contextmanager
    def stage(self, name):
        if name not in STAGES:
            raise OracleError("unknown stage %r" % name)
        prev = self._stage
        self._stage = self.stats.stages[name]
        try:
            yield self
        finally:
            self._stage = prev

    def query(self, x, y, z):
        """True iff x is independent of y given z under the backing model;
        z is an int mask or an iterable of ids. Checks its input on every
        call, then answers through `ask`."""
        zmask = z if type(z) is int else _mask(z)
        n = self.n_vars
        # exact ints only: True and 1.0 hash like 1 but are no ids; and
        # zmask >> n is 0 iff 0 <= zmask < 2**n
        if not (type(x) is int and type(y) is int and 0 <= x < n
                and 0 <= y < n and x != y and not zmask >> n
                and not (zmask >> x | zmask >> y) & 1):
            raise OracleError(
                "invalid query (%r, %r | %r) over ids 0..%d: x and y must be"
                " distinct ids outside z" % (x, y, z, n - 1))
        return self.ask(x, y, zmask)

    def ask(self, x, y, zmask):
        """`query` for a caller whose input is valid by construction: x
        and y distinct ids in range, zmask an int mask over the other ids.
        Checks nothing: an invalid id or mask bit would make the memo key
        collide with another test's. It holds the one memo and the one set
        of counters, which `query` answers through."""
        if x > y:
            x, y = y, x
        n = self.n_vars
        key = (x * n + y) << n | zmask
        answer = self._memo.get(key)
        st = self._stage
        if answer is None:
            answer = self._memo[key] = self._decide(x, y, zmask)
            st.queries += 1
            size = zmask.bit_count()
            if size > st.max_cond_size:
                st.max_cond_size = size
        else:
            st.memo_hits += 1
        return answer

    def _decide(self, x, y, zmask):
        raise NotImplementedError


def _mask(ids):
    """The int mask of an iterable of ids, or -1 (which `query` rejects)
    when it is no iterable or holds anything but nonnegative ints."""
    try:
        ids = set(ids)
    except TypeError:
        return -1
    if not all(type(v) is int and v >= 0 for v in ids):
        return -1
    return sum(1 << v for v in ids)


class DsepOracle(IndependenceOracle):
    """Exact oracle backed by d-separation on a causal DAG.

    Queries are over the observed variables only, reindexed to 0..N-1 in
    ascending order of their dag ids; a conditioning mask over those ids
    is lifted to one over dag ids, and the selection set is added to every
    conditioning set implicitly.

    A memo miss on (x, y, z) is answered without a walk when it can be:
    independent for a pair in different skeleton components, dependent for
    a pair joined by a DAG edge. Otherwise the answer may already follow
    from earlier walks. Each walk (`graphs.dsep_reach`) reports the nodes
    it reached and its exits, and the oracle keeps them per (endpoint,
    dag-level zmask), merged over the walks from that endpoint under that
    set. An entry is complete once one of its walks ran out, and then shows
    every node d-connected to the endpoint; an entry whose walks all
    stopped at their targets shows only some. The miss is answered
    dependent when the entry of x or of y shows the other endpoint
    d-connected, independent when either entry is complete without showing
    it, and only otherwise by a walk that stops at its target: from y when
    only x has an entry (a second endpoint's reach answers more later
    queries), else from x. `walks` counts those walks.
    """

    def __init__(self, dag):
        self.dag = dag
        self._obs = dag.observed
        self._bit = tuple(1 << o for o in self._obs)
        # entry of dag node v under zmask, keyed v << n | zmask: one int,
        # complete at bit 0, reached at bits 1..n, exits above (plain ints
        # add no objects for the garbage collector to track)
        self._reach = {}
        self.walks = 0
        names = tuple(dag.names[o] for o in self._obs)
        super().__init__(len(self._obs), names=names)

    def _decide(self, x, y, zmask):
        dag = self.dag
        x, y = self._obs[x], self._obs[y]
        if not dag._comp[x] >> y & 1:
            return True
        if (dag._pa[x] | dag._ch[x]) >> y & 1:
            return False
        # lift the mask to dag ids
        m, zmask, bit = zmask, dag._sel, self._bit
        while m:
            v = m.bit_length() - 1
            zmask |= bit[v]
            m ^= 1 << v
        n, an = dag.n, dag._an
        kx, ky = x << n | zmask, y << n | zmask
        ex = self._reach.get(kx, 0)
        ey = self._reach.get(ky, 0)
        if (ex >> y | ey >> x) & 2 \
                or an[y] & ex >> n + 1 or an[x] & ey >> n + 1:
            return False
        if (ex | ey) & 1:
            return True
        if ex and not ey:
            # start y's entry rather than grow x's: reach from a second
            # endpoint answers more of the later queries
            x, y, kx, ex = y, x, ky, 0
        self.walks += 1
        separated, reached, exits = dsep_reach(dag, x, y, zmask)
        self._reach[kx] = ex | separated | reached << 1 | exits << n + 1
        return separated


def _add_rows(cov, rows, zmask, need):
    """Build and keep each row under zmask that `rows` lacks of the
    variables in `need`; False when zmask is degenerate, which it marks.
    It walks down one lowest member at a time to the first set holding
    every row still needed, then extends the rows back up: no recursion,
    so a set may hold more members than the recursion limit."""
    chain = []   # (set, its lowest member, its rows, the rows it lacks)
    z = zmask
    while z:
        have = rows.get(z)
        if have is None:
            if z in rows:   # degenerate, and so is every wider set
                for wider, *_ in chain:
                    rows[wider] = None
                return False
            have = rows[z] = {}
        else:
            need = [v for v in need if v not in have]
            if not need:
                break
        w = (z & -z).bit_length() - 1
        chain.append((z, w, have, need))
        need = [*need, w]
        z ^= 1 << w
    else:
        have = rows.setdefault(0, {})
        for v in need:
            if v not in have:
                have[v] = (cov[v][v], (), ())
    while chain:
        z, w, have, need = chain.pop()
        below = rows[z ^ 1 << w]
        pivot, _, ew = below[w]
        if pivot <= _DEGENERATE * cov[w][w]:
            rows[z] = None
            for wider, *_ in chain:
                rows[wider] = None
            return False
        for v in need:
            var, fv, ev = below[v]
            e = cov[v][w]
            for f, c in zip(fv, ew):
                e -= f * c
            f = e / pivot
            have[v] = (var - f * e, fv + (f,), ev + (e,))
    return True


def _fisher_z(cov, rows, n_samples, x, y, zmask, crit):
    """Partial-correlation independence test for Gaussian data on a
    covariance given as nested lists: True iff independent, None for a
    degenerate test.

    rho is the correlation of the residuals of x and y given z, the members
    of zmask; the test accepts independence iff sqrt(n-|z|-3) * |atanh(rho)|
    <= crit, where crit = Phi^-1(1 - alpha/2). It is degenerate when n <=
    |z| + 3, when a residual variance (of a member of z given the later
    members, or of x or y given z) is at most 1e-10 of that variable's own
    variance, or when 1 - rho^2 <= 1e-10.

    The statistic is that of sweeping z out of the submatrix over [x, y,
    *z], last member first, on its upper triangle (a Schur complement):
    a[i][j] -= (a[i][k] / pivot) * a[j][k] for i <= j < k. v's row under z
    holds v's residual variance given z and, per step, the factor (entry /
    pivot) and v's entry at the swept member: O(|z|) floats, kept once per
    (variable, set) in `rows`, zmask -> {v: row} or None if degenerate.
    With w the lowest member of z, z's first steps are those of U = z - w,
    and w's entries in them are w's row under U; so v's row under z is
    v's row under U plus the step that sweeps w (pivot: w's variance given
    U), and z is degenerate iff U is or that pivot is. These are the
    products of one sweep, in its order: every statistic is bit-identical.
    """
    m = zmask.bit_count()
    if n_samples <= m + 3:
        return None
    have = rows.get(zmask)
    if have is None or x not in have or y not in have:
        if not _add_rows(cov, rows, zmask, [x, y]):
            return None
        have = rows[zmask]
    sxx, fx, _ = have[x]
    syy, _, ey = have[y]
    sxy = cov[x][y]
    for f, e in zip(fx, ey):
        sxy -= f * e
    if (sxx <= _DEGENERATE * cov[x][x] or syy <= _DEGENERATE * cov[y][y]
            or sxx * syy - sxy * sxy <= _DEGENERATE * sxx * syy):
        return None
    rho = sxy / sqrt(sxx * syy)
    return sqrt(n_samples - m - 3) * abs(atanh(rho)) <= crit


class GaussOracle(IndependenceOracle):
    """Sample-data oracle: Fisher z test on a sample covariance matrix.

    Provided for running the pipelines on real data; no exactness guarantee.
    Non-finite values, constant columns and an alpha outside (0, 1) are
    rejected at load time; a degenerate test (see _fisher_z) answers
    dependent and is counted in n_test_errors, never warned. The rows of
    _fisher_z stay with the oracle: O(|Z|) floats per (variable, set Z) that
    a test or a wider set's row asked for, each bit-identical to a sweep's.
    """

    def __init__(self, data, names=None, alpha=0.01):
        data = np.asarray(data, dtype=float)
        if data.ndim != 2 or data.shape[0] < 2:
            raise OracleError("data must be a 2-d array with at least 2 rows")
        if not np.isfinite(data).all():
            raise OracleError("data holds NaN or infinite values")
        # a column is constant iff no row differs from its first
        live = (data[1:] != data[0]).any(axis=0)
        dead = [int(i) for i in np.nonzero(~live)[0]]
        if dead:
            raise OracleError("constant columns %r cannot be tested" % dead)
        if not 0 < alpha < 1:
            raise OracleError("alpha must lie strictly between 0 and 1, got"
                              " %r" % (alpha,))
        self._crit = _PHI_INV(1 - alpha / 2)
        self.n_samples = data.shape[0]
        self.cov = np.cov(data, rowvar=False).tolist()
        self.alpha = alpha
        self._rows = {}   # the Fisher z rows (see _fisher_z)
        super().__init__(data.shape[1], names=names)

    @classmethod
    def from_csv(cls, path, alpha=0.01):
        """Load a CSV with a header row of variable names and numeric rows."""
        with open(path) as fh:
            names = [c.strip() for c in fh.readline().split(",")]
            # a line blank up to loadtxt's comment sign holds no data
            rows = [(i, line) for i, line in enumerate(fh, 2)
                    if line.split("#", 1)[0].strip()]
        if not rows:
            raise OracleError("%s has no data rows" % path)
        for i, line in rows:
            width = line.split("#", 1)[0].count(",") + 1
            if width != len(names):
                raise OracleError("%s line %d has %d column%s, header has %d"
                                  % (path, i, width, "s" * (width > 1),
                                     len(names)))
        try:
            data = np.loadtxt([line for _, line in rows], delimiter=",",
                              ndmin=2)
        except ValueError as exc:
            raise OracleError("non-numeric data in %s: %s" % (path, exc))
        return cls(data, names=names, alpha=alpha)

    def _decide(self, x, y, zmask):
        result = _fisher_z(self.cov, self._rows, self.n_samples, x, y, zmask,
                           self._crit)
        self.n_test_errors += result is None
        return bool(result)
