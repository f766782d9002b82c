"""Ground truth computed by the benchmark itself, sharing no code with fciplus.

Every graph here is a plain description: a node count, a list of
(parent, child) edges, the observed ids and the selection ids. Node sets are
int bitmasks. The fciplus package is never imported, so a fault in its
d-separation, projection or test code cannot make the benchmark's checks
agree with it.
"""

from itertools import combinations
from math import atanh, sqrt
from statistics import NormalDist

import numpy as np


def bits(mask):
    """Ascending node ids of a bitmask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def mask_of(nodes):
    m = 0
    for v in nodes:
        m |= 1 << v
    return m


class Truth:
    """A causal DAG with its ancestry precomputed.

    `an[v]` is the bitmask of v and every node with a directed path into v.
    Construction raises ValueError on a directed cycle, so building a Truth
    is the benchmark's acyclicity check.
    """

    def __init__(self, n, edges, observed, selection=()):
        self.n = n
        self.edges = sorted(edges)
        self.observed = sorted(observed)
        self.selection = sorted(selection)
        self.pa = [0] * n
        children = [[] for _ in range(n)]
        indeg = [0] * n
        for u, v in self.edges:
            self.pa[v] |= 1 << u
            children[u].append(v)
            indeg[v] += 1
        order = [v for v in range(n) if indeg[v] == 0]
        for v in order:
            for c in children[v]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    order.append(c)
        if len(order) != n:
            raise ValueError("directed cycle among %r"
                             % [v for v in range(n) if indeg[v]])
        self.an = [0] * n
        for v in order:
            m = 1 << v
            for p in bits(self.pa[v]):
                m |= self.an[p]
            self.an[v] = m
        self.sel_mask = mask_of(self.selection)
        self.an_sel = self.ancestors_mask(self.sel_mask)
        self.obs_mask = mask_of(self.observed)

    def ancestors_mask(self, mask):
        out = 0
        for v in bits(mask):
            out |= self.an[v]
        return out

    def d_separated(self, x, y, zmask):
        """x and y separated given the nodes in zmask: they are disconnected
        in the moral graph of the ancestral set of {x, y} and z, once z is
        removed (Lauritzen's criterion)."""
        if zmask >> x & 1 or zmask >> y & 1 or x == y:
            raise ValueError("bad separation query")
        keep = self.an[x] | self.an[y] | self.ancestors_mask(zmask)
        nb = {v: 0 for v in bits(keep)}
        for v in nb:
            ps = self.pa[v]
            nb[v] |= ps
            for p in bits(ps):
                nb[p] |= (1 << v) | (ps & ~(1 << p))
        seen = (1 << x) | zmask
        frontier = 1 << x
        target = 1 << y
        while frontier:
            reach = 0
            for v in bits(frontier):
                reach |= nb[v]
            if reach & target:
                return False
            frontier = reach & ~seen
            seen |= frontier
        return True

    def separated_given(self, x, y, zs):
        """d-separation with the selection set added to the conditioning."""
        return self.d_separated(x, y, mask_of(zs) | self.sel_mask)

    def is_ancestor(self, w, v):
        """w an ancestor of v or of the selection set (w == v counts)."""
        return bool((self.an[v] | self.an_sel) >> w & 1)

    def projected_adjacent(self, a, b):
        """Observed a, b stay adjacent after marginalizing the latents and
        conditioning on selection iff their observed ancestors (of {a, b}
        and the selection set) together with the selection set do not
        separate them."""
        z = ((self.an[a] | self.an[b] | self.an_sel) & self.obs_mask) \
            & ~((1 << a) | (1 << b))
        return not self.d_separated(a, b, z | self.sel_mask)

    def projected_pairs(self, max_degree=None):
        """Sorted adjacent pairs of the projection, in observed positions
        0..|O|-1. With max_degree, returns None as soon as some node exceeds
        it (cheap rejection while drawing inputs)."""
        obs = self.observed
        degree = [0] * len(obs)
        pairs = []
        for i, j in combinations(range(len(obs)), 2):
            if self.projected_adjacent(obs[i], obs[j]):
                pairs.append((i, j))
                degree[i] += 1
                degree[j] += 1
                if max_degree is not None and max(degree[i], degree[j]) > max_degree:
                    return None
        return pairs

    def deep_pairs(self, pairs):
        """Nonadjacent observed pairs that no subset of their projected
        neighbours separates: only a node adjacent to neither endpoint
        can complete a separating set."""
        obs = self.observed
        adj = {i: set() for i in range(len(obs))}
        for i, j in pairs:
            adj[i].add(j)
            adj[j].add(i)
        out = []
        for i, j in combinations(range(len(obs)), 2):
            if j in adj[i]:
                continue
            pool = sorted((adj[i] | adj[j]) - {i, j})
            if not any(self.separated_given(obs[i], obs[j],
                                            [obs[w] for w in zs])
                       for r in range(len(pool) + 1)
                       for zs in combinations(pool, r)):
                out.append((i, j))
        return out

    def unsound_marks(self, pag_edges):
        """PAG endpoint marks contradicted by the DAG's ancestry.

        `pag_edges` holds (a, b, mark_at_a, mark_at_b) over observed
        positions with marks 'arrow', 'tail' or 'circle'. An arrowhead at w
        on an edge to v says w is no ancestor of v or of selection; a tail
        says it is one.
        """
        obs = self.observed
        bad = []
        for a, b, ma, mb in pag_edges:
            for w, v, m in ((a, b, ma), (b, a, mb)):
                anc = self.is_ancestor(obs[w], obs[v])
                if (m == "arrow" and anc) or (m == "tail" and not anc):
                    bad.append((w, v, m))
        return bad


_PHI_INV = NormalDist().inv_cdf


def fisher_z_margin(data, x, y, zs, alpha):
    """Fisher z test from least-squares residuals.

    Regresses columns x and y on the columns zs plus an intercept, takes
    the correlation r of the two residual vectors, and returns
    crit - sqrt(n - |z| - 3) * |atanh r| with crit the two-sided normal
    quantile at alpha. Independence is accepted iff the margin is >= 0; its
    size says how far the decision is from the threshold.
    """
    n = data.shape[0]
    design = np.column_stack([np.ones(n)] + [data[:, w] for w in zs])
    res = []
    for v in (x, y):
        coef = np.linalg.lstsq(design, data[:, v], rcond=None)[0]
        res.append(data[:, v] - design @ coef)
    r = float(res[0] @ res[1] / sqrt(float(res[0] @ res[0]) * float(res[1] @ res[1])))
    stat = sqrt(n - len(zs) - 3) * abs(atanh(r))
    return _PHI_INV(1 - alpha / 2) - stat
