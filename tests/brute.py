"""Independent brute-force oracles the tests check the package against.

Everything here enumerates paths or subsets directly from the definitions,
or (for the Fisher z test) regresses on the raw data; none of it shares code
with the algorithms under test, except truth_pag, which orients a skeleton
and separating sets read off the DAG with the package's complete rules,
reference_dsep_walk, which reuses the deep search's detection and
minimal_dsep and closes every set from scratch, and sweep_set and
sweep_row, the package's former Fisher z sweeps, whose arithmetic its
residual rows must reproduce bit for bit.
"""

from itertools import combinations, product
from math import atanh, sqrt
from statistics import NormalDist

import numpy as np

from fciplus.dsep_search import find_possible_dsep_links, minimal_dsep
from fciplus.graphs import (
    ARROW, CIRCLE, TAIL, MixedGraph, d_separated, latent_project,
)
from fciplus.oracles import _DEGENERATE
from fciplus.orientation import apply_fci_rules, orient_v_structures
from fciplus.sepsets import SepsetMap


def mask(ids):
    """The int mask of an iterable of ids: bit v for id v."""
    return sum(1 << v for v in set(ids))


def members(m):
    """The set of ids in an int mask."""
    return {v for v in range(m.bit_length()) if m >> v & 1}


def _simple_paths(adj, x, y):
    """All simple paths x..y over an adjacency dict of sets."""
    out = []
    stack = [(x,)]
    while stack:
        path = stack.pop()
        for w in sorted(adj[path[-1]]):
            if w in path:
                continue
            if w == y:
                out.append(path + (w,))
            else:
                stack.append(path + (w,))
    return out


def bf_d_separated(dag, x, y, z):
    """Path-enumeration d-separation: every path must have a noncollider in
    z or a collider with no descendant in z."""
    z = set(z)
    adj = {v: set() for v in range(dag.n)}
    for u, v in dag.edges:
        adj[u].add(v)
        adj[v].add(u)
    directed = set(dag.edges)
    for path in _simple_paths(adj, x, y):
        open_path = True
        for i in range(1, len(path) - 1):
            a, b, c = path[i - 1], path[i], path[i + 1]
            collider = (a, b) in directed and (c, b) in directed
            if collider:
                if not (descendants(dag, [b]) & z):
                    open_path = False
                    break
            elif b in z:
                open_path = False
                break
        if open_path:
            return False
    return True


def _dag_parents(dag):
    parents = {v: set() for v in range(dag.n)}
    for u, v in dag.edges:
        parents[v].add(u)
    return parents


def naive_ancestors(dag, xs):
    """xs plus every node reached by walking parent edges from them."""
    parents = _dag_parents(dag)
    out = set(xs)
    stack = list(out)
    while stack:
        for p in parents[stack.pop()]:
            if p not in out:
                out.add(p)
                stack.append(p)
    return out


def descendants(dag, xs):
    """xs plus every node reached by walking child edges from them."""
    children = {v: set() for v in range(dag.n)}
    for u, v in dag.edges:
        children[u].add(v)
    out = set(xs)
    stack = list(out)
    while stack:
        for c in children[stack.pop()]:
            if c not in out:
                out.add(c)
                stack.append(c)
    return out


def skeleton_pairs(dag):
    """Sorted (a, b) pairs, a < b, of the DAG's edges with directions
    dropped."""
    return sorted((u, v) if u < v else (v, u) for u, v in dag.edges)


def naive_components(dag):
    """Connected components of the DAG's skeleton, as a list of sets, by
    flooding over the edges with directions dropped."""
    adj = {v: set() for v in range(dag.n)}
    for u, v in dag.edges:
        adj[u].add(v)
        adj[v].add(u)
    out, seen = [], set()
    for v in range(dag.n):
        if v in seen:
            continue
        comp, stack = {v}, [v]
        while stack:
            for w in adj[stack.pop()]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        out.append(comp)
    return out


def moral_d_separated(dag, x, y, z):
    """Lauritzen's criterion: z d-separates x and y iff it separates them in
    the moral graph of the sub-DAG on the ancestors of {x, y} + z (parents
    of a common child married, directions dropped)."""
    z = set(z)
    parents = _dag_parents(dag)
    keep = naive_ancestors(dag, {x, y} | z)
    adj = {v: set() for v in keep}
    for v in keep:
        for p in parents[v]:
            adj[v].add(p)
            adj[p].add(v)
        for p, q in combinations(parents[v], 2):
            adj[p].add(q)
            adj[q].add(p)
    seen = {x}
    stack = [x]
    while stack:
        for w in adj[stack.pop()]:
            if w == y:
                return False
            if w not in seen and w not in z:
                seen.add(w)
                stack.append(w)
    return True


def mag_ancestors(g, xs):
    """xs plus every node with a directed path into some member of xs in
    the mixed graph g: each edge walked has a tail at its source and an
    arrowhead at its target."""
    out = set(xs)
    stack = list(out)
    while stack:
        v = stack.pop()
        for p in g.adj(v):
            if p not in out and g.is_directed_edge(p, v):
                out.add(p)
                stack.append(p)
    return out


def is_ancestral(g):
    """No arrowhead at a on an edge to b when a is an ancestor of b (no
    directed or almost directed cycle), and no arrowhead at a node with an
    undirected edge. Circle marks are not read."""
    for a, b, ma, mb in g.edges():
        for u, v, mark in ((a, b, ma), (b, a, mb)):
            if mark == ARROW and (
                    u in mag_ancestors(g, [v])
                    or any(g.is_undirected(u, w) for w in g.adj(u))):
                return False
    return True


def bf_m_separated(mag, x, y, z):
    """Path-enumeration m-separation on a MAG: every noncollider outside z,
    every collider an ancestor of z."""
    z = set(z)
    anz = mag_ancestors(mag, z)
    adj = {v: set(mag.adj(v)) for v in range(mag.n)}
    for path in _simple_paths(adj, x, y):
        open_path = True
        for i in range(1, len(path) - 1):
            a, b, c = path[i - 1], path[i], path[i + 1]
            collider = mag.mark(b, a) == ARROW and mag.mark(b, c) == ARROW
            if collider:
                if b not in anz:
                    open_path = False
                    break
            elif b in z:
                open_path = False
                break
        if open_path:
            return False
    return True


def bf_mag_adjacent(dag, a, b):
    """Subset-exhaustive adjacency: a, b (dag ids, observed) are adjacent in
    the projection iff no observed subset plus selection separates them."""
    sel = set(dag.selection)
    others = [o for o in dag.observed if o not in (a, b)]
    for r in range(len(others) + 1):
        for zs in combinations(others, r):
            if d_separated(dag, a, b, set(zs) | sel):
                return False
    return True


def brute_projection(dag):
    """latent_project's edge list from the definitions: observed a, b are
    adjacent iff their canonical set (the observed ancestors of a, b and the
    selection set, plus the selection set) fails to separate them under
    moral_d_separated; the mark at a is TAIL iff a is an ancestor of b or of
    the selection set."""
    obs, sel = dag.observed, set(dag.selection)
    edges = []
    for i, j in combinations(range(len(obs)), 2):
        a, b = obs[i], obs[j]
        canonical = (naive_ancestors(dag, {a, b} | sel) & set(obs)) - {a, b}
        if moral_d_separated(dag, a, b, canonical | sel):
            continue
        ma = TAIL if a in naive_ancestors(dag, {b} | sel) else ARROW
        mb = TAIL if b in naive_ancestors(dag, {a} | sel) else ARROW
        edges.append((i, j, ma, mb))
    return edges


def relaxed_inducing_pairs(dag):
    """Observed pairs (a, b), a < b in dag ids, joined by a path on which
    every inner node is latent or is a collider in An(observed + S). An
    inducing path also needs every collider, latent ones too, in
    An({a, b} + S), so every pair adjacent in the projection is among
    these. Depth-first over the path prefixes from each a, extending only
    those whose inner nodes all qualify."""
    lat, obs = set(dag.latent), set(dag.observed)
    ancestral = naive_ancestors(dag, obs | set(dag.selection))
    directed = set(dag.edges)
    adj = {v: set() for v in range(dag.n)}
    for u, v in dag.edges:
        adj[u].add(v)
        adj[v].add(u)
    out = set()
    for a in dag.observed:
        stack = [(a,)]
        while stack:
            path = stack.pop()
            for w in adj[path[-1]]:
                if w in path:
                    continue
                if len(path) > 1:
                    u, v = path[-2:]
                    if v not in lat and not ((u, v) in directed
                                             and (w, v) in directed
                                             and v in ancestral):
                        continue
                if w in obs and a < w:
                    out.add((a, w))
                stack.append(path + (w,))
    return out


def bf_separable(dag, a, b):
    """Some observed subset (plus selection) separates the observed pair."""
    return not bf_mag_adjacent(dag, a, b)


def exhaustive_skeleton(oracle):
    """Ground-truth skeleton and separating sets by subset enumeration: a
    pair is adjacent iff no subset of the other variables separates it per
    oracle.query. Subsets are tried sizes ascending, lexicographic within a
    size, so each stored set is the first minimal one. Asks under the
    oracle's "reference" stage; exponential in the number of variables."""
    n = oracle.n_vars
    seps, edges = SepsetMap(), []
    with oracle.stage("reference"):
        for x, y in combinations(range(n), 2):
            rest = [v for v in range(n) if v != x and v != y]
            found = next((zs for size in range(n - 1)
                          for zs in combinations(rest, size)
                          if oracle.query(x, y, zs)), None)
            if found is None:
                edges.append((x, y, CIRCLE, CIRCLE))
            else:
                seps.set(x, y, mask(found))
    return MixedGraph(n, edges, names=oracle.names), seps


def lexicographic_pc(oracle, k=None):
    """The PC-stable adjacency search with every side tried in ascending
    id order, the order-invariance reference for pc_adjacency_search:
    level 0 asks each pair against the empty set; from level 1 on, each
    level snapshots the adjacencies and, for the pairs x < y in
    lexicographic order where either side holds more than `level` nodes,
    asks the `level`-subsets of Adj(x) \\ {y} lexicographically, then those
    of Adj(y) \\ {x} not inside Adj(x), until one separates. Stops when no
    pair is tested, or after level k. Asks under the oracle's "reference"
    stage. Returns (skeleton with circle marks, SepsetMap)."""
    n = oracle.n_vars
    adj = {v: set(range(n)) - {v} for v in range(n)}
    seps = SepsetMap()

    def remove(x, y, zs):
        adj[x].discard(y)
        adj[y].discard(x)
        seps.set(x, y, mask(zs))

    with oracle.stage("reference"):
        for x, y in combinations(range(n), 2):
            if oracle.query(x, y, ()):
                remove(x, y, ())
        level = 1
        while k is None or level <= k:
            snapshot = {v: sorted(adj[v]) for v in range(n)}
            tested = False
            for x, y in combinations(range(n), 2):
                if y not in snapshot[x] or (len(snapshot[x]) <= level
                                            and len(snapshot[y]) <= level):
                    continue
                tested = True
                xside = [v for v in snapshot[x] if v != y]
                yside = [v for v in snapshot[y] if v != x]
                candidates = list(combinations(xside, level)) + [
                    zs for zs in combinations(yside, level)
                    if not set(zs) <= set(snapshot[x])]
                found = next((zs for zs in candidates
                              if oracle.query(x, y, zs)), None)
                if found is not None:
                    remove(x, y, found)
            if not tested:
                break
            level += 1
    edges = [(x, y, CIRCLE, CIRCLE) for x, y in combinations(range(n), 2)
             if y in adj[x]]
    return MixedGraph(n, edges, names=oracle.names), seps


def bf_possible_dsep(g, a, b):
    """Path-enumeration version of the reachability superset: v qualifies
    iff some path a..v has every intermediate vertex a collider or in a
    triangle with its neighbors on the path."""
    adj = {v: set(g.adj(v)) for v in range(g.n)}
    out = set()
    for v in range(g.n):
        if v in (a, b):
            continue
        for path in _simple_paths(adj, a, v):
            ok = True
            for i in range(1, len(path) - 1):
                p, q, r = path[i - 1], path[i], path[i + 1]
                collider = g.mark(q, p) == ARROW and g.mark(q, r) == ARROW
                triangle = g.has_edge(p, r)
                if not (collider or triangle):
                    ok = False
                    break
            if ok:
                out.add(v)
                break
    return frozenset(out)


def bf_true_dsep(mag, a, b):
    """The ancestral collider-path set: v qualifies iff some path a..v has
    every interior vertex a collider and every non-a vertex an ancestor of
    {a, b} in the MAG."""
    an_ab = mag_ancestors(mag, [a, b])
    adj = {v: set(mag.adj(v)) for v in range(mag.n)}
    out = set()
    for v in range(mag.n):
        if v in (a, b):
            continue
        for path in _simple_paths(adj, a, v):
            if any(w not in an_ab for w in path[1:]):
                continue
            ok = True
            for i in range(1, len(path) - 1):
                p, q, r = path[i - 1], path[i], path[i + 1]
                if not (mag.mark(q, p) == ARROW and mag.mark(q, r) == ARROW):
                    ok = False
                    break
            if ok:
                out.add(v)
                break
    return frozenset(out)


def bf_true_dsep_links(dag, mag):
    """{(x, y): adjacent ancestors, as an int mask} over the pairs (mag
    ids) nonadjacent in mag that no subset of their adjacent pool
    adj(x) + adj(y), together with the selection set, d-separates in dag,
    by trying every subset. The adjacent ancestors are the pool members
    that are ancestors of x, y or the selection set."""
    back, sel = dag.observed, set(dag.selection)
    links = {}
    for x, y in combinations(range(mag.n), 2):
        if mag.has_edge(x, y):
            continue
        # x and y are nonadjacent, so neither is in the pool
        pool = sorted(set(mag.adj(x) + mag.adj(y)))
        if not any(d_separated(dag, back[x], back[y],
                               {back[v] for v in zs} | sel)
                   for r in range(len(pool) + 1)
                   for zs in combinations(pool, r)):
            up = naive_ancestors(dag, {back[x], back[y]} | sel)
            links[(x, y)] = mask(v for v in pool if back[v] in up)
    return links


def naive_closure(seed, sepsets):
    """seed plus, until stable, the stored set of every stored pair whose
    endpoints are both inside."""
    closure = set(seed)
    changed = True
    while changed:
        changed = False
        for (a, b), zs in sepsets.items():
            if a in closure and b in closure and not members(zs) <= closure:
                closure |= members(zs)
                changed = True
    return closure


def reference_dsep_walk(skeleton, sepsets, oracle, k):
    """The deep search without any closure cache: every base pair's set is
    naive_closure({x, y} + Zx + Zy) minus {x, y}, built from scratch, and a
    retry is skipped when no pair resolved since the candidate's last
    attempt lies inside the naive closure of {x, y} + Adj(x) + Adj(y).
    Bases are taken with sizes ascending, the x side outer, lexicographic
    within a size, at most k nodes per side (any number when k is None).
    Asks the oracle what `dsep_search` asks, in the same order; returns
    (final skeleton, sepsets)."""
    g, sepsets = skeleton.copy(), sepsets.copy()
    last_attempt, stored = {}, []
    with oracle.stage("dsep_search"):
        resolved = True
        while resolved:
            resolved = False
            for x, y in find_possible_dsep_links(g):
                base_x = [v for v in g.adj(x) if v != y]
                base_y = [v for v in g.adj(y) if v != x]
                since = last_attempt.get((x, y))
                last_attempt[(x, y)] = len(stored)
                if since is not None:
                    widest = naive_closure({x, y, *base_x, *base_y}, sepsets)
                    if not any(p <= widest for p in stored[since:]):
                        continue
                top_x = len(base_x) if k is None else min(k, len(base_x))
                top_y = len(base_y) if k is None else min(k, len(base_y))
                bases = [(zx, zy) for nx in range(top_x + 1)
                         for ny in range(top_y + 1)
                         for zx in combinations(base_x, nx)
                         for zy in combinations(base_y, ny)]
                for zx, zy in bases:
                    zs = naive_closure({x, y, *zx, *zy}, sepsets) - {x, y}
                    if oracle.ask(x, y, mask(zs)):
                        sepsets.set(x, y, minimal_dsep(x, y, mask(zs), oracle))
                        g.remove_edge(x, y)
                        stored.append({x, y})
                        resolved = True
                        break
                if resolved:
                    break
    return g, sepsets


def bf_hierarchy_ancestry(dag, sepsets):
    """True iff, for every stored pair (a, b), each member of the closure of
    {a, b} is an ancestor of a, b or the selection set in dag."""
    back, sel = dag.observed, set(dag.selection)
    for (a, b), _ in sepsets.items():
        up = naive_ancestors(dag, {back[a], back[b]} | sel)
        if any(back[w] not in up for w in naive_closure({a, b}, sepsets)):
            return False
    return True


def truth_pag(dag):
    """The PAG of dag's latent projection without any search: the
    projection's skeleton with circle marks, each nonadjacent pair {x, y}
    separated by the observed members of An({x, y} + S) minus x and y (the
    set the projection tests, so it separates every nonadjacent pair), then
    orient_v_structures and apply_fci_rules, which are complete given a
    correct skeleton and separating sets (Zhang 2008). Names are the
    projection's; compare edges()."""
    mag = latent_project(dag)
    obs, sel = dag.observed, set(dag.selection)
    index = {o: i for i, o in enumerate(obs)}
    skeleton = MixedGraph(mag.n, [(a, b, CIRCLE, CIRCLE)
                                  for a, b in mag.edge_pairs()])
    seps = SepsetMap()
    for x, y in combinations(range(mag.n), 2):
        if not mag.has_edge(x, y):
            up = naive_ancestors(dag, {obs[x], obs[y]} | sel)
            seps.set(x, y, mask(index[o] for o in up
                                if o in index and index[o] not in (x, y)))
    return apply_fci_rules(orient_v_structures(skeleton, seps), seps)


_EDGE_STATES = (None, (TAIL, ARROW), (ARROW, TAIL), (ARROW, ARROW), (TAIL, TAIL))


def enumerate_mags(n):
    """Every maximal ancestral graph on n nodes."""
    pairs = list(combinations(range(n), 2))
    for assignment in product(_EDGE_STATES, repeat=len(pairs)):
        edges = [(a, b, st[0], st[1])
                 for (a, b), st in zip(pairs, assignment) if st is not None]
        g = MixedGraph(n, edges)
        if not is_ancestral(g):
            continue
        if _is_maximal(g):
            yield g


def _is_maximal(g):
    rest = set(range(g.n))
    for a, b in combinations(range(g.n), 2):
        if g.has_edge(a, b):
            continue
        others = sorted(rest - {a, b})
        if not any(bf_m_separated(g, a, b, set(zs))
                   for r in range(len(others) + 1)
                   for zs in combinations(others, r)):
            return False
    return True


def msep_signature(g):
    """Full conditional-independence fingerprint of a MAG."""
    sig = []
    for a, b in combinations(range(g.n), 2):
        others = sorted(set(range(g.n)) - {a, b})
        for r in range(len(others) + 1):
            for zs in combinations(others, r):
                sig.append(bf_m_separated(g, a, b, set(zs)))
    return tuple(sig)


def equivalence_class_pag(target_mag, catalog):
    """Completed PAG by enumeration: intersect the marks over every MAG with
    the same independence fingerprint.

    catalog maps signature -> list of MixedGraphs (from enumerate_mags).
    """
    cls = catalog[msep_signature(target_mag)]
    base = cls[0]
    edges = []
    for a, b in base.edge_pairs():
        ma = {g.mark(a, b) for g in cls}
        mb = {g.mark(b, a) for g in cls}
        edges.append((a, b,
                      ma.pop() if len(ma) == 1 else CIRCLE,
                      mb.pop() if len(mb) == 1 else CIRCLE))
    return MixedGraph(base.n, edges)


def build_mag_catalog(n):
    catalog = {}
    for g in enumerate_mags(n):
        catalog.setdefault(msep_signature(g), []).append(g)
    return catalog


def bf_fisher_z_margin(data, x, y, zs, alpha):
    """Fisher z test from least-squares residuals.

    Regresses columns x and y on the columns zs plus an intercept and takes
    the correlation r of the two residual vectors. Returns the quantile
    Phi^-1(1 - alpha/2) minus sqrt(n - |zs| - 3) * |atanh r|: independence
    is accepted iff the margin is >= 0.
    """
    n = data.shape[0]
    design = np.column_stack([np.ones(n)] + [data[:, w] for w in zs])
    res = [data[:, v] - design @ np.linalg.lstsq(design, data[:, v],
                                                 rcond=None)[0]
           for v in (x, y)]
    r = float(res[0] @ res[1]) / sqrt(float(res[0] @ res[0])
                                      * float(res[1] @ res[1]))
    stat = sqrt(n - len(zs) - 3) * abs(atanh(r))
    return NormalDist().inv_cdf(1 - alpha / 2) - stat


def sweep_set(cov, z):
    """The Schur-complement sweep of the covariance block over z, last
    member first, or None when a pivot is at most 1e-10 of its variable's
    variance (a degenerate set). One (k, pivot, column above it) per step,
    in sweep order: k is the member's position in z, and the pivot and the
    column are as they stand when that member is swept out."""
    m = len(z)
    a = [[cov[i][j] for j in z] for i in z]
    steps = []
    for k in range(m - 1, -1, -1):
        pivot = a[k][k]
        if pivot <= _DEGENERATE * cov[z[k]][z[k]]:
            return None
        col = [row[k] for row in a[:k]]
        for i, f in enumerate(col):
            f /= pivot
            row = a[i]
            for j in range(i, k):
                row[j] -= f * col[j]
        steps.append((k, pivot, col))
    return steps


def sweep_row(cov, v, z, steps):
    """v's row swept by the steps of sweep_set(cov, z): v's residual
    variance given z, then per step the factor (entry / pivot) and the
    entry of v's row at the swept member, as it stands at that step."""
    cv = cov[v]
    row = [cv[w] for w in z]
    var = cv[v]
    factors = []
    entries = []
    for k, pivot, col in steps:
        e = row[k]
        f = e / pivot
        var -= f * e
        factors.append(f)
        entries.append(e)
        for j, c in enumerate(col):
            row[j] -= f * c
    return var, factors, entries


def sweep_fisher_z(cov, n_samples, x, y, z, crit):
    """The Fisher z test of x and y given the ascending ids z by one sweep
    of the whole submatrix through sweep_set and sweep_row: True iff
    independent, None for a degenerate test (see oracles._fisher_z)."""
    m = len(z)
    if n_samples <= m + 3:
        return None
    steps = sweep_set(cov, z)
    if steps is None:
        return None
    sxx, fx, _ = sweep_row(cov, x, z, steps)
    syy, _, ey = sweep_row(cov, y, z, steps)
    sxy = cov[x][y]
    for f, e in zip(fx, ey):
        sxy -= f * e
    if (sxx <= _DEGENERATE * cov[x][x] or syy <= _DEGENERATE * cov[y][y]
            or sxx * syy - sxy * sxy <= _DEGENERATE * sxx * syy):
        return None
    return sqrt(n_samples - m - 3) * abs(atanh(sxy / sqrt(sxx * syy))) <= crit
