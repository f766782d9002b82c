"""Cross-module invariant suite, run against ground truth on every harness
run whose oracle is backed by a known causal DAG.

Each check returns (ok, detail). Ground-truth ancestry questions are
answered on the DAG directly; "per the oracle" questions go through the
oracle under the reference stage so the algorithm-stage counters stay
clean.
"""

from itertools import combinations

from .graphs import ARROW, TAIL, d_separated, latent_project
from .dsep_search import hie


def _obs_to_dag(dag):
    return {i: o for i, o in enumerate(dag.observed)}


def _nonancestor_in_truth(dag, w, v):
    """w not an ancestor of {v} union the selection set, in dag ids."""
    return w not in dag.ancestors([v] + list(dag.selection))


def check_arrowhead_soundness(dag, graph):
    """Every arrowhead at w on an edge to v means w is no ancestor of v (or
    of selection) in the truth."""
    back = _obs_to_dag(dag)
    bad = []
    for a, b, ma, mb in graph.edges():
        if ma == ARROW and not _nonancestor_in_truth(dag, back[a], back[b]):
            bad.append((a, b))
        if mb == ARROW and not _nonancestor_in_truth(dag, back[b], back[a]):
            bad.append((b, a))
    return not bad, "unsound arrowheads: %r" % bad if bad else "all arrowheads sound"


def check_tail_soundness(dag, graph):
    """Every tail at w on an edge to v means w is an ancestor of v or of the
    selection set in the truth."""
    back = _obs_to_dag(dag)
    bad = []
    for a, b, ma, mb in graph.edges():
        if ma == TAIL and _nonancestor_in_truth(dag, back[a], back[b]):
            bad.append((a, b))
        if mb == TAIL and _nonancestor_in_truth(dag, back[b], back[a]):
            bad.append((b, a))
    return not bad, "unsound tails: %r" % bad if bad else "all tails sound"


def check_sepsets(sepsets, oracle):
    """Every stored set separates its pair and is minimal (removing any
    single member breaks separation)."""
    bad = []
    with oracle.stage("reference"):
        for (x, y), zs, _lvl in sepsets.items():
            if not oracle.query(x, y, zs):
                bad.append(("not separating", x, y))
                continue
            for w in sorted(zs):
                if oracle.query(x, y, zs - {w}):
                    bad.append(("not minimal", x, y, w))
    return not bad, "sepset violations: %r" % bad if bad else \
        "%d sepsets separating and minimal" % len(sepsets)


def check_hierarchy_ancestry(dag, sepsets):
    """Every node pulled into a pair's hierarchy closure is an ancestor of
    the seed (or of selection) in the truth."""
    back = _obs_to_dag(dag)
    bad = []
    pairs = sepsets.pairs()
    for a, b in pairs:
        closure = hie({a, b}, sepsets).closure
        seed_dag = {back[a], back[b]} | set(dag.selection)
        an = dag.ancestors(seed_dag)
        for w in closure - {a, b}:
            if back[w] not in an:
                bad.append((a, b, w))
    return not bad, "non-ancestral hierarchy members: %r" % bad if bad else \
        "hierarchy members ancestral for %d pair seeds" % len(pairs)


def check_resolved_links(dag, dsep_log):
    """For each removed candidate link with minimal set Z: neither endpoint
    is an ancestor of the other side plus Z plus selection, every member of
    Z is an ancestor of the endpoints plus selection, and the detection
    pattern was present at resolution time."""
    back = _obs_to_dag(dag)
    sel = list(dag.selection)
    bad = []
    for r in dsep_log["resolutions"]:
        x, y = r["pair"]
        zs = r["sepset"]
        dx, dy = back[x], back[y]
        dz = [back[w] for w in zs]
        if dx in dag.ancestors([dy] + dz + sel):
            bad.append(("x ancestral", x, y))
        if dy in dag.ancestors([dx] + dz + sel):
            bad.append(("y ancestral", x, y))
        for w in dz:
            if w not in dag.ancestors([dx, dy] + sel):
                bad.append(("member not ancestral", x, y, w))
        if not r["pattern_present"]:
            bad.append(("pattern absent", x, y))
    return not bad, "resolved-link violations: %r" % bad if bad else \
        "%d resolutions sound" % len(dsep_log["resolutions"])


def _true_dsep_links(dag, mag):
    """Pairs nonadjacent in the truth whose every separating set needs a
    node nonadjacent to both endpoints (checked by exhausting the adjacent
    pool on the dag directly)."""
    names = range(mag.n)
    back = _obs_to_dag(dag)
    sel = set(dag.selection)
    links = []
    for x, y in combinations(names, 2):
        if mag.has_edge(x, y):
            continue
        pool = sorted((mag.adj(x) | mag.adj(y)) - {x, y})
        separable_adjacent = False
        for r in range(len(pool) + 1):
            for zs in combinations(pool, r):
                if d_separated(dag, back[x], back[y],
                               {back[v] for v in zs} | sel):
                    separable_adjacent = True
                    break
            if separable_adjacent:
                break
        if not separable_adjacent:
            links.append((x, y))
    return links


def check_hierarchy_separates_links(dag, mag, sepsets, oracle):
    """For every true candidate link, the hierarchy seeded by its adjacent
    ancestors in the truth separates the pair per the oracle."""
    bad = []
    links = _true_dsep_links(dag, mag)
    back = _obs_to_dag(dag)
    sel_an = dag.selection_ancestors()
    with oracle.stage("reference"):
        for x, y in links:
            an = {v for v in range(mag.n)
                  if back[v] in dag.ancestors([back[x], back[y]]) | sel_an}
            aa = ((mag.adj(x) | mag.adj(y)) & an) - {x, y}
            closure = hie(aa, sepsets).closure if aa else frozenset()
            if not oracle.query(x, y, closure - {x, y}):
                bad.append((x, y))
    return not bad, "hierarchy fails to separate: %r" % bad if bad else \
        "hierarchy separates all %d true candidate links" % len(links)


def check_query_bounds(stats, n, k):
    """Counted queries stay within the polynomial budget: the adjacency
    stage within 4 * N^(k+2), the whole search within N^(2(k+2))."""
    if k is None:
        return True, "no degree bound supplied; budget not applicable"
    pc_q = stats["pc_search"]["queries"]
    algo_q = sum(stats[s]["queries"]
                 for s in ("pc_search", "augment", "dsep_search",
                           "minimal_dsep", "orientation"))
    pc_budget = 4 * n ** (k + 2)
    total_budget = n ** (2 * (k + 2))
    ok = pc_q <= pc_budget and algo_q <= total_budget
    return ok, "pc %d <= %d, total %d <= %d" % (pc_q, pc_budget, algo_q, total_budget)


def run_invariant_checks(dag, result):
    """Full suite over a finished pipeline result; returns {name: {ok, detail}}."""
    out = {}
    mag = latent_project(dag)

    def add(name, pair):
        ok, detail = pair
        out[name] = {"ok": bool(ok), "detail": detail}

    add("arrowhead_soundness_pag", check_arrowhead_soundness(dag, result.pag))
    add("tail_soundness_pag", check_tail_soundness(dag, result.pag))
    if result.gplus is not None:
        add("arrowhead_soundness_augmented",
            check_arrowhead_soundness(dag, result.gplus))
    add("sepsets_minimal", check_sepsets(result.sepsets, result.oracle))
    add("hierarchy_ancestry", check_hierarchy_ancestry(dag, result.sepsets))
    if result.dsep_log is not None:
        add("resolved_links", check_resolved_links(dag, result.dsep_log))
        add("hierarchy_separates_links",
            check_hierarchy_separates_links(dag, mag, result.sepsets,
                                            result.oracle))
    add("query_bounds",
        check_query_bounds(result.stats_snapshot, result.oracle.n_vars,
                           result.k))
    return out
