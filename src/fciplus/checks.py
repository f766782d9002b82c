"""Cross-module invariant suite, run against ground truth on every harness
run whose oracle is backed by a known causal DAG.

Each check returns (ok, detail). Ground-truth ancestry questions are
answered on the DAG directly; "per the oracle" questions go through the
oracle under the reference stage so the algorithm-stage counters stay
clean. A question the run already decided is a memo hit, so the checks'
queries are only the tests that no stage of the run asked.
"""

from itertools import combinations

from .graphs import ARROW, TAIL, _bits, dsep_reach, latent_project
from .oracles import ALGORITHM_STAGES
from .sepsets import hie


def _marks_against_truth(dag, graph, mark, ancestral):
    """Endpoints (w, v) carrying `mark` at w on the edge to v where w is an
    ancestor of v or of the selection set in the truth iff `ancestral`."""
    back, an = dag.observed, dag._an
    return [(w, v) for a, b, ma, mb in graph.edges()
            for w, v, m in ((a, b, ma), (b, a, mb))
            if m == mark
            and bool((an[back[v]] | dag._an_sel) >> back[w] & 1) == ancestral]


def check_arrowhead_soundness(dag, graph):
    """Every arrowhead at w on an edge to v means w is no ancestor of v (or
    of selection) in the truth."""
    bad = _marks_against_truth(dag, graph, ARROW, True)
    return not bad, "unsound arrowheads: %r" % bad if bad else "all arrowheads sound"


def check_tail_soundness(dag, graph):
    """Every tail at w on an edge to v means w is an ancestor of v or of the
    selection set in the truth."""
    bad = _marks_against_truth(dag, graph, TAIL, False)
    return not bad, "unsound tails: %r" % bad if bad else "all tails sound"


def check_sepsets(sepsets, oracle):
    """Every stored set separates its pair and is minimal (removing any
    single member breaks separation)."""
    bad = []
    with oracle.stage("reference"):
        for (x, y), zs in sepsets.items():
            if not oracle.query(x, y, zs):
                bad.append(("not separating", x, y))
                continue
            for w in _bits(zs):
                if oracle.query(x, y, zs & ~(1 << w)):
                    bad.append(("not minimal", x, y, w))
    return not bad, "sepset violations: %r" % bad if bad else \
        "%d sepsets separating and minimal" % len(sepsets)


def check_hierarchy_ancestry(dag, sepsets):
    """Every node pulled into a pair's hierarchy closure is an ancestor of
    the seed (or of selection) in the truth, tested in the equivalent form:
    each member z of the set stored for (a, b) is in An({a, b} + S). (If) z
    enters a closure through a stored pair already in it, so is ancestral by
    induction and transitivity. (Only if) hie({c, d}) holds c, d's set.
    """
    back, an = dag.observed, dag._an
    bad = []
    for (a, b), zs in sepsets.items():
        up = an[back[a]] | an[back[b]] | dag._an_sel
        for z in _bits(zs):
            if not up >> back[z] & 1:
                bad.append((a, b, z))
    return not bad, "non-ancestral hierarchy members: %r" % bad if bad else \
        "hierarchy members ancestral for %d pair seeds" % len(sepsets)


def check_resolved_links(dag, dsep_log):
    """For each removed candidate link with minimal set Z: neither endpoint
    is an ancestor of the other side plus Z plus selection, and the pair was
    detected in the pass that resolved it (each pass resolves at most one
    link, so the i-th resolution belongs to the i-th pass). That Z's members
    are ancestors of the endpoints plus selection is
    check_hierarchy_ancestry's test of the set stored for the pair."""
    back, an = dag.observed, dag._an
    bad = []
    detected = dsep_log["detected"]
    for i, r in enumerate(dsep_log["resolutions"]):
        x, y = r["pair"]
        dx, dy = back[x], back[y]
        dz = [back[w] for w in r["sepset"]]
        up_z = dag._an_sel
        for w in dz:
            up_z |= an[w]
        if (an[dy] | up_z) >> dx & 1:
            bad.append(("x ancestral", x, y))
        if (an[dx] | up_z) >> dy & 1:
            bad.append(("y ancestral", x, y))
        if i >= len(detected) or [x, y] not in detected[i]:
            bad.append(("not detected", x, y))
    return not bad, "resolved-link violations: %r" % bad if bad else \
        "%d resolutions sound" % len(dsep_log["resolutions"])


def _true_dsep_links(dag, mag):
    """{(x, y): adjacent ancestors, as an int mask} over the pairs
    nonadjacent in the truth that no subset of their adjacent pool
    adj(x) + adj(y), with the selection set S, separates; adjacent
    ancestors are the pool members in An({x, y} + S). By Tian, Paz & Pearl
    ("Finding Minimal D-separators", 1998) some Z with S <= Z <= pool + S
    separates x and y iff (pool + S) & An({x, y} + S) does, so one walk
    given that set settles a pair.

    A pair is walked only when x and y share a skeleton component of the
    DAG (else every set separates them) and each has a MAG neighbour in
    An({x, y} + S) with an arrowhead at that neighbour. For if Z, the
    pool's part in An({x, y} + S), fails to separate x and y, some
    m-connecting path given Z joins them, and each node on it is an
    ancestor of x, y, a collider or S, so in An({x, y} + Z + S) =
    An({x, y} + S). Its first and last inner nodes, adjacent to x and y,
    are thus in Z, so must be colliders: arrowheads at each.
    """
    back, an, comp = dag.observed, dag._an, dag._comp
    # the DAG-id masks of each node's MAG neighbours, and of those with an
    # arrowhead at the neighbour
    pool, into = [0] * mag.n, [0] * mag.n
    for a, b, ma, mb in mag.edges():
        pool[a] |= 1 << back[b]
        pool[b] |= 1 << back[a]
        if mb == ARROW:
            into[a] |= 1 << back[b]
        if ma == ARROW:
            into[b] |= 1 << back[a]
    pos = {v: i for i, v in enumerate(back)}
    links = {}
    for x, y in combinations([v for v in range(mag.n) if into[v]], 2):
        dx, dy = back[x], back[y]
        up = an[dx] | an[dy] | dag._an_sel
        if (not comp[dx] >> dy & 1 or not into[x] & up or not into[y] & up
                or pool[x] >> dy & 1):
            continue
        # x and y are nonadjacent, so neither is in the pool
        aa = (pool[x] | pool[y]) & up
        if not dsep_reach(dag, dx, dy, aa | dag._sel)[0]:
            links[(x, y)] = sum(1 << pos[v] for v in _bits(aa))
    return links


def check_hierarchy_separates_links(dag, mag, sepsets, oracle):
    """For every true candidate link, the hierarchy seeded by its adjacent
    ancestors in the truth separates the pair per the oracle."""
    bad = []
    links = _true_dsep_links(dag, mag)
    with oracle.stage("reference"):
        for (x, y), aa in links.items():
            if not oracle.query(x, y, hie(aa, sepsets) & ~(1 << x | 1 << y)):
                bad.append((x, y))
    return not bad, "hierarchy fails to separate: %r" % bad if bad else \
        "hierarchy separates all %d true candidate links" % len(links)


def _minimal_dsep_budget(resolutions):
    """Most queries minimal_dsep may ask for these resolutions. For a
    candidate set Z* of m nodes it asks the precondition test and one test
    per member in each elimination pass; a pass that removes nothing is the
    last, so the passes hold at most m, m - 1, ..., 1 members: 1 +
    m(m+1)/2 in all. Only the tests it decides count as queries, so it
    asks fewer (under dsep_search the precondition is a memo hit)."""
    return sum(1 + m * (m + 1) // 2
               for m in (len(r["candidate"]) for r in resolutions))


def check_query_bounds(stats, n, k, dsep_log=None):
    """Counted queries, the tests each stage decided, stay within their
    budgets: given its log, the deep-search stage asks at most one query
    per base pair it counted ("combos_tried") and minimal_dsep stays within
    _minimal_dsep_budget; the adjacency stage stays within 4 * N^(k+2) and
    the whole search within N^(2(k+2))."""
    ok, parts = True, []
    if dsep_log is not None:
        ds = stats["dsep_search"]["queries"]
        combos = sum(dsep_log["combos_tried"].values())
        md = stats["minimal_dsep"]["queries"]
        md_budget = _minimal_dsep_budget(dsep_log["resolutions"])
        ok = ds <= combos and md <= md_budget
        parts.append("dsep_search %d <= %d base pairs, minimal_dsep %d <= %d"
                     % (ds, combos, md, md_budget))
    if k is None:
        parts.append("no degree bound supplied; polynomial budget not applicable")
        return ok, ", ".join(parts)
    pc_q = stats["pc_search"]["queries"]
    algo_q = sum(stats[s]["queries"] for s in ALGORITHM_STAGES)
    pc_budget = 4 * n ** (k + 2)
    total_budget = n ** (2 * (k + 2))
    ok = ok and pc_q <= pc_budget and algo_q <= total_budget
    parts.append("pc %d <= %d, total %d <= %d"
                 % (pc_q, pc_budget, algo_q, total_budget))
    return ok, ", ".join(parts)


def run_invariant_checks(dag, oracle, k, pag, sepsets, dsep_log=None):
    """Full suite over a finished run: its PAG and stored sets and, for
    fciplus, the deep-search log. Returns {name: {ok, detail}}."""
    out = {}

    def add(name, pair):
        ok, detail = pair
        out[name] = {"ok": bool(ok), "detail": detail}

    add("arrowhead_soundness_pag", check_arrowhead_soundness(dag, pag))
    add("tail_soundness_pag", check_tail_soundness(dag, pag))
    add("sepsets_minimal", check_sepsets(sepsets, oracle))
    add("hierarchy_ancestry", check_hierarchy_ancestry(dag, sepsets))
    if dsep_log is not None:
        add("resolved_links", check_resolved_links(dag, dsep_log))
        # only this fciplus check reads the projected MAG
        add("hierarchy_separates_links",
            check_hierarchy_separates_links(dag, latent_project(dag),
                                            sepsets, oracle))
    add("query_bounds",
        check_query_bounds(oracle.stats.to_dict(), oracle.n_vars, k,
                           dsep_log))
    return out
