"""Search for edges separable only through nodes nonadjacent to both
endpoints, using hierarchies of stored minimal separating sets.

A candidate edge {x, y} is recognized by the structure of the skeleton
alone: x and y have flanks u in Adj(x), v in Adj(y) with u != v and u, v
nonadjacent. The paper detects candidates on the augmented skeleton, whose
arrowheads come from single-node minimal dependencies; this module
deliberately skips that filter. Every removal is confirmed by a separating
set, so a looser detector costs queries but never correctness, and the
arrowhead queries cost more than the candidates they ruled out (README,
"Deep search"). For each candidate, conditioning-set candidates are built
by closing {x, y} plus small adjacent "base" sets under the stored
separating sets (the hierarchy, `sepsets.hie`); a successful candidate is
minimalized, stored, and the edge removed; the candidate list is recomputed
and previously failed candidates are retried. A test the oracle has
already decided, in this stage or any earlier one, is a memo hit and no
query, so a retry pays only for the sets that the grown hierarchy changed,
and a retry whose widest closure holds no newly stored pair is settled by
that one closure. Each seed is closed by extending the closure of the seed
minus one node, and the closure is kept until a resolution stores a pair
that lies inside it.
"""

from itertools import combinations
from math import comb

from .graphs import _bits
from .sepsets import hie


def find_possible_dsep_links(g):
    """Ordered list of the edges {x, y} of g that have flanks u in Adj(x),
    v in Adj(y), outside {x, y}, with u != v and u, v nonadjacent. Marks
    are not read. This over-approximates the true set of candidate edges
    (extra candidates cost queries, never correctness).
    """
    links = []
    for x, y in g.edge_pairs():
        if any(u != y and v != x and u != v and not g.has_edge(u, v)
               for u in g.adj(x) for v in g.adj(y)):
            links.append((x, y))
    return links


def minimal_dsep(x, y, z_star, oracle):
    """Shrink the separating set z_star, an int mask, to a minimal one by
    eliminating redundant nodes one at a time (ascending id, passes
    repeated until stable); returns it. A test already decided, such as
    the precondition that dsep_search has just asked, is a memo hit.

    Precondition: z_star separates x and y per the oracle (checked, by a
    `query` that also checks the input); the eliminations ask subsets of
    z_star through the oracle's trusted `ask`.
    """
    with oracle.stage("minimal_dsep"):
        if not oracle.query(x, y, z_star):
            raise RuntimeError("minimal_dsep precondition violated: %r does "
                               "not separate (%d, %d)" % (_bits(z_star), x, y))
        current = z_star
        changed = True
        while changed:
            changed = False
            for w in _bits(current):
                reduced = current & ~(1 << w)
                if oracle.ask(x, y, reduced):
                    current = reduced
                    changed = True
    return current


def _base_combinations(base_x, base_y, k):
    """Base-set pairs as int masks in deterministic order: sizes ascending
    with the x side outer, lexicographic within a size; sizes run 0..k on
    both sides. base_x and base_y list their nodes' bits ascending."""
    max_x = len(base_x) if k is None else min(k, len(base_x))
    max_y = len(base_y) if k is None else min(k, len(base_y))
    for n in range(max_x + 1):
        for m in range(max_y + 1):
            for zx in combinations(base_x, n):
                for zy in combinations(base_y, m):
                    yield sum(zx), sum(zy)


def _base_pair_count(nx, ny, k):
    """The number of base-set pairs _base_combinations yields for sides of
    nx and ny nodes."""
    def subsets(m):
        return sum(comb(m, i) for i in range((m if k is None else min(k, m)) + 1))
    return subsets(nx) * subsets(ny)


def _close(seed, ends, closures, sepsets):
    """hie(seed) under the stored sets, from the cache closures (seed ->
    closure) or closed from the closure of its prefix, the seed minus its
    highest node outside ends, and cached."""
    closure = closures.get(seed)
    if closure is None:
        rest = seed & ~ends
        if rest:
            top = 1 << rest.bit_length() - 1
            closure = _close(seed ^ top, ends, closures, sepsets)
            if not closure & top:
                closure = hie(top, sepsets, closure)
        else:
            closure = hie(seed, sepsets)
        closures[seed] = closure
    return closure


def dsep_search(skeleton, sepsets, oracle, k):
    """Resolve every candidate link of skeleton, a MixedGraph.

    Each detection pass lists the candidates and tries them in
    lexicographic order. For each candidate {x, y}, tries conditioning sets
    hie({x, y} + Zx + Zy) \\ {x, y} over all base pairs Zx from Adj(x), Zy
    from Adj(y) with at most k nodes per side. On success the separating
    set is minimalized and stored, the edge is removed, every previously
    failed candidate is reactivated and the next pass starts. Terminates
    after a pass in which no candidate resolves.

    Each piece of work is done once. The closure of a seed {x, y} + Zx +
    Zy is cached by the seed's mask; it depends on the seed alone, so
    candidates that share a seed share it. A seed is closed from the
    closure of its prefix, the seed minus its highest node outside {x, y},
    by adding that one node (hie with a closed base); the walk's size order
    closes every prefix first. Every cached closure is current: when a pair
    resolves, each cached closure that holds the pair is dropped, and is
    closed again from its prefix when next asked for. This is exact. Stored
    sets are only added and closures are monotone, so a closure that holds
    no new pair is still closed under every stored set, and equals the
    closure now. A test that the oracle has already
    decided, in any stage, is a memo hit and costs no query, and
    "combos_tried" counts every base pair walked. The input skeleton and
    stored sets must be over the oracle's variables (ValueError
    otherwise); checked once here, they make every set the walk builds
    valid, so it asks the oracle's trusted `ask`.

    A retry first closes the widest seed, {x, y} + Adj(x) + Adj(y), like
    any other. If no pair resolved since the candidate's last attempt lies
    inside that closure, the candidate fails again without walking its
    base pairs, and "combos_tried" adds their number. This is exact.
    Edges are only removed, so every base pair of the retry was one of the
    last attempt. Stored sets are only added and closures are monotone, so
    a base pair's closure at the last attempt lies inside its closure now,
    which lies inside the widest one. The earlier closure thus holds no
    newly stored pair and is already closed under every stored set: the two
    are equal, and the earlier one's set failed. The cache is a local of
    the call and goes with it.

    Detection asks no queries. The search enters the oracle's
    "dsep_search" stage once, and minimal_dsep enters its own stage.

    Returns (final skeleton, sepsets, log). The log is the JSON dict that
    RunReport.dsep_log holds: the candidate pairs of each pass
    ("detected"), one entry per removed edge ("resolutions", sets as
    ascending id lists), base pairs tried per pair keyed "x,y"
    ("combos_tried"), the number of reactivated candidates
    ("reactivations") and the candidates still failing at the end
    ("failed_final"); pairs are [x, y] lists.
    """
    n = oracle.n_vars
    if skeleton.n != n or any((1 << a | 1 << b | zs) >> n
                              for (a, b), zs in sepsets.items()):
        raise ValueError("input not over the oracle's %d variables" % n)
    sepsets = sepsets.copy()
    g = skeleton.copy()
    log = {"detected": [], "resolutions": [], "combos_tried": {},
           "reactivations": 0, "failed_final": []}
    last_attempt = {}   # pair -> the number of resolutions at its last attempt
    stored = []   # the mask of each resolved pair, in resolution order
    # seed -> hie(seed) under the current stored sets: a dict of ints,
    # which the garbage collector does not track
    closures = {}
    with oracle.stage("dsep_search"):
        while True:
            links = find_possible_dsep_links(g)
            log["detected"].append([[x, y] for x, y in links])
            for i, (x, y) in enumerate(links):
                base_x = [1 << v for v in g.adj(x) if v != y]
                base_y = [1 << v for v in g.adj(y) if v != x]
                ax, ay = sum(base_x), sum(base_y)
                ends = 1 << x | 1 << y
                key = "%d,%d" % (x, y)
                since = last_attempt.get((x, y))
                last_attempt[(x, y)] = len(stored)
                if since is not None:
                    widest = _close(ends | ax | ay, ends, closures, sepsets)
                    if all(p & widest != p for p in stored[since:]):
                        log["combos_tried"][key] += _base_pair_count(
                            len(base_x), len(base_y), k)
                        continue
                found = None
                combos = 0
                for zx, zy in _base_combinations(base_x, base_y, k):
                    combos += 1
                    zstar = _close(ends | zx | zy, ends, closures,
                                   sepsets) & ~ends
                    if oracle.ask(x, y, zstar):
                        found = (zx, zy, zstar)
                        break
                log["combos_tried"][key] = log["combos_tried"].get(key, 0) + combos
                if found is None:
                    continue
                zx, zy, zstar = found
                zmin = minimal_dsep(x, y, zstar, oracle)
                sepsets.set(x, y, zmin)
                g.remove_edge(x, y)
                stored.append(ends)
                # only a closure that holds the new pair can grow
                closures = {seed: c for seed, c in closures.items()
                            if c & ends != ends}
                log["resolutions"].append({
                    "pair": [x, y], "sepset": _bits(zmin),
                    "base_x": _bits(zx), "base_y": _bits(zy),
                    "candidate": _bits(zstar),
                })
                # the i candidates before it failed in this pass
                log["reactivations"] += i
                break
            else:
                break
    # the last pass resolved nothing: every candidate of it failed
    log["failed_final"] = [[x, y] for x, y in links]
    return g, sepsets, log
