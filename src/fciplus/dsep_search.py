"""Search for edges separable only through nodes nonadjacent to both
endpoints, using hierarchies of stored minimal separating sets.

Candidate edges are recognized by a pattern in the augmented skeleton: a
bi-directed edge x <-> y flanked by bi-directed edges u <-> x and y <-> v
with u, v distinct and nonadjacent. For each candidate, conditioning-set
candidates are built by closing {x, y} plus small adjacent "base" sets under
the stored separating sets (the hierarchy); a successful candidate is
minimalized, stored, and the edge removed; the arrowheads derived from
the new set are added, the candidate list is recomputed, and previously
failed candidates are retried.

The augmented skeleton only detects candidates: the PAG is oriented from
the final skeleton and the stored separating sets alone.
"""

from dataclasses import dataclass, field
from itertools import combinations

from .augment import augment_graph
from .sepsets import SepsetMap


@dataclass(frozen=True)
class Hierarchy:
    """Seed set together with its closure under stored separating sets."""
    seed: frozenset
    closure: frozenset


@dataclass
class DsepLog:
    """Per-run record of the candidate-link search."""
    detected: list = field(default_factory=list)      # candidate lists per pass
    resolutions: list = field(default_factory=list)   # dicts per removed edge
    combos_tried: dict = field(default_factory=dict)  # pair -> base combos tested
    reactivations: int = 0
    failed_final: list = field(default_factory=list)

    def to_json_dict(self):
        return {
            "detected": [[list(p) for p in batch] for batch in self.detected],
            "resolutions": [
                {
                    "pair": list(r["pair"]),
                    "sepset": sorted(r["sepset"]),
                    "base_x": sorted(r["base_x"]),
                    "base_y": sorted(r["base_y"]),
                    "candidate": sorted(r["candidate"]),
                    "pattern_present": r["pattern_present"],
                }
                for r in self.resolutions
            ],
            "combos_tried": {"%d,%d" % p: c for p, c in sorted(self.combos_tried.items())},
            "reactivations": self.reactivations,
            "failed_final": [list(p) for p in self.failed_final],
        }


def find_possible_dsep_links(gplus):
    """Ordered list of edges matching the candidate pattern in gplus.

    An edge {x, y} qualifies iff it is bi-directed and there are nodes
    u, v outside {x, y} with u <-> x and y <-> v bi-directed, u != v, and
    u, v nonadjacent. This over-approximates the true set of candidate
    edges: the directional path conditions that could prune it further are
    deliberately not checked (extra candidates cost queries, never
    correctness).
    """
    links = []
    for x, y in gplus.edge_pairs():
        if not gplus.is_bidirected(x, y):
            continue
        flanks_x = [u for u in sorted(gplus.adj(x))
                    if u != y and gplus.is_bidirected(u, x)]
        flanks_y = [v for v in sorted(gplus.adj(y))
                    if v != x and gplus.is_bidirected(v, y)]
        found = False
        for u in flanks_x:
            for v in flanks_y:
                if u != v and not gplus.has_edge(u, v):
                    found = True
                    break
            if found:
                break
        if found:
            links.append((x, y))
    return links


def hie(seed, sepsets):
    """Least fixpoint closure of seed under the stored separating sets.

    Repeatedly adds the members of every stored set whose pair lies inside
    the closure, until stable.
    """
    closure = set(seed)
    stored = sepsets.items()
    changed = True
    while changed:
        changed = False
        for (a, b), zs, _level in stored:
            if a in closure and b in closure and not zs <= closure:
                closure |= zs
                changed = True
    return Hierarchy(seed=frozenset(seed), closure=frozenset(closure))


def minimal_dsep(x, y, z_star, oracle):
    """Shrink a separating set to a minimal one by eliminating redundant
    nodes one at a time (ascending id, passes repeated until stable).

    Precondition: z_star separates x and y per the oracle.
    """
    with oracle.stage("minimal_dsep"):
        if not oracle.query(x, y, z_star):
            raise RuntimeError("minimal_dsep precondition violated: "
                               "%r does not separate (%d, %d)" % (sorted(z_star), x, y))
        current = set(z_star)
        changed = True
        while changed:
            changed = False
            for w in sorted(current):
                reduced = frozenset(current - {w})
                if oracle.query(x, y, reduced):
                    current.discard(w)
                    changed = True
    return frozenset(current)


def _base_combinations(base_x, base_y, k):
    """Base-set pairs in deterministic order: sizes ascending with the x side
    outer, lexicographic within a size; sizes run 0..k on both sides."""
    max_x = len(base_x) if k is None else min(k, len(base_x))
    max_y = len(base_y) if k is None else min(k, len(base_y))
    for n in range(max_x + 1):
        for m in range(max_y + 1):
            for zx in combinations(base_x, n):
                for zy in combinations(base_y, m):
                    yield frozenset(zx), frozenset(zy)


def dsep_search(gplus, sepsets, oracle, k, log=None):
    """Resolve every candidate link in the augmented skeleton.

    Pops pending candidates in lexicographic order. For each candidate
    {x, y}, tries conditioning sets hie({x, y} + Zx + Zy) \\ {x, y} over all
    base pairs Zx from Adj(x), Zy from Adj(y) with at most k nodes per side.
    On success the separating set is minimalized and stored, the edge is
    removed, the arrowheads derived from the new set alone are added, and
    every previously failed candidate is reactivated. Terminates when no
    pending candidate remains.

    Augmenting with the new set alone is exact: arrowheads only accumulate,
    and an older set's candidate nodes and edges can only shrink as edges
    are removed, so repeating an older set would add nothing.

    Returns (gplus, sepsets, log).
    """
    if log is None:
        log = DsepLog()
    sepsets = sepsets.copy()
    resolved = set()
    tried_failed = set()
    links = find_possible_dsep_links(gplus)
    log.detected.append(list(links))
    while True:
        pending = [p for p in links if p not in tried_failed and p not in resolved]
        if not pending:
            break
        x, y = pending[0]
        base_x = sorted(gplus.adj(x) - {y})
        base_y = sorted(gplus.adj(y) - {x})
        found = None
        combos = 0
        for zx, zy in _base_combinations(base_x, base_y, k):
            combos += 1
            zstar = hie({x, y} | zx | zy, sepsets).closure - {x, y}
            with oracle.stage("dsep_search"):
                independent = oracle.query(x, y, zstar)
            if independent:
                found = (zx, zy, zstar)
                break
        log.combos_tried[(x, y)] = log.combos_tried.get((x, y), 0) + combos
        if found is None:
            tried_failed.add((x, y))
            continue
        zx, zy, zstar = found
        if (x, y) in resolved:
            raise RuntimeError("candidate link (%d, %d) resolved twice" % (x, y))
        zmin = minimal_dsep(x, y, zstar, oracle)
        sepsets.set(x, y, zmin, len(zmin))
        new = SepsetMap()
        new.set(x, y, zmin, len(zmin))
        gplus = augment_graph(gplus.without_edge(x, y), new, oracle)
        resolved.add((x, y))
        log.resolutions.append({
            "pair": (x, y), "sepset": zmin, "base_x": zx, "base_y": zy,
            "candidate": zstar, "pattern_present": (x, y) in links,
        })
        log.reactivations += len(tried_failed)
        tried_failed.clear()
        links = find_possible_dsep_links(gplus)
        log.detected.append(list(links))
    log.failed_final = sorted(tried_failed)
    return gplus, sepsets, log
