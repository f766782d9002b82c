"""Augmented skeleton: invariant arrowheads from single-node minimal
dependencies.

For each stored minimal separation x _||_ y | Z, any node w adjacent to
{x, y} union Z that makes the pair dependent again (x not _||_ y | Z + {w})
cannot be an ancestor of {x, y} union Z union the selection set, so an
arrowhead is placed at w on every edge joining w to that set. Arrowheads
only accumulate; placing one over a committed tail is a model violation.

The marks serve only to detect candidate links for the deep search; the
PAG is oriented from the bare final skeleton.
"""

from .graphs import ARROW


def augment_graph(g, sepsets, oracle):
    """Add all invariant arrowheads derivable from sepsets to g.

    Candidate nodes are taken from the current graph's adjacency, so after
    edge removals a set's tested nodes only shrink. The pass is idempotent:
    augmenting an already-augmented graph changes nothing.
    """
    builder = g.builder()
    with oracle.stage("augment"):
        for (x, y), zs, _level in sepsets.items():
            core = {x, y} | zs
            cands = set()
            for v in core:
                cands |= g.adj(v)
            for w in sorted(cands - core):
                if not oracle.query(x, y, zs | {w}):
                    for v in sorted(core):
                        if g.has_edge(w, v):
                            builder.set_mark(w, v, ARROW)
    return builder.build()
