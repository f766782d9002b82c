"""Orientation phase producing the completed PAG.

First unshielded colliders are oriented from the stored separating sets,
then the complete rule set R1-R10 runs round-robin to fixpoint.
Both phases edit the marks of one copy of their input graph in place.
The collider step and each rule only derive marks: each is a generator
that yields (x, y, mark), the mark at x on the edge x *-* y, and never
writes the graph. `_commit` is the one place that sets a mark: it sets
each yielded mark before the generator resumes, so a rule reads its own
earlier marks within the same scan, and reports whether any mark changed.
`MixedGraph.set_mark` keeps mark changes monotone: a circle may become an
arrowhead or a tail; committed marks never change (a conflicting
derivation raises ModelViolationError, which cannot happen under a
faithful exact oracle). The rules read the copy's mark table and visit
neighbours in ascending order.

R1-R4 are the arrowhead rules, R5-R7 handle undirected edges (selection
bias), R8-R10 complete the tails on directed edges.
"""

from itertools import combinations

from .graphs import ARROW, CIRCLE, TAIL, _bits


def _commit(s, marks):
    """Set on s each (x, y, mark) that the generator `marks` yields, before
    it resumes; True if any mark changed."""
    changed = False
    for x, y, mark in marks:
        changed |= s.set_mark(x, y, mark)
    return changed


def _colliders(g, sepsets):
    # the arrowheads that orient_v_structures places, read off g
    adj = [sum(1 << v for v in g.adj(x)) for x in range(g.n)]
    for (x, y), zs in sepsets.items():
        if adj[x] >> y & 1:
            continue
        for z in _bits(adj[x] & adj[y] & ~zs):
            yield z, x, ARROW
            yield z, y, ARROW


def orient_v_structures(skeleton, sepsets):
    """Place arrowheads at z on x *-> z <-* y for every unshielded triple
    x - z - y whose stored separating set (an int mask) excludes z.

    Walks the stored pairs in storage order (it only turns circles into
    arrowheads, so the order does not change the result) and takes each
    one's common neighbours outside its set as one mask."""
    g = skeleton.copy()
    _commit(g, _colliders(g, sepsets))
    return g


def _r1(s, sepsets):
    # a *-> b o-* c with a, c nonadjacent: orient b -> c.
    for b in range(s.n):
        for a in s.adj(b):
            if s.mark(b, a) != ARROW:
                continue
            for c in s.adj(b):
                if c == a or s.has_edge(a, c):
                    continue
                if s.mark(b, c) == CIRCLE:
                    yield b, c, TAIL
                    yield c, b, ARROW


def _r2(s, sepsets):
    # a -> b *-> c or a *-> b -> c, and a *-o c: arrowhead at the c end.
    for a in range(s.n):
        for c in s.adj(a):
            if s.mark(c, a) != CIRCLE:
                continue
            for b in s.adj(a):
                if b == c or not s.has_edge(b, c):
                    continue
                chain1 = s.is_directed_edge(a, b) and s.mark(c, b) == ARROW
                chain2 = s.mark(b, a) == ARROW and s.is_directed_edge(b, c)
                if chain1 or chain2:
                    yield c, a, ARROW
                    break


def _r3(s, sepsets):
    # a *-> b <-* c, a *-o d o-* c, a, c nonadjacent, d *-o b: arrow at b.
    # Only a b with two arrowheads into it can fire.
    for b in range(s.n):
        into = [a for a in s.adj(b) if s.mark(b, a) == ARROW]
        if len(into) < 2:
            continue
        for d in s.adj(b):
            if s.mark(b, d) != CIRCLE:
                continue
            ends = [a for a in into if s.mark(d, a) == CIRCLE]
            if any(not s.has_edge(a, c) for a, c in combinations(ends, 2)):
                yield b, d, ARROW


def _discriminating_paths(s, b, c):
    """Yield (t, a) over discriminating paths <t, ..., a, b, c>: b adjacent
    to c, t nonadjacent to c, and every vertex strictly between t and b a
    collider on the path and a parent of c."""
    stack = [(b,)]
    while stack:
        path = stack.pop()
        head = path[0]
        for u in s.adj(head):
            if u == c or u in path:
                continue
            if head != b and s.mark(head, u) != ARROW:
                continue  # interior vertices need arrowheads on both sides
            if not s.has_edge(u, c):
                if len(path) >= 2:
                    yield u, path[-2]
                continue
            if s.is_directed_edge(u, c) and s.mark(u, head) == ARROW:
                stack.append((u,) + path)


def _r4(s, sepsets):
    # discriminating path <t, ..., a, b, c> and b o-* c: if b is in
    # sepset(t, c) orient b -> c, else orient a <-> b <-> c.
    for c in range(s.n):
        for b in s.adj(c):
            if s.mark(b, c) != CIRCLE:
                continue
            for t, a in _discriminating_paths(s, b, c):
                zs = sepsets.get(t, c)
                if zs is None:
                    continue
                if zs >> b & 1:
                    yield b, c, TAIL
                    yield c, b, ARROW
                else:
                    yield a, b, ARROW
                    yield b, a, ARROW
                    yield b, c, ARROW
                    yield c, b, ARROW
                break


def _circle_edge(s, x, y):
    """The edge between adjacent x and y is x o-o y."""
    return s.mark(x, y) == CIRCLE and s.mark(y, x) == CIRCLE


def _pd_edge(s, x, y):
    """The edge between adjacent x and y is traversable from x toward y on
    a potentially directed path: no arrowhead back at x, no tail ahead at
    y."""
    return s.mark(x, y) != ARROW and s.mark(y, x) != TAIL


def _uncovered_paths(s, a, b, step):
    """Yield the uncovered paths <a, ..., b> whose every edge passes
    step(s, x, y), x the end nearer a: no vertex repeats and the ends of
    every consecutive triple are nonadjacent. Depth first; extending a path
    visits its last vertex's neighbours in ascending order and yields at
    once each extension that reaches b."""
    stack = [(a,)]
    while stack:
        path = stack.pop()
        tail = path[-1]
        for u in s.adj(tail):
            if u in path or not step(s, tail, u):
                continue
            if len(path) >= 2 and s.has_edge(path[-2], u):
                continue
            if u == b:
                yield path + (u,)
            else:
                stack.append(path + (u,))


def _r5(s, sepsets):
    # a o-o b with uncovered circle path <a, c, ..., d, b>, a nonadjacent to
    # d, b nonadjacent to c: orient a - b and every path edge undirected.
    # The search also yields <a, b> and <a, c, b>, which have no such c, d.
    for a in range(s.n):
        for b in s.adj(a):
            if b < a or not _circle_edge(s, a, b):
                continue
            for path in _uncovered_paths(s, a, b, _circle_edge):
                c, d = path[1], path[-2]
                if len(path) < 4 or s.has_edge(a, d) or s.has_edge(b, c):
                    continue
                yield a, b, TAIL
                yield b, a, TAIL
                for u, v in zip(path, path[1:]):
                    yield u, v, TAIL
                    yield v, u, TAIL
                break


def _r6(s, sepsets):
    # a - b o-* c (a, c need not be nonadjacent): tail at b on b-c. The
    # circle at b rules out c == a, whose mark at b is a tail.
    for b in range(s.n):
        if not any(s.is_undirected(a, b) for a in s.adj(b)):
            continue
        for c in s.adj(b):
            if s.mark(b, c) == CIRCLE:
                yield b, c, TAIL


def _r7(s, sepsets):
    # a -o b o-* c with a, c nonadjacent: tail at b on b-c.
    for b in range(s.n):
        for a in s.adj(b):
            if not (s.mark(a, b) == TAIL and s.mark(b, a) == CIRCLE):
                continue
            for c in s.adj(b):
                if c == a or s.has_edge(a, c):
                    continue
                if s.mark(b, c) == CIRCLE:
                    yield b, c, TAIL


def _r8(s, sepsets):
    # a -> b -> c or a -o b -> c, and a o-> c: orient a -> c.
    for a in range(s.n):
        for c in s.adj(a):
            if not (s.mark(a, c) == CIRCLE and s.mark(c, a) == ARROW):
                continue
            for b in s.adj(a):
                if b == c or not s.has_edge(b, c):
                    continue
                first = s.is_directed_edge(a, b) or \
                    (s.mark(a, b) == TAIL and s.mark(b, a) == CIRCLE)
                if first and s.is_directed_edge(b, c):
                    yield a, c, TAIL
                    break


def _r9(s, sepsets):
    # a o-> c with an uncovered pd path <a, b, ..., c>, b nonadjacent to c:
    # orient a -> c.
    for a in range(s.n):
        for c in s.adj(a):
            if not (s.mark(a, c) == CIRCLE and s.mark(c, a) == ARROW):
                continue
            if any(p[1] != c and not s.has_edge(p[1], c)
                   for p in _uncovered_paths(s, a, c, _pd_edge)):
                yield a, c, TAIL


def _r10(s, sepsets):
    # a o-> c, b -> c <- d, uncovered pd paths a..b and a..d whose second
    # vertices mu != omega are nonadjacent: orient a -> c.
    for c in range(s.n):
        parent_list = [p for p in s.adj(c) if s.is_directed_edge(p, c)]
        if len(parent_list) < 2:
            continue
        for a in s.adj(c):
            if not (s.mark(a, c) == CIRCLE and s.mark(c, a) == ARROW):
                continue
            seconds = {t: {p[1] for p in _uncovered_paths(s, a, t, _pd_edge)}
                       for t in parent_list}
            for b, d in combinations(parent_list, 2):
                if any(mu != om and not s.has_edge(mu, om)
                       for mu in seconds[b] for om in seconds[d]):
                    yield a, c, TAIL
                    break


_RULES = (_r1, _r2, _r3, _r4, _r5, _r6, _r7, _r8, _r9, _r10)


def apply_fci_rules(pag, sepsets):
    """Apply the complete orientation rule set to fixpoint.

    Rules run round-robin in the order R1..R10 until ten calls in a row
    commit no change: every rule has then run idle on the same marks,
    which is the fixpoint (the fixpoint does not depend on the order).
    """
    s = pag.copy()
    idle = i = 0
    while idle < len(_RULES):
        idle = 0 if _commit(s, _RULES[i](s, sepsets)) else idle + 1
        i = (i + 1) % len(_RULES)
    return s
