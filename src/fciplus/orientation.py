"""Orientation phase producing the completed PAG.

First unshielded colliders are oriented from the stored separating sets,
then the complete rule set R1-R10 runs in round-robin sweeps to fixpoint.
Mark changes are monotone: a circle may become an arrowhead or a tail;
committed marks never change (a conflicting derivation raises
ModelViolationError, which cannot happen under a faithful exact oracle).

R1-R4 are the arrowhead rules, R5-R7 handle undirected edges (selection
bias), R8-R10 complete the tails on directed edges.
"""

from itertools import combinations

from .graphs import ARROW, CIRCLE, TAIL, ModelViolationError

DEFAULT_RULES = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)


def orient_v_structures(skeleton, sepsets):
    """Place arrowheads at z on x *-> z <-* y for every unshielded triple
    x - z - y whose stored separating set excludes z."""
    b = skeleton.builder()
    for x, y in combinations(range(skeleton.n), 2):
        if skeleton.has_edge(x, y):
            continue
        zs = sepsets.get(x, y)
        if zs is None:
            continue
        for z in sorted(skeleton.adj(x) & skeleton.adj(y)):
            if z not in zs:
                b.set_mark(z, x, ARROW)
                b.set_mark(z, y, ARROW)
    return b.build()


class _State:
    """Mutable mark table over a fixed adjacency structure."""

    def __init__(self, g):
        self.g = g
        self.n = g.n
        self.adjacency = {v: sorted(g.adj(v)) for v in range(g.n)}
        self.marks = {}
        for a, b, ma, mb in g.edges():
            self.marks[(a, b)] = ma
            self.marks[(b, a)] = mb

    def adj(self, v):
        return self.adjacency[v]

    def has_edge(self, x, y):
        return (x, y) in self.marks

    def mark(self, x, y):
        """Mark at x on edge {x, y}, or None when nonadjacent."""
        return self.marks.get((x, y))

    def set_mark(self, x, y, new):
        """Set mark at x on edge {x, y}; monotone, returns True on change."""
        cur = self.marks[(x, y)]
        if cur == new:
            return False
        if cur != CIRCLE:
            raise ModelViolationError(
                "mark conflict at %d on edge {%d,%d}: %s -> %s" % (x, x, y, cur, new))
        self.marks[(x, y)] = new
        return True

    def arrow_at(self, x, y):
        """Arrowhead at x on the edge to y (y *-> x)."""
        return self.marks.get((x, y)) == ARROW

    def is_parent(self, x, y):
        """x -> y."""
        return self.marks.get((x, y)) == TAIL and self.marks.get((y, x)) == ARROW

    def is_undirected(self, x, y):
        return self.marks.get((x, y)) == TAIL and self.marks.get((y, x)) == TAIL

    def pd_edge(self, x, y):
        """Edge traversable from x toward y on a potentially directed path:
        no arrowhead back at x, no tail ahead at y."""
        return (x, y) in self.marks and \
            self.marks[(x, y)] != ARROW and self.marks[(y, x)] != TAIL

    def build(self):
        out = self.g.builder()
        for a, b in self.g.edge_pairs():
            if out.mark(a, b) != self.marks[(a, b)]:
                out.set_mark(a, b, self.marks[(a, b)])
            if out.mark(b, a) != self.marks[(b, a)]:
                out.set_mark(b, a, self.marks[(b, a)])
        return out.build()


def _r1(s, sepsets):
    # a *-> b o-* c with a, c nonadjacent: orient b -> c.
    changed = False
    for b in range(s.n):
        for a in s.adj(b):
            if not s.arrow_at(b, a):
                continue
            for c in s.adj(b):
                if c == a or s.has_edge(a, c):
                    continue
                if s.mark(b, c) == CIRCLE:
                    changed |= s.set_mark(b, c, TAIL)
                    changed |= s.set_mark(c, b, ARROW)
    return changed


def _r2(s, sepsets):
    # a -> b *-> c or a *-> b -> c, and a *-o c: arrowhead at the c end.
    changed = False
    for a in range(s.n):
        for c in s.adj(a):
            if s.mark(c, a) != CIRCLE:
                continue
            for b in s.adj(a):
                if b == c or not s.has_edge(b, c):
                    continue
                chain1 = s.is_parent(a, b) and s.arrow_at(c, b)
                chain2 = s.arrow_at(b, a) and s.is_parent(b, c)
                if chain1 or chain2:
                    changed |= s.set_mark(c, a, ARROW)
                    break
    return changed


def _r3(s, sepsets):
    # a *-> b <-* c, a *-o d o-* c, a, c nonadjacent, d *-o b: arrow at b.
    changed = False
    for a, c in combinations(range(s.n), 2):
        if s.has_edge(a, c):
            continue
        common = [v for v in s.adj(a) if s.has_edge(v, c)]
        colliders = [b for b in common if s.arrow_at(b, a) and s.arrow_at(b, c)]
        circles = [d for d in common
                   if s.mark(d, a) == CIRCLE and s.mark(d, c) == CIRCLE]
        for b in colliders:
            for d in circles:
                if d == b or not s.has_edge(d, b):
                    continue
                if s.mark(b, d) == CIRCLE:
                    changed |= s.set_mark(b, d, ARROW)
    return changed


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
            if head != b and not s.arrow_at(head, u):
                continue  # interior vertices need arrowheads on both sides
            if not s.has_edge(u, c):
                if len(path) >= 2:
                    yield u, path[-2]
                continue
            if s.is_parent(u, c) and s.arrow_at(u, head):
                stack.append((u,) + path)


def _r4(s, sepsets):
    # discriminating path <t, ..., a, b, c> and b o-* c: if b is in
    # sepset(t, c) orient b -> c, else orient a <-> b <-> c.
    changed = False
    for c in range(s.n):
        for b in s.adj(c):
            if s.mark(b, c) != CIRCLE:
                continue
            for t, a in _discriminating_paths(s, b, c):
                zs = sepsets.get(t, c)
                if zs is None:
                    continue
                if b in zs:
                    changed |= s.set_mark(b, c, TAIL)
                    changed |= s.set_mark(c, b, ARROW)
                else:
                    changed |= s.set_mark(a, b, ARROW)
                    changed |= s.set_mark(b, a, ARROW)
                    changed |= s.set_mark(b, c, ARROW)
                    changed |= s.set_mark(c, b, ARROW)
                break
    return changed


def _uncovered_circle_paths(s, a, b):
    """Yield uncovered all-circle paths <a, c, ..., d, b> with at least two
    interior vertices (consecutive triple ends nonadjacent)."""
    stack = [(a,)]
    while stack:
        path = stack.pop()
        tail = path[-1]
        for u in s.adj(tail):
            if u in path:
                continue
            if not (s.mark(tail, u) == CIRCLE and s.mark(u, tail) == CIRCLE):
                continue
            if len(path) >= 2 and s.has_edge(path[-2], u):
                continue
            if u == b:
                if len(path) >= 3:
                    yield path + (u,)
                continue
            stack.append(path + (u,))


def _r5(s, sepsets):
    # a o-o b with uncovered circle path <a, c, ..., d, b>, a nonadjacent to
    # d, b nonadjacent to c: orient a - b and every path edge undirected.
    changed = False
    for a, b in combinations(range(s.n), 2):
        if not (s.mark(a, b) == CIRCLE and s.mark(b, a) == CIRCLE):
            continue
        for path in _uncovered_circle_paths(s, a, b):
            c, d = path[1], path[-2]
            if s.has_edge(a, d) or s.has_edge(b, c):
                continue
            changed |= s.set_mark(a, b, TAIL)
            changed |= s.set_mark(b, a, TAIL)
            for u, v in zip(path, path[1:]):
                changed |= s.set_mark(u, v, TAIL)
                changed |= s.set_mark(v, u, TAIL)
            break
    return changed


def _r6(s, sepsets):
    # a - b o-* c (a, c need not be nonadjacent): tail at b on b-c.
    changed = False
    for b in range(s.n):
        undirected_partners = [a for a in s.adj(b) if s.is_undirected(a, b)]
        if not undirected_partners:
            continue
        for c in s.adj(b):
            if s.mark(b, c) != CIRCLE:
                continue
            if any(a != c for a in undirected_partners):
                changed |= s.set_mark(b, c, TAIL)
    return changed


def _r7(s, sepsets):
    # a -o b o-* c with a, c nonadjacent: tail at b on b-c.
    changed = False
    for b in range(s.n):
        for a in s.adj(b):
            if not (s.mark(a, b) == TAIL and s.mark(b, a) == CIRCLE):
                continue
            for c in s.adj(b):
                if c == a or s.has_edge(a, c):
                    continue
                if s.mark(b, c) == CIRCLE:
                    changed |= s.set_mark(b, c, TAIL)
    return changed


def _r8(s, sepsets):
    # a -> b -> c or a -o b -> c, and a o-> c: orient a -> c.
    changed = False
    for a in range(s.n):
        for c in s.adj(a):
            if not (s.mark(a, c) == CIRCLE and s.mark(c, a) == ARROW):
                continue
            for b in s.adj(a):
                if b == c or not s.has_edge(b, c):
                    continue
                first = s.is_parent(a, b) or \
                    (s.mark(a, b) == TAIL and s.mark(b, a) == CIRCLE)
                if first and s.is_parent(b, c):
                    changed |= s.set_mark(a, c, TAIL)
                    break
    return changed


def _uncovered_pd_second_vertices(s, a, target):
    """Second vertices of uncovered potentially-directed paths from a to
    target."""
    out = set()
    stack = [(a, u) for u in s.adj(a) if s.pd_edge(a, u)]
    while stack:
        path = stack.pop()
        tail = path[-1]
        if tail == target:
            out.add(path[1])
            continue
        for u in s.adj(tail):
            if u in path:
                continue
            if not s.pd_edge(tail, u):
                continue
            if s.has_edge(path[-2], u):
                continue
            stack.append(path + (u,))
    return out


def _r9(s, sepsets):
    # a o-> c with an uncovered pd path <a, b, ..., c>, b nonadjacent to c:
    # orient a -> c.
    changed = False
    for a in range(s.n):
        for c in s.adj(a):
            if not (s.mark(a, c) == CIRCLE and s.mark(c, a) == ARROW):
                continue
            seconds = _uncovered_pd_second_vertices(s, a, c)
            if any(b != c and not s.has_edge(b, c) for b in seconds):
                changed |= s.set_mark(a, c, TAIL)
    return changed


def _r10(s, sepsets):
    # a o-> c, b -> c <- d, uncovered pd paths a..b and a..d whose second
    # vertices mu != omega are nonadjacent: orient a -> c.
    changed = False
    for c in range(s.n):
        parent_list = [p for p in s.adj(c) if s.is_parent(p, c)]
        if len(parent_list) < 2:
            continue
        for a in s.adj(c):
            if not (s.mark(a, c) == CIRCLE and s.mark(c, a) == ARROW):
                continue
            for b, d in combinations(parent_list, 2):
                mus = _uncovered_pd_second_vertices(s, a, b)
                omegas = _uncovered_pd_second_vertices(s, a, d)
                if any(mu != om and not s.has_edge(mu, om)
                       for mu in mus for om in omegas):
                    changed |= s.set_mark(a, c, TAIL)
                    break
    return changed


_RULES = {1: _r1, 2: _r2, 3: _r3, 4: _r4, 5: _r5,
          6: _r6, 7: _r7, 8: _r8, 9: _r9, 10: _r10}


def apply_fci_rules(pag, sepsets, rule_order=None):
    """Apply the complete orientation rule set to fixpoint.

    Rules sweep round-robin in the given order (default 1..10) until a full
    sweep changes nothing. The fixpoint is order-independent; rule_order
    exists so tests can verify that.
    """
    order = tuple(rule_order) if rule_order is not None else DEFAULT_RULES
    s = _State(pag)
    changed = True
    while changed:
        changed = False
        for rid in order:
            changed |= _RULES[rid](s, sepsets)
    return s.build()
