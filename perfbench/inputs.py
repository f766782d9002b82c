"""Seeded inputs for the learning workloads, drawn by the benchmark's own code.

Nothing here calls fciplus.generators (fciplus is used only to wrap a drawn
DAG in its CausalDag type), so a change to the package's generator cannot
change what sparse_exact, deep_links or gauss_sample learn. Every draw is
checked with the benchmark's own projection (truth.Truth) and redrawn until
its projected degree is at most K; the redraws come from the same seeded
stream, so a seed always yields the same instances.

Each workload's instances follow a fixed schedule of sizes and variable
counts and only the wiring is random, so that sums over one pass vary
little from seed to seed.
"""

import random

import numpy as np

from fciplus import CausalDag
from truth import Truth

K = 3


class Instance:
    """One ground-truth DAG plus what the checks need from it.

    Node ids: observed first (0..n_obs-1), then latents, then selection
    variables; fciplus reindexes observed ids ascending, so projection
    positions equal these ids.
    """

    def __init__(self, label, n_obs, edges, latent, selection, pairs, truth):
        self.label = label
        self.n_obs = n_obs
        self.n = n_obs + len(latent) + len(selection)
        self.edges = edges
        self.latent = latent
        self.selection = selection
        self.pairs = pairs
        self.truth = truth

    def dag(self):
        return CausalDag(self.n, self.edges, range(self.n_obs),
                         self.latent, self.selection)


def _finish(label, n_obs, edges, latent, selection, need_deep=0):
    """Accept a draw when its projected degree is <= K and it has at least
    need_deep deep pairs; None otherwise."""
    n = n_obs + len(latent) + len(selection)
    truth = Truth(n, edges, range(n_obs), selection)
    pairs = truth.projected_pairs(max_degree=K)
    if pairs is None:
        return None
    if need_deep and len(truth.deep_pairs(pairs)) < need_deep:
        return None
    return Instance(label, n_obs, edges, list(latent), list(selection),
                    pairs, truth)


def _background(rng, nodes, n_edges, degree):
    """Up to n_edges distinct edges consistent with a random order of nodes,
    none raising a node's degree (counted in `degree`) above K."""
    order = list(nodes)
    rng.shuffle(order)
    slots = [(order[i], order[j])
             for i in range(len(order)) for j in range(i + 1, len(order))]
    rng.shuffle(slots)
    edges = set()
    for a, b in slots:
        if len(edges) == n_edges:
            break
        if degree[a] < K and degree[b] < K:
            edges.add((a, b))
            degree[a] += 1
            degree[b] += 1
    return edges


def _pick(rng, pool, degree, count=2):
    """count nodes of pool with degree below K, raising their degree."""
    free = [w for w in pool if degree[w] < K]
    chosen = rng.sample(free, count) if len(free) >= count else rng.sample(pool, count)
    for w in chosen:
        degree[w] += 1
    return chosen


def _draw_uniform(rng, n_obs, n_lat, n_sel, n_edges):
    """Random DAG over observed + latent nodes; latents are confounders with
    two observed children, selection nodes are sinks with two observed
    parents. Children and parents are taken among nodes of degree < K where
    possible, so that few draws are rejected."""
    degree = [0] * n_obs
    edges = _background(rng, range(n_obs), n_edges, degree)
    for i in range(n_lat):
        edges |= {(n_obs + i, w) for w in _pick(rng, range(n_obs), degree)}
    for i in range(n_sel):
        sel = n_obs + n_lat + i
        edges |= {(w, sel) for w in _pick(rng, range(n_obs), degree)}
    return sorted(edges)


def _motif(z, u, v, x, y, l1, l2):
    """The five-node deep link: x and y are separated only by {u, v, z},
    and z is adjacent to neither of them."""
    return {(z, u), (z, v), (u, y), (v, x), (l1, u), (l1, x), (l2, v), (l2, y)}


def draw_until(draw, limit=10000):
    for _ in range(limit):
        inst = draw()
        if inst is not None:
            return inst
    raise RuntimeError("no admissible input in %d draws" % limit)


def sparse_exact(seed, count=500):
    """Acceptance-corpus-like instances: n = 8..14, up to 3 latents and one
    selection variable, every tenth one with a planted deep link."""
    rng = random.Random("sparse_exact/%d" % seed)
    out = []
    for i in range(count):
        n_obs = 8 + i % 7
        n_lat = (i // 7) % 4
        n_sel = 1 if i % 4 == 3 else 0
        n_edges = round(n_obs * (0.6, 0.8, 1.0)[i % 3])
        if i % 10 == 9:
            def draw():
                z, u, v, x, y = rng.sample(range(n_obs), 5)
                lat = list(range(n_obs, n_obs + max(n_lat, 2)))
                edges = _motif(z, u, v, x, y, lat[0], lat[1])
                degree = [0] * n_obs
                for w, d in ((z, 2), (u, 3), (v, 3), (x, 2), (y, 2)):
                    degree[w] = d
                rest = [w for w in range(n_obs) if w not in (z, u, v, x, y)]
                edges |= _background(rng, rest + [z], n_edges - 4, degree)
                for extra in lat[2:]:
                    edges |= {(extra, w) for w in _pick(rng, rest, degree)}
                sel = [n_obs + len(lat) + j for j in range(n_sel)]
                for s in sel:
                    edges |= {(w, s) for w in _pick(rng, rest, degree)}
                return _finish("planted", n_obs, sorted(edges), lat, sel,
                               need_deep=1)
        else:
            def draw():
                edges = _draw_uniform(rng, n_obs, n_lat, n_sel, n_edges)
                return _finish("uniform", n_obs, edges,
                               range(n_obs, n_obs + n_lat),
                               range(n_obs + n_lat, n_obs + n_lat + n_sel))
        out.append(draw_until(draw))
    return out


def deep_links(seed, motif_counts=(4, 5, 6, 6, 6, 7, 8)):
    """Chains of five-node motifs, motif i's y feeding motif i+1's z, plus
    one extra latent confounder per two motifs joining x nodes of different
    motifs. Observed ids are shuffled so that id order says nothing about
    the structure. Every chain keeps one deep pair per motif."""
    rng = random.Random("deep_links/%d" % seed)
    out = []
    for m in motif_counts:
        n_obs = 5 * m

        def draw():
            perm = list(range(n_obs))
            rng.shuffle(perm)
            edges = set()
            xs = []
            prev_y = None
            for i in range(m):
                z, u, v, x, y = perm[5 * i:5 * i + 5]
                if rng.random() < 0.5:
                    x, y = y, x
                edges |= _motif(z, u, v, x, y, n_obs + 2 * i, n_obs + 2 * i + 1)
                if prev_y is not None:
                    edges.add((prev_y, z))
                prev_y = y
                xs.append(x)
            extra = n_obs + 2 * m
            latent = list(range(n_obs, extra))
            pool = list(range(m))
            rng.shuffle(pool)
            for a, b in zip(pool[0::2][:m // 2], pool[1::2]):
                edges |= {(extra, xs[a]), (extra, xs[b])}
                latent.append(extra)
                extra += 1
            return _finish("chain%d" % m, n_obs, sorted(edges), latent, [],
                           need_deep=m)
        out.append(draw_until(draw))
    return out


def gauss_sample(seed, count=96, n_samples=2000):
    """Linear-Gaussian data from random DAGs with n = 8..15 and 1..3
    latents, no selection. Returns (instance, data over the observed
    columns) pairs. Edge weights are drawn from +-[0.5, 1.0], noise is
    standard normal."""
    rng = random.Random("gauss_sample/%d" % seed)
    out = []
    for i in range(count):
        n_obs = 8 + i % 8
        n_lat = 1 + i % 3
        n_edges = round(n_obs * (0.9, 1.1)[i % 2])

        def draw():
            edges = _draw_uniform(rng, n_obs, n_lat, 0, n_edges)
            return _finish("gauss", n_obs, edges,
                           range(n_obs, n_obs + n_lat), [])
        inst = draw_until(draw)
        out.append((inst, simulate(inst, rng.randrange(2 ** 32), n_samples)))
    return out


def simulate(inst, seed, n_samples):
    gen = np.random.default_rng(seed)
    weights = {e: gen.uniform(0.5, 1.0) * gen.choice((-1.0, 1.0))
               for e in inst.edges}
    parents = {v: [] for v in range(inst.n)}
    for u, v in inst.edges:
        parents[v].append(u)
    values = np.empty((n_samples, inst.n))
    done = set()
    while len(done) < inst.n:
        for v in range(inst.n):
            if v in done or any(p not in done for p in parents[v]):
                continue
            col = gen.standard_normal(n_samples)
            for p in parents[v]:
                col += weights[(p, v)] * values[:, p]
            values[:, v] = col
            done.add(v)
    return values[:, :inst.n_obs].copy()
