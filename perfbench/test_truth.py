"""Tests of the benchmark's own truths against brute force from the
definitions (path enumeration, subset search, explicit matrix algebra).

    python3 -m pytest perfbench
"""

from itertools import combinations
import random

import numpy as np
import pytest

import inputs
from truth import Truth, bits, fisher_z_margin, mask_of
from workloads import marks_correct


def random_dag(rng, n, p):
    order = list(range(n))
    rng.shuffle(order)
    return [(order[i], order[j]) for i in range(n) for j in range(i + 1, n)
            if rng.random() < p]


def brute_ancestors(n, edges, v):
    out = {v}
    changed = True
    while changed:
        changed = False
        for a, b in edges:
            if b in out and a not in out:
                out.add(a)
                changed = True
    return out


def brute_dsep(n, edges, x, y, z):
    """Every simple path has a noncollider in z or a collider with no
    descendant in z."""
    adj = {v: set() for v in range(n)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    desc = {v: {w for w in range(n) if v in brute_ancestors(n, edges, w)}
            for v in range(n)}
    stack = [(x,)]
    while stack:
        path = stack.pop()
        for w in adj[path[-1]]:
            if w in path:
                continue
            if w != y:
                stack.append(path + (w,))
                continue
            full = path + (w,)
            blocked = False
            for a, b, c in zip(full, full[1:], full[2:]):
                if (a, b) in edges and (c, b) in edges:
                    blocked = not desc[b] & z
                else:
                    blocked = b in z
                if blocked:
                    break
            if not blocked:
                return False
    return True


@pytest.mark.parametrize("seed", range(12))
def test_d_separation_matches_path_enumeration(seed):
    rng = random.Random(seed)
    n = 7
    edges = set(random_dag(rng, n, 0.35))
    t = Truth(n, edges, range(n))
    for x, y in combinations(range(n), 2):
        rest = [v for v in range(n) if v not in (x, y)]
        for r in range(3):
            for zs in combinations(rest, r):
                assert t.d_separated(x, y, mask_of(zs)) == \
                    brute_dsep(n, edges, x, y, set(zs)), (x, y, zs)


@pytest.mark.parametrize("seed", range(6))
def test_ancestry_matches_closure(seed):
    rng = random.Random(seed)
    n = 9
    edges = random_dag(rng, n, 0.3)
    t = Truth(n, edges, range(n))
    for v in range(n):
        assert set(bits(t.an[v])) == brute_ancestors(n, edges, v)


def test_cycle_rejected():
    with pytest.raises(ValueError):
        Truth(3, [(0, 1), (1, 2), (2, 0)], range(3))


@pytest.mark.parametrize("seed", range(10))
def test_projected_adjacency_matches_subset_search(seed):
    """Adjacent iff no subset of the other observed nodes, with the
    selection set, separates the pair."""
    rng = random.Random(100 + seed)
    n = 8
    edges = random_dag(rng, n, 0.3)
    latent = rng.sample(range(n), 2)
    sinks = [v for v in range(n) if v not in latent
             and not any(a == v for a, _ in edges)]
    selection = sinks[:1] if seed % 2 else []
    observed = [v for v in range(n) if v not in latent and v not in selection]
    t = Truth(n, edges, observed, selection)
    want = []
    for i, j in combinations(range(len(observed)), 2):
        rest = [observed[w] for w in range(len(observed)) if w not in (i, j)]
        if not any(t.separated_given(observed[i], observed[j], zs)
                   for r in range(len(rest) + 1)
                   for zs in combinations(rest, r)):
            want.append((i, j))
    assert t.projected_pairs() == want


def test_five_node_motif_is_a_deep_pair():
    z, u, v, x, y, l1, l2 = range(7)
    t = Truth(7, inputs._motif(z, u, v, x, y, l1, l2), range(5))
    pairs = t.projected_pairs()
    assert (x, y) not in pairs and (min(z, x), max(z, x)) not in pairs
    assert t.deep_pairs(pairs) == [(x, y)]
    assert t.separated_given(x, y, [u, v, z])


def test_unsound_marks():
    t = Truth(3, [(0, 1), (2, 1)], range(3))
    assert t.unsound_marks([(0, 1, "tail", "arrow"), (1, 2, "arrow", "tail")]) == []
    assert t.unsound_marks([(0, 1, "arrow", "circle")]) == [(0, 1, "arrow")]
    assert t.unsound_marks([(0, 1, "circle", "tail")]) == [(1, 0, "tail")]


def test_fisher_z_matches_precision_matrix():
    gen = np.random.default_rng(3)
    n = 500
    a = gen.standard_normal(n)
    b = 0.8 * a + gen.standard_normal(n)
    c = 0.8 * b + gen.standard_normal(n)
    d = gen.standard_normal(n)
    data = np.column_stack([a, b, c, d])
    crit = 2.5758293035489004   # two-sided normal quantile at alpha = 0.01
    for x, y, zs in ((0, 2, [1]), (0, 2, []), (0, 3, [1, 2]), (1, 2, [0])):
        idx = [x, y] + zs
        prec = np.linalg.inv(np.cov(data[:, idx], rowvar=False))
        rho = -prec[0, 1] / np.sqrt(prec[0, 0] * prec[1, 1])
        stat = np.sqrt(n - len(zs) - 3) * abs(np.arctanh(rho))
        assert fisher_z_margin(data, x, y, zs, 0.01) == pytest.approx(crit - stat)
    assert fisher_z_margin(data, 0, 2, [1], 0.01) > 0      # a _||_ c | b
    assert fisher_z_margin(data, 0, 2, [], 0.01) < 0       # a, c dependent


def test_inputs_repeat_per_seed_and_keep_their_shape():
    a = inputs.deep_links(5, motif_counts=(4, 5))
    b = inputs.deep_links(5, motif_counts=(4, 5))
    assert [i.edges for i in a] == [i.edges for i in b]
    for inst in a:
        m = inst.n_obs // 5
        assert len(inst.truth.deep_pairs(inst.pairs)) >= m
        degree = [0] * inst.n_obs
        for p, q in inst.pairs:
            degree[p] += 1
            degree[q] += 1
        assert max(degree) <= inputs.K
    c = inputs.sparse_exact(5, count=20)
    assert [i.edges for i in c] != [i.edges for i in inputs.sparse_exact(6, count=20)]
    assert sum(i.label == "planted" for i in c) == 2


def test_marks_correct_counts_shared_edges_only():
    ref = [(0, 1, "tail", "arrow"), (1, 2, "circle", "arrow")]
    got = [(0, 1, "circle", "arrow"), (0, 2, "arrow", "arrow"),
           (1, 2, "circle", "arrow")]
    assert marks_correct(got, ref) == 3
