"""random_sparse_dag: pinned draws and its early-rejection degree bound.

The digests were computed on the generator before it rejected draws by the
bound, so they also show that the bound changes no accepted draw, no
rejection count and no acceptance-corpus instance. A change that is meant
to alter the draws updates them and says why in CHANGES.md.
"""

import hashlib
import random

import pytest

from fciplus import (
    ARROW, CausalDag, GenerationError, GraphError, bidirected_chain,
    latent_project, random_sparse_dag,
)
from fciplus.generators import (
    _planted_draw, _surviving_degrees, _uniform_draw,
)

SCHEDULE_DIGEST = (
    "fd8b749d3fc44ab3bec1b011035d8478419011b6d063950fef1a0506fbb3a17e")
CORPUS_DIGEST = (
    "de98af0e5f9ca587e2c675d5236cc687c9d1ac47d1b3ff1198d1a7d366ffc28f")


def draw_schedule():
    """random_sparse_dag arguments over n = 8..20 with 0-3 latents and 0-1
    selection variables, plain and planted, at the benchmark's densities
    (1.2/n plain, 0.8/n planted) and the corpus's (0.12, 0.18 or 0.25
    plain, 0.08 planted, 250 tries)."""
    for n in range(8, 21):
        for nl in range(4):
            base = dict(n_observed=n, k=3, n_latent=nl,
                        n_selection=(n + nl) % 2)
            seed = 100 * n + 10 * nl
            yield dict(base, edge_density=1.2 / n, seed=seed)
            yield dict(base, edge_density=(0.12, 0.18, 0.25)[(n + nl) % 3],
                       seed=seed + 1, max_tries=250)
            if nl >= 2:
                yield dict(base, edge_density=0.8 / n, plant_dsep=True,
                           seed=seed + 2)
                yield dict(base, edge_density=0.08, plant_dsep=True,
                           seed=seed + 3, max_tries=250)


def draw_outcome(params):
    """The drawn DAG as JSON, or the error that exhausted the tries (its
    message carries the rejection counts)."""
    try:
        return random_sparse_dag(**params).to_json()
    except GenerationError as exc:
        return "GenerationError: %s" % exc


def test_schedule_draws_are_pinned():
    lines = [draw_outcome(p) for p in draw_schedule()]
    assert sum(line.startswith("GenerationError") for line in lines) == 17
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == SCHEDULE_DIGEST


def test_acceptance_corpus_is_pinned(corpus):
    text = "".join("%d%s" % (inst.seed, inst.dag.to_json())
                   for inst in corpus)
    assert hashlib.sha256(text.encode()).hexdigest() == CORPUS_DIGEST


def raw_draws(count):
    """`count` raw draws, all with latents and a selection variable: plain
    ones dense enough that many exceed k=3, and planted ones."""
    rng = random.Random(2024)
    reasons = {"latent_pool": 0, "selection_pool": 0}
    out = []
    while len(out) < count:
        n = rng.randrange(8, 17)
        nl = rng.randrange(1, 4)
        if len(out) % 2:
            parts = _planted_draw(rng, n, max(nl, 2), 1, 0.8 / n)
        else:
            parts = _uniform_draw(rng, n + nl + 1, n, nl, 1,
                                  rng.choice((1.2 / n, 0.18, 0.25)), reasons)
        if parts is not None:
            out.append(parts)
    return out


def test_bound_never_exceeds_projected_degree():
    caught = over = 0
    for parts in raw_draws(500):
        bound = _surviving_degrees(*parts)
        mag = latent_project(CausalDag(*parts))
        observed = sorted(parts[2])
        assert sorted(bound) == observed
        for i, v in enumerate(observed):
            assert bound[v] <= len(mag.adj(i))
        if mag.max_degree() > 3:
            over += 1
            caught += max(bound.values()) > 3
    # the schedule must exercise rejection, and the bound must do most of it
    assert over >= 100
    assert caught >= over * 3 // 4


# observed 0..3, latent 4, selection 5: in each DAG node 0's three
# neighbours all come from one source
SOURCES = {
    "observed edge": [(0, 1), (0, 2), (3, 0)],
    "latent fork": [(4, 0), (4, 1), (4, 2), (4, 3)],
    "selection collider": [(0, 5), (1, 5), (2, 5), (3, 5)],
}


@pytest.mark.parametrize("source", sorted(SOURCES))
def test_each_source_alone_pushes_a_node_over_k(source):
    k = 2
    parts = (6, SOURCES[source], [0, 1, 2, 3], [4], [5])
    assert _surviving_degrees(*parts)[0] == 3 > k
    assert len(latent_project(CausalDag(*parts)).adj(0)) == 3


@pytest.mark.parametrize("length", [2, 3, 7])
def test_bidirected_chain_projects_to_the_chain(length):
    dag = bidirected_chain(length)
    assert (len(dag.observed), len(dag.latent)) == (length, length - 1)
    mag = latent_project(dag)
    assert mag.edges() == [(i, i + 1, ARROW, ARROW)
                           for i in range(length - 1)]


def test_bidirected_chain_needs_two_nodes():
    with pytest.raises(GraphError):
        bidirected_chain(1)
