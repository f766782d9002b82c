"""Shared fixtures: the generated acceptance corpus and its pipeline runs.

Corpus construction is deterministic (fixed seed schedule), so every session
sees the same instances. The heavy fixtures are session-scoped and only
built when a test actually asks for them.
"""

import random

import pytest

from fciplus import (
    DsepOracle, GenerationError, has_dsep_link, latent_project,
    random_sparse_dag, run_pipeline,
)

CORPUS_SIZE = 500
PLANTED_SHARE = 40  # instances generated with the planted motif
CORPUS_K = 3


class Instance:
    def __init__(self, seed, dag, params, planted):
        self.seed = seed
        self.dag = dag
        self.params = params
        self.planted = planted
        self.n = len(dag.observed)
        self.mag = latent_project(dag)
        self.has_dsep = has_dsep_link(dag)


def _plain_param_schedule():
    sizes = [8, 9, 10, 11, 12, 13, 14]
    latents = [0, 1, 2, 3]
    selections = [0, 0, 0, 1]
    densities = [0.12, 0.18, 0.25]
    i = 0
    while True:
        yield (sizes[i % len(sizes)], latents[(i // 3) % len(latents)],
               selections[i % len(selections)], densities[i % len(densities)])
        i += 1


def build_corpus():
    instances = []
    schedule = _plain_param_schedule()
    seed = 0
    while len(instances) < CORPUS_SIZE - PLANTED_SHARE:
        n, nl, ns, dens = next(schedule)
        seed += 1
        try:
            dag = random_sparse_dag(n, CORPUS_K, nl, ns, dens, seed=seed,
                                    max_tries=250)
        except GenerationError:
            continue
        instances.append(Instance(seed, dag, (n, nl, ns, dens), False))
    rng = random.Random(424242)
    planted_seed = 10 ** 6
    while len(instances) < CORPUS_SIZE:
        n = rng.choice([8, 9, 10, 11, 12, 13, 14])
        nl = rng.choice([2, 3])
        ns = rng.choice([0, 0, 0, 1])
        planted_seed += 1
        try:
            dag = random_sparse_dag(n, CORPUS_K, nl, ns, 0.08,
                                    seed=planted_seed, max_tries=250,
                                    plant_dsep=True)
        except GenerationError:
            continue
        instances.append(Instance(planted_seed, dag, (n, nl, ns, 0.08), True))
    return instances


class RunBundle:
    def __init__(self, instance):
        self.instance = instance
        self.oracles = (DsepOracle(instance.dag), DsepOracle(instance.dag))
        self.fciplus = run_pipeline("fciplus", self.oracles[0],
                                    k=CORPUS_K, seed=instance.seed)
        self.fci = run_pipeline("fci", self.oracles[1],
                                k=CORPUS_K, seed=instance.seed,
                                with_checks=False)


@pytest.fixture(scope="session")
def corpus():
    return build_corpus()


@pytest.fixture(scope="session")
def corpus_runs(corpus):
    return [RunBundle(inst) for inst in corpus]


@pytest.fixture(scope="session")
def micro_catalog():
    from .brute import build_mag_catalog
    return build_mag_catalog(4)


@pytest.fixture(scope="session")
def mag_catalogs(micro_catalog):
    from .brute import build_mag_catalog
    return {2: build_mag_catalog(2), 3: build_mag_catalog(3),
            4: micro_catalog}
