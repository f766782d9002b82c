"""Pinned replay digests: a change to any pipeline output fails here.

REPLAY_DIGEST is the sha256 of the `replay_key()` lines of pc, fci and
fciplus, with the embedded checks, over the worked examples and 24 seeded
`random_sparse_dag` draws, half of them with the planted motif.
SAMPLE_DIGEST is the same over GaussOracle runs on seeded linear-Gaussian
datasets, one of them with an exactly collinear column pair, so the Fisher z
answers and the count of degenerate tests are pinned too. A change that is
meant to alter outputs updates a digest and says why in CHANGES.md; a
refactor leaves both alone.
"""

import hashlib

import numpy as np

from fciplus import (
    DsepOracle, GaussOracle, ModelViolationError, random_sparse_dag,
    run_pipeline,
)

from .examples import EXAMPLES

REPLAY_DIGEST = "33e485c9782643a5434bff3c3987b9a210f8735d90e10c083c2517db9c6e8e32"
SAMPLE_DIGEST = "233f98b0827411798d66c42a3c38e4c1d62cc985647f85a50739942b62696463"
SAMPLE_ALPHA = 0.01


def replay_inputs():
    """(dag, k) pairs: the worked examples, then alternately a plain and
    a planted draw for each of 12 seeds."""
    for _name, (dag, k, _) in sorted(EXAMPLES.items()):
        yield dag, k
    for seed in range(12):
        n = 8 + seed % 5
        yield random_sparse_dag(n, 3, seed % 4, 1 if seed % 4 == 3 else 0,
                                0.25, seed=seed), 3
        yield random_sparse_dag(n, 3, 2 + seed % 2, 1 if seed % 3 == 2 else 0,
                                0.08, seed=1000 + seed, plant_dsep=True), 3


def replay_digest():
    h = hashlib.sha256()
    for dag, k in replay_inputs():
        for algorithm in ("pc", "fci", "fciplus"):
            report = run_pipeline(algorithm, DsepOracle(dag), k=k)
            h.update(report.replay_key().encode() + b"\n")
    return h.hexdigest()


def test_replay_digest_is_pinned():
    assert replay_digest() == REPLAY_DIGEST


def sample_inputs():
    """Six linear-Gaussian datasets of 2,000 rows over 8..12 observed
    variables. Each is drawn from a random DAG whose first two variables
    are dropped as latent confounders; the last dataset overwrites its
    fourth column with twice its first."""
    for seed in range(6):
        rng = np.random.default_rng(seed)
        n = 2 + 8 + seed % 5
        weights = np.triu(rng.uniform(0.5, 1.0, (n, n))
                          * rng.choice((-1.0, 1.0), (n, n))
                          * (rng.random((n, n)) < 2.5 / n), 1)
        values = rng.standard_normal((2000, n))
        for j in range(n):
            values[:, j] += values[:, :j] @ weights[:j, j]
        data = values[:, 2:]
        if seed == 5:
            data[:, 3] = 2 * data[:, 0]
        yield data


def sample_digest():
    h = hashlib.sha256()
    for data in sample_inputs():
        for algorithm in ("pc", "fci", "fciplus"):
            oracle = GaussOracle(data, alpha=SAMPLE_ALPHA)
            try:
                line = run_pipeline(algorithm, oracle, k=3).replay_key()
            except ModelViolationError as exc:
                line = "%s: %s; test_errors %d" % (
                    algorithm, exc, oracle.n_test_errors)
            h.update(line.encode() + b"\n")
    return h.hexdigest()


def test_sample_replay_digest_is_pinned():
    assert sample_digest() == SAMPLE_DIGEST
