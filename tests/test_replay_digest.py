"""Pinned replay digest: a change to any pipeline output fails here.

The digest is the sha256 of the `replay_key()` lines of pc, fci and fciplus,
with the embedded checks, over the canonical examples and 24 seeded
`random_sparse_dag` draws, half of them with the planted motif. A change
that is meant to alter outputs updates REPLAY_DIGEST and says why in
CHANGES.md; a refactor leaves it alone.
"""

import hashlib

from fciplus import (
    DsepOracle, canonical_examples, random_sparse_dag, run_pipeline,
)

REPLAY_DIGEST = "7c8fd1c039be341c9a1da19431f5af46ab3b1916821e52a2b2e05b8b9f8b4aa6"


def replay_inputs():
    """(dag, k) pairs: the canonical examples, then alternately a plain and
    a planted draw for each of 12 seeds."""
    for _name, ex in sorted(canonical_examples().items()):
        yield ex.dag, ex.k
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
