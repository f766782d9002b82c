"""Constraint-based causal discovery under latent confounding and selection
bias, with a query-efficient search for separating sets that need nodes
nonadjacent to both endpoints, plus the reference algorithms to verify it."""

from .graphs import (
    ARROW, CIRCLE, TAIL,
    CausalDag, GraphError, MixedGraph, ModelViolationError,
    d_separated, latent_project,
)
from .oracles import (
    ALGORITHM_STAGES, DsepOracle, GaussOracle, IndependenceOracle, OracleError,
)
from .sepsets import SepsetMap, hie
from .pc import pc_adjacency_search
from .dsep_search import dsep_search, find_possible_dsep_links, minimal_dsep
from .orientation import apply_fci_rules, orient_v_structures
from .reference import fci_reference, possible_dsep
from .generators import (
    GenerationError, bidirected_chain, has_dsep_link, random_sparse_dag,
)
from .pipelines import run_pipeline
from .report import RunReport, compare_runs

__version__ = "0.1.0"
