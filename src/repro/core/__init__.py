"""The paper's primary contribution: parallel agglomerative community
detection — edge scoring, greedy maximal matching, graph contraction and
the driver loop tying them together."""

from repro.core.scoring import (
    EdgeScorer,
    ModularityScorer,
    ConductanceScorer,
    WeightScorer,
)
from repro.core.matching import (
    MatchingResult,
    match_locally_dominant,
    match_full_sweep,
    is_maximal_matching,
    matching_weight,
    approximation_certificate,
)
from repro.core.contraction import contract, contract_hash_chains
from repro.core.termination import TerminationCriteria
from repro.core.agglomeration import (
    AgglomerationResult,
    LevelStats,
    detect_communities,
)
from repro.core.engine import AgglomerationEngine, RunContext, ScoreKernel
from repro.core.registry import (
    KERNEL_KINDS,
    KernelInfo,
    create_kernel,
    kernel_catalog,
    kernel_names,
    register_kernel,
    unregister_kernel,
)
from repro.core.dendrogram import Dendrogram
from repro.core.refinement import refine_partition

__all__ = [
    "AgglomerationEngine",
    "RunContext",
    "ScoreKernel",
    "KERNEL_KINDS",
    "KernelInfo",
    "register_kernel",
    "unregister_kernel",
    "kernel_names",
    "kernel_catalog",
    "create_kernel",
    "EdgeScorer",
    "ModularityScorer",
    "ConductanceScorer",
    "WeightScorer",
    "MatchingResult",
    "match_locally_dominant",
    "match_full_sweep",
    "is_maximal_matching",
    "matching_weight",
    "approximation_certificate",
    "contract",
    "contract_hash_chains",
    "TerminationCriteria",
    "AgglomerationResult",
    "LevelStats",
    "detect_communities",
    "Dendrogram",
    "refine_partition",
]
