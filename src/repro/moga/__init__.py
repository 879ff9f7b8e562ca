"""Multi-Objective Genetic Algorithm for sparse-subspace search."""

from .batch_objectives import BatchSparsityObjectives, make_sparsity_objectives
from .chromosome import Chromosome, unique_chromosomes
from .engine import (
    MOGAEngine,
    MOGAResult,
    find_sparse_subspaces,
    rank_sparse_subspaces,
)
from .nsga2 import (
    crowded_comparison_rank,
    crowding_distance,
    fast_non_dominated_sort,
    select_survivors,
)
from .objectives import (
    ObjectiveMemo,
    ObjectiveMemoView,
    SparsityObjectives,
    combine_footprints,
    dominates,
    memo_cache_bytes,
    score_objective_vector,
)
from .operators import (
    binary_tournament,
    bit_flip_mutation,
    make_offspring,
    one_point_crossover,
    uniform_crossover,
)

__all__ = [
    "BatchSparsityObjectives",
    "ObjectiveMemo",
    "ObjectiveMemoView",
    "make_sparsity_objectives",
    "Chromosome",
    "unique_chromosomes",
    "MOGAEngine",
    "MOGAResult",
    "find_sparse_subspaces",
    "rank_sparse_subspaces",
    "crowded_comparison_rank",
    "crowding_distance",
    "fast_non_dominated_sort",
    "select_survivors",
    "SparsityObjectives",
    "combine_footprints",
    "dominates",
    "memo_cache_bytes",
    "score_objective_vector",
    "binary_tournament",
    "bit_flip_mutation",
    "make_offspring",
    "one_point_crossover",
    "uniform_crossover",
]
