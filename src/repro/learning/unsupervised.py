"""Unsupervised learning stage: building the CS component of the SST.

Follows the three steps the paper spells out:

1. run MOGA on the *whole* training batch to find its top sparse subspaces
   (these capture globally sparse regions and are kept as CS candidates);
2. cluster the training data with the lead clustering method under several
   data orders and compute each point's overall outlying degree;
3. run MOGA again with the *top outlying points* as the optimisation targets —
   their top sparse subspaces become the Clustering-based SST Subspaces (CS).

The learner is a pure function of (training batch, grid, config, seed): it
does not touch the online synapse store, so it can be unit-tested and reused
by the self-evolution machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..clustering import compute_outlying_degrees
from ..core.config import SPOTConfig
from ..core.exceptions import ConfigurationError
from ..core.grid import Grid
from ..core.subspace import Subspace
from ..moga import (
    combine_footprints,
    make_sparsity_objectives,
    rank_sparse_subspaces,
)


@dataclass(frozen=True)
class UnsupervisedLearningResult:
    """Everything the unsupervised stage produced.

    Attributes
    ----------
    clustering_subspaces:
        The CS candidates: (subspace, sparsity score) pairs, sparsest first.
    outlying_degrees:
        The OD value of every training point (aligned with the batch).
    top_outlying_indices:
        Indices of the training points whose sparse subspaces were searched.
    global_subspaces:
        The whole-batch sparse subspaces found in step 1 (kept for
        diagnostics and for the ablation benchmarks).
    """

    clustering_subspaces: Tuple[Tuple[Subspace, float], ...]
    outlying_degrees: Tuple[float, ...]
    top_outlying_indices: Tuple[int, ...]
    global_subspaces: Tuple[Tuple[Subspace, float], ...]


class UnsupervisedLearner:
    """Implements the unsupervised learning process of SPOT's learning stage.

    The MOGA objective implementation follows ``config.engine``: the
    ``"vectorized"`` detector scores candidate populations with
    :class:`~repro.moga.batch_objectives.BatchSparsityObjectives` (fused
    NumPy passes) while ``"python"`` keeps the reference loops; both yield
    the same CS subspaces given the same seed.
    """

    def __init__(self, config: SPOTConfig, grid: Grid) -> None:
        self._config = config
        self._grid = grid
        self._last_memory: Dict[str, int] = {}

    @property
    def last_memory_footprint(self) -> Dict[str, int]:
        """Objective memo / training-batch memory of the most recent run."""
        return dict(self._last_memory)

    def learn(self, training_data: Sequence[Sequence[float]]
              ) -> UnsupervisedLearningResult:
        """Run the full unsupervised pipeline on an in-memory training batch."""
        if not training_data:
            raise ConfigurationError("training_data must not be empty")
        config = self._config
        moga_params = dict(
            top_k=config.cs_size,
            population_size=config.moga_population,
            generations=config.moga_generations,
            mutation_rate=config.moga_mutation_rate,
            crossover_rate=config.moga_crossover_rate,
            max_dimension=config.moga_max_dimension,
        )

        # Step 1 — whole-batch MOGA: globally sparse subspaces.
        global_objectives = make_sparsity_objectives(
            training_data, self._grid, engine=config.engine)
        global_subspaces = rank_sparse_subspaces(
            global_objectives, seed=config.random_seed, **moga_params)

        # Step 2 — outlying degree of every training point by lead clustering
        # under several data orders.
        od_result = compute_outlying_degrees(
            training_data,
            n_runs=config.clustering_runs,
            distance_fraction=config.clustering_distance_fraction,
            seed=config.random_seed,
        )
        top_indices = od_result.top_fraction_indices(config.top_outlying_fraction)
        top_points = [training_data[i] for i in top_indices]

        # Step 3 — MOGA targeted at the most outlying points; seeded with the
        # globally sparse subspaces so the two searches supplement each other.
        targeted_objectives = make_sparsity_objectives(
            training_data, self._grid, engine=config.engine,
            target_points=top_points)
        targeted_subspaces = rank_sparse_subspaces(
            targeted_objectives, seed=config.random_seed + 1,
            seeds=[subspace for subspace, _ in global_subspaces],
            **moga_params)

        self._last_memory = combine_footprints(
            global_objectives.memory_footprint(),
            targeted_objectives.memory_footprint())

        clustering_subspaces = _merge_ranked(
            targeted_subspaces, global_subspaces, capacity=config.cs_size
        )

        return UnsupervisedLearningResult(
            clustering_subspaces=tuple(clustering_subspaces),
            outlying_degrees=od_result.degrees,
            top_outlying_indices=tuple(top_indices),
            global_subspaces=tuple(global_subspaces),
        )


def _merge_ranked(primary: Sequence[Tuple[Subspace, float]],
                  secondary: Sequence[Tuple[Subspace, float]],
                  *, capacity: int) -> List[Tuple[Subspace, float]]:
    """Merge two ranked subspace lists, primary first, deduplicated, capped."""
    merged: List[Tuple[Subspace, float]] = []
    seen = set()
    for ranked in (primary, secondary):
        for subspace, score in ranked:
            if subspace in seen:
                continue
            seen.add(subspace)
            merged.append((subspace, score))
    merged.sort(key=lambda item: item[1])
    return merged[:capacity]
