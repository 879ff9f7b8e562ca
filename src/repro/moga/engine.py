"""The Multi-Objective Genetic Algorithm engine.

Ties the chromosome encoding, the sparsity objectives, the genetic operators
and the NSGA-II ranking together into the search procedure SPOT uses wherever
the paper says "MOGA is applied": whole-batch unsupervised learning, per-point
sparse-subspace search for CS and OS construction, and the online search run
on newly detected outliers.

The engine is deliberately small and deterministic given its seed; the
benchmark ``A4`` compares its output against an exhaustive enumeration of the
lattice on small instances to quantify how much of the true top-k it recovers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.exceptions import ConfigurationError
from ..core.subspace import Subspace
from .batch_objectives import make_sparsity_objectives
from .chromosome import Chromosome, unique_chromosomes
from .nsga2 import crowded_comparison_rank, select_survivors
from .objectives import SparsityObjectives
from .operators import binary_tournament, make_offspring


@dataclass(frozen=True)
class MOGAResult:
    """Outcome of one MOGA run.

    Attributes
    ----------
    pareto_front:
        The non-dominated subspaces of the final population with their
        objective vectors, ordered by crowded comparison (best first).
    evaluations:
        Number of distinct subspaces whose objectives were computed — the
        quantity the paper contrasts against exhaustive lattice search.
    generations_run:
        Number of generations actually executed.
    """

    pareto_front: Tuple[Tuple[Subspace, Tuple[float, ...]], ...]
    evaluations: int
    generations_run: int

    def top_subspaces(self, k: int,
                      score: Optional[Callable[[Tuple[float, ...]], float]] = None
                      ) -> List[Tuple[Subspace, float]]:
        """The ``k`` best subspaces of the front with a scalar score each.

        ``score`` converts an objective vector into a scalar (lower is
        better); by default the Relative Density component is used, which is
        the dominant sparsity signal.
        """
        if score is None:
            score = lambda objectives: objectives[0]  # noqa: E731
        ranked = sorted(
            ((subspace, score(objectives))
             for subspace, objectives in self.pareto_front),
            key=lambda item: item[1],
        )
        return ranked[:k]


class MOGAEngine:
    """NSGA-II search for sparse subspaces.

    Parameters
    ----------
    objectives:
        The sparsity objectives to minimise.
    population_size / generations:
        Search budget.
    mutation_rate / crossover_rate:
        Operator rates (see :mod:`repro.moga.operators`).
    max_dimension:
        Largest subspace cardinality the search may propose.
    seed:
        RNG seed; two engines with identical inputs and seeds return
        identical results.
    seeds:
        Optional subspaces injected into the initial population (e.g. the
        current CS during self-evolution).
    """

    def __init__(self,
                 objectives: SparsityObjectives,
                 *,
                 population_size: int = 40,
                 generations: int = 25,
                 mutation_rate: float = 0.05,
                 crossover_rate: float = 0.9,
                 max_dimension: int = 4,
                 seed: int = 0,
                 seeds: Optional[Sequence[Subspace]] = None) -> None:
        if population_size < 4:
            raise ConfigurationError("population_size must be at least 4")
        if generations < 1:
            raise ConfigurationError("generations must be at least 1")
        if max_dimension < 1:
            raise ConfigurationError("max_dimension must be at least 1")
        self._objectives = objectives
        self._population_size = population_size
        self._generations = generations
        self._mutation_rate = mutation_rate
        self._crossover_rate = crossover_rate
        self._max_dimension = min(max_dimension, objectives.phi)
        self._rng = random.Random(seed)
        self._seed_subspaces = list(seeds) if seeds else []
        self._decoded: Dict[Tuple[bool, ...], Subspace] = {}

    # ------------------------------------------------------------------ #
    def _initial_population(self) -> List[Chromosome]:
        population: List[Chromosome] = []
        for subspace in self._seed_subspaces:
            chromosome = Chromosome.from_subspace(subspace, self._objectives.phi)
            population.append(chromosome.repaired(self._max_dimension, self._rng))
        while len(population) < self._population_size:
            population.append(
                Chromosome.random(self._objectives.phi, self._max_dimension,
                                  self._rng)
            )
        return unique_chromosomes(population)[: self._population_size]

    def _evaluate(self, population: Sequence[Chromosome]
                  ) -> List[Tuple[float, ...]]:
        # A gene string is decoded once per run: survivors and repeated
        # offspring come back every generation.
        decoded = self._decoded
        subspaces: List[Subspace] = []
        for chromosome in population:
            subspace = decoded.get(chromosome.genes)
            if subspace is None:
                subspace = decoded[chromosome.genes] = chromosome.to_subspace()
            subspaces.append(subspace)
        return self._objectives.evaluate_population(subspaces)

    def _breed(self, population: Sequence[Chromosome],
               ranks: Sequence[Tuple[int, float]]) -> List[Chromosome]:
        rank_of: Dict[Tuple[bool, ...], Tuple[int, float]] = {
            ch.genes: ranks[i] for i, ch in enumerate(population)
        }

        def better(a: Chromosome, b: Chromosome) -> Chromosome:
            return a if rank_of[a.genes] <= rank_of[b.genes] else b

        offspring: List[Chromosome] = []
        while len(offspring) < self._population_size:
            parent_a = binary_tournament(population, better, self._rng)
            parent_b = binary_tournament(population, better, self._rng)
            child_a, child_b = make_offspring(
                parent_a, parent_b, self._rng,
                crossover_rate=self._crossover_rate,
                mutation_rate=self._mutation_rate,
                max_dimension=self._max_dimension,
            )
            offspring.append(child_a)
            offspring.append(child_b)
        return offspring[: self._population_size]

    # ------------------------------------------------------------------ #
    def run(self) -> MOGAResult:
        """Execute the search and return the final Pareto front."""
        population = self._initial_population()
        generations_run = 0

        for _ in range(self._generations):
            generations_run += 1
            objectives = self._evaluate(population)
            ranks = crowded_comparison_rank(objectives)
            offspring = self._breed(population, ranks)

            combined = unique_chromosomes(list(population) + offspring)
            combined_objectives = self._evaluate(combined)
            survivor_indices = select_survivors(combined_objectives,
                                                self._population_size)
            population = [combined[i] for i in survivor_indices]

        final_objectives = self._evaluate(population)
        ranks = crowded_comparison_rank(final_objectives)
        order = sorted(range(len(population)), key=lambda i: ranks[i])
        front = tuple(
            (self._decoded[population[i].genes], final_objectives[i])
            for i in order
            if ranks[i][0] == 0
        )
        return MOGAResult(
            pareto_front=front,
            evaluations=self._objectives.evaluations,
            generations_run=generations_run,
        )


def rank_sparse_subspaces(objectives,
                          *,
                          top_k: int = 10,
                          population_size: int = 40,
                          generations: int = 25,
                          mutation_rate: float = 0.05,
                          crossover_rate: float = 0.9,
                          max_dimension: int = 4,
                          seed: int = 0,
                          seeds: Optional[Sequence[Subspace]] = None
                          ) -> List[Tuple[Subspace, float]]:
    """Run MOGA over pre-built objectives and rank its evaluation archive.

    Callers that need the objectives afterwards (memo statistics, extra
    scoring) build them with
    :func:`~repro.moga.batch_objectives.make_sparsity_objectives` and call
    this; :func:`find_sparse_subspaces` wraps both steps.
    """
    engine = MOGAEngine(
        objectives,
        population_size=population_size,
        generations=generations,
        mutation_rate=mutation_rate,
        crossover_rate=crossover_rate,
        max_dimension=max_dimension,
        seed=seed,
        seeds=seeds,
    )
    engine.run()
    # Rank the whole archive of evaluated subspaces, not just the final
    # Pareto front: the "top sparse subspaces" are the best the search budget
    # has seen anywhere along the way.
    scored = [
        (subspace, objectives.sparsity_score(subspace))
        for subspace in objectives.evaluated_subspaces()
    ]
    scored.sort(key=lambda item: item[1])
    return scored[:top_k]


def find_sparse_subspaces(training_data: Sequence[Sequence[float]],
                          grid,
                          *,
                          target_points: Optional[Sequence[Sequence[float]]] = None,
                          top_k: int = 10,
                          population_size: int = 40,
                          generations: int = 25,
                          mutation_rate: float = 0.05,
                          crossover_rate: float = 0.9,
                          max_dimension: int = 4,
                          seed: int = 0,
                          seeds: Optional[Sequence[Subspace]] = None,
                          engine: str = "vectorized"
                          ) -> List[Tuple[Subspace, float]]:
    """Convenience wrapper: run MOGA and return the top-k sparse subspaces.

    Returns (subspace, sparsity score) pairs, sparsest first, where the score
    is :meth:`SparsityObjectives.sparsity_score` so it is comparable across
    runs and usable directly as an SST ranking score.  ``engine`` picks the
    objective implementation (``"python"`` reference loops or
    ``"vectorized"`` batch kernels — same seeds give the same subspaces and
    scores on either, see ``tests/test_moga_parity.py``).
    """
    objectives = make_sparsity_objectives(training_data, grid, engine=engine,
                                          target_points=target_points)
    return rank_sparse_subspaces(
        objectives,
        top_k=top_k,
        population_size=population_size,
        generations=generations,
        mutation_rate=mutation_rate,
        crossover_rate=crossover_rate,
        max_dimension=max_dimension,
        seed=seed,
        seeds=seeds,
    )
