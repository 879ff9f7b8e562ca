"""NSGA-II machinery: fast non-dominated sorting and crowding distance.

The multi-objective GA in SPOT needs a way to rank a population against
several sparsity objectives at once.  This module implements the two ranking
primitives of Deb et al.'s NSGA-II ("A fast and elitist multiobjective genetic
algorithm: NSGA-II", IEEE TEC 6(2), 2002), which the engine combines with the
operators from :mod:`repro.moga.operators`:

* :func:`fast_non_dominated_sort` partitions a population into Pareto fronts;
* :func:`crowding_distance` spreads selection pressure along each front so the
  search keeps a diverse set of trade-offs between density, deviation and
  subspace dimension.

Dominance is computed in one array pass: one ``>`` and one ``<`` comparison
per objective column build the population's ``(N, N)`` "worse somewhere" and
"better somewhere" matrices, and ``i`` dominates ``j`` when it is better
somewhere and worse nowhere.  That is the test
:func:`~repro.moga.objectives.dominates` runs on one pair, so a NaN component
compares as equal exactly as it does there.  Fronts are then peeled from the
domination counts in Python, which keeps their member order (and with it
every crowding tie-break) that of the textbook pairwise loop.  That loop
lives on as the oracle in ``tests/test_moga_nsga2.py``.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from ..core.exceptions import ConfigurationError

ObjectiveVector = Tuple[float, ...]


def _iter_fronts(objectives: Sequence[ObjectiveVector]) -> Iterator[List[int]]:
    """Yield the Pareto fronts of ``objectives``, best first, lazily."""
    n = len(objectives)
    if n == 0:
        return
    try:
        values = np.asarray(objectives, dtype=np.float64)
    except ValueError as exc:
        raise ConfigurationError(
            f"objective vectors differ in length: {exc}") from exc
    if values.ndim != 2:
        raise ConfigurationError(
            f"objective vectors must form an (N, M) array, got shape "
            f"{values.shape}")
    worse = np.zeros((n, n), dtype=bool)
    better = np.zeros((n, n), dtype=bool)
    for column in values.T:
        worse |= column[:, None] > column[None, :]
        better |= column[:, None] < column[None, :]
    dominance = better & ~worse  # [i, j]: individual i dominates j

    # np.nonzero walks row-major, so each individual's dominated set comes
    # out ascending -- the order the pairwise loop appends it in.
    rows, cols = np.nonzero(dominance)
    bounds = np.searchsorted(rows, np.arange(n + 1)).tolist()
    dominated = cols.tolist()
    counts = dominance.sum(0).tolist()

    front = [i for i in range(n) if counts[i] == 0]
    while front:
        yield front
        next_front: List[int] = []
        for i in front:
            for j in dominated[bounds[i]:bounds[i + 1]]:
                counts[j] -= 1
                if counts[j] == 0:
                    next_front.append(j)
        front = next_front


def fast_non_dominated_sort(objectives: Sequence[ObjectiveVector]) -> List[List[int]]:
    """Partition indices 0..n-1 into Pareto fronts (best front first).

    Returns a list of fronts, each a list of indices into ``objectives``.
    Every index appears in exactly one front.  Member order is part of the
    contract, because crowding tie-breaks depend on it: front 0 lists its
    members in ascending index order, and each later front in the order its
    members are released while peeling the front before it (members of that
    front in their order, each one's dominated individuals ascending).

    Raises :class:`ConfigurationError` when the objective vectors differ in
    length.
    """
    return list(_iter_fronts(objectives))


def crowding_distance(objectives: Sequence[ObjectiveVector],
                      front: Sequence[int]) -> Dict[int, float]:
    """Crowding distance of every index in ``front``.

    Boundary solutions of each objective get infinite distance so they are
    always preferred, which preserves the extremes of the Pareto front.
    """
    if not front:
        return {}
    n_objectives = len(objectives[front[0]])
    distance: Dict[int, float] = {i: 0.0 for i in front}
    if len(front) <= 2:
        return {i: math.inf for i in front}

    for m in range(n_objectives):
        ordered = sorted(front, key=lambda i: objectives[i][m])
        lo = objectives[ordered[0]][m]
        hi = objectives[ordered[-1]][m]
        distance[ordered[0]] = math.inf
        distance[ordered[-1]] = math.inf
        span = hi - lo
        if span <= 0.0:
            continue
        for position in range(1, len(ordered) - 1):
            i = ordered[position]
            if math.isinf(distance[i]):
                continue
            gap = (objectives[ordered[position + 1]][m]
                   - objectives[ordered[position - 1]][m])
            distance[i] += gap / span
    return distance


def crowded_comparison_rank(objectives: Sequence[ObjectiveVector]
                            ) -> List[Tuple[int, float]]:
    """(front index, -crowding distance) key for every individual.

    Sorting individuals by this key ascending gives NSGA-II's crowded
    comparison order: lower front first, then larger crowding distance.
    """
    n = len(objectives)
    ranks: List[Tuple[int, float]] = [(0, 0.0)] * n
    fronts = fast_non_dominated_sort(objectives)
    for front_index, front in enumerate(fronts):
        distances = crowding_distance(objectives, front)
        for i in front:
            ranks[i] = (front_index, -distances[i])
    return ranks


def select_survivors(objectives: Sequence[ObjectiveVector],
                     capacity: int) -> List[int]:
    """Pick the ``capacity`` best individuals by crowded comparison.

    This is NSGA-II's environmental selection: whole fronts are admitted while
    they fit, and the last partially admitted front is truncated by crowding
    distance (most isolated solutions first).
    """
    if capacity < 0:
        raise ConfigurationError("capacity must be non-negative")
    survivors: List[int] = []
    for front in _iter_fronts(objectives):
        if len(survivors) + len(front) <= capacity:
            survivors.extend(front)
            continue
        remaining = capacity - len(survivors)
        if remaining <= 0:
            break
        distances = crowding_distance(objectives, front)
        ordered = sorted(front, key=lambda i: distances[i], reverse=True)
        survivors.extend(ordered[:remaining])
        break
    return survivors
