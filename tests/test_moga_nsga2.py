"""Unit tests for the NSGA-II ranking primitives.

The library builds dominance in one array pass; the pairwise loop it
replaced is kept below as the oracle (``_oracle_*``, built on
:func:`repro.moga.objectives.dominates`), and a property test requires the
library to return exactly what the oracle returns: the same fronts in the
same member order, the same crowding distances and the same survivors.
"""

import math
from typing import Dict, List, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exceptions import ConfigurationError
from repro.moga.nsga2 import (
    crowded_comparison_rank,
    crowding_distance,
    fast_non_dominated_sort,
    select_survivors,
)
from repro.moga.objectives import dominates


# ----------------------------------------------------------------------- #
# The pairwise-loop oracle
# ----------------------------------------------------------------------- #
def _oracle_fast_non_dominated_sort(objectives: Sequence[Tuple[float, ...]]
                                    ) -> List[List[int]]:
    n = len(objectives)
    if n == 0:
        return []
    dominated_by: List[List[int]] = [[] for _ in range(n)]
    domination_count = [0] * n
    fronts: List[List[int]] = [[]]

    for i in range(n):
        for j in range(i + 1, n):
            if dominates(objectives[i], objectives[j]):
                dominated_by[i].append(j)
                domination_count[j] += 1
            elif dominates(objectives[j], objectives[i]):
                dominated_by[j].append(i)
                domination_count[i] += 1
        if domination_count[i] == 0:
            fronts[0].append(i)

    current = 0
    while fronts[current]:
        next_front: List[int] = []
        for i in fronts[current]:
            for j in dominated_by[i]:
                domination_count[j] -= 1
                if domination_count[j] == 0:
                    next_front.append(j)
        current += 1
        fronts.append(next_front)
    fronts.pop()  # the loop always appends one trailing empty front
    return fronts


def _oracle_crowding_distance(objectives: Sequence[Tuple[float, ...]],
                              front: Sequence[int]) -> Dict[int, float]:
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


def _oracle_crowded_comparison_rank(objectives: Sequence[Tuple[float, ...]]
                                    ) -> List[Tuple[int, float]]:
    n = len(objectives)
    ranks: List[Tuple[int, float]] = [(0, 0.0)] * n
    fronts = _oracle_fast_non_dominated_sort(objectives)
    for front_index, front in enumerate(fronts):
        distances = _oracle_crowding_distance(objectives, front)
        for i in front:
            ranks[i] = (front_index, -distances[i])
    return ranks


def _oracle_select_survivors(objectives: Sequence[Tuple[float, ...]],
                             capacity: int) -> List[int]:
    survivors: List[int] = []
    for front in _oracle_fast_non_dominated_sort(objectives):
        if len(survivors) + len(front) <= capacity:
            survivors.extend(front)
            continue
        remaining = capacity - len(survivors)
        if remaining <= 0:
            break
        distances = _oracle_crowding_distance(objectives, front)
        ordered = sorted(front, key=lambda i: distances[i], reverse=True)
        survivors.extend(ordered[:remaining])
        break
    return survivors


# The engine's combined population (parents plus offspring) reaches 80.
_continuous = st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False)
_tie_heavy = st.sampled_from([0.0, 0.5, 1.0])
_special = st.sampled_from([math.nan, math.inf, -math.inf])


@st.composite
def _objective_matrices(draw) -> List[Tuple[float, ...]]:
    n = draw(st.integers(min_value=0, max_value=90))
    m = draw(st.integers(min_value=1, max_value=4))
    value = draw(st.sampled_from([_continuous, _tie_heavy]))
    if draw(st.booleans()):
        # NaN and +-inf sprinkled in, roughly one component in ten.
        value = st.one_of(*([value] * 9), _special)
    return [tuple(draw(value) for _ in range(m)) for _ in range(n)]


class TestNonDominatedSort:
    def test_empty_population(self):
        assert fast_non_dominated_sort([]) == []

    def test_single_individual_forms_the_first_front(self):
        assert fast_non_dominated_sort([(1.0, 2.0)]) == [[0]]

    def test_simple_two_front_partition(self):
        objectives = [(0.1, 0.1), (0.5, 0.5), (0.1, 0.5)]
        fronts = fast_non_dominated_sort(objectives)
        assert fronts[0] == [0]
        assert set(fronts[1]) == {1, 2} or fronts[1] == [2]

    def test_every_index_appears_exactly_once(self):
        objectives = [(3.0, 1.0), (1.0, 3.0), (2.0, 2.0), (4.0, 4.0), (0.5, 5.0)]
        fronts = fast_non_dominated_sort(objectives)
        flattened = [i for front in fronts for i in front]
        assert sorted(flattened) == list(range(len(objectives)))

    def test_mutually_non_dominating_points_share_a_front(self):
        objectives = [(1.0, 3.0), (2.0, 2.0), (3.0, 1.0)]
        fronts = fast_non_dominated_sort(objectives)
        assert len(fronts) == 1
        assert set(fronts[0]) == {0, 1, 2}

    def test_chain_of_dominated_points_gives_one_front_each(self):
        objectives = [(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]
        fronts = fast_non_dominated_sort(objectives)
        assert fronts == [[0], [1], [2]]

    def test_ragged_objective_vectors_are_rejected(self):
        ragged = [(1.0, 2.0), (1.0,)]
        with pytest.raises(ConfigurationError):
            fast_non_dominated_sort(ragged)
        with pytest.raises(ConfigurationError):
            select_survivors(ragged, capacity=1)


class TestCrowdingDistance:
    def test_empty_front(self):
        assert crowding_distance([(1.0, 1.0)], []) == {}

    def test_small_fronts_get_infinite_distance(self):
        objectives = [(1.0, 2.0), (2.0, 1.0)]
        distances = crowding_distance(objectives, [0, 1])
        assert all(math.isinf(d) for d in distances.values())

    def test_boundary_points_get_infinite_distance(self):
        objectives = [(1.0, 3.0), (2.0, 2.0), (3.0, 1.0)]
        distances = crowding_distance(objectives, [0, 1, 2])
        assert math.isinf(distances[0])
        assert math.isinf(distances[2])
        assert not math.isinf(distances[1])

    def test_isolated_points_have_larger_distance(self):
        # Index 1 is close to index 0; index 2 sits far from both.
        objectives = [(0.0, 1.0), (0.1, 0.9), (0.5, 0.5), (1.0, 0.0)]
        distances = crowding_distance(objectives, [0, 1, 2, 3])
        assert distances[2] > distances[1]

    def test_degenerate_objective_with_zero_span(self):
        objectives = [(1.0, 5.0), (1.0, 3.0), (1.0, 1.0)]
        distances = crowding_distance(objectives, [0, 1, 2])
        assert distances[1] >= 0.0


class TestSelection:
    def test_ranks_prefer_earlier_fronts(self):
        objectives = [(1.0, 1.0), (2.0, 2.0), (0.5, 3.0)]
        ranks = crowded_comparison_rank(objectives)
        assert ranks[0][0] == 0
        assert ranks[2][0] == 0
        assert ranks[1][0] == 1

    def test_select_survivors_respects_capacity(self):
        objectives = [(float(i), float(10 - i)) for i in range(10)]
        survivors = select_survivors(objectives, capacity=4)
        assert len(survivors) == 4

    def test_select_survivors_takes_whole_better_fronts_first(self):
        objectives = [(1.0, 1.0), (2.0, 2.0), (3.0, 3.0), (0.9, 1.1)]
        survivors = select_survivors(objectives, capacity=2)
        assert set(survivors) == {0, 3}

    def test_select_survivors_truncates_by_crowding(self):
        objectives = [(0.0, 1.0), (0.01, 0.99), (0.5, 0.5), (1.0, 0.0)]
        survivors = select_survivors(objectives, capacity=3)
        assert len(survivors) == 3
        # The boundary solutions (0 and 3) must survive the truncation.
        assert {0, 3} <= set(survivors)

    def test_negative_capacity_is_rejected(self):
        with pytest.raises(ConfigurationError):
            select_survivors([(1.0, 1.0)], capacity=-1)

    def test_zero_capacity_returns_nothing(self):
        assert select_survivors([(1.0, 1.0)], capacity=0) == []


class TestLoopOracle:
    @settings(max_examples=60, deadline=None)
    @given(_objective_matrices())
    def test_ranking_matches_the_pairwise_loop(self, objectives):
        fronts = fast_non_dominated_sort(objectives)
        assert fronts == _oracle_fast_non_dominated_sort(objectives)
        assert (repr(crowded_comparison_rank(objectives))
                == repr(_oracle_crowded_comparison_rank(objectives)))
        for front in fronts:
            assert (repr(crowding_distance(objectives, front))
                    == repr(_oracle_crowding_distance(objectives, front)))
        n = len(objectives)
        for capacity in (0, 1, n // 2, n, n + 3):
            assert (select_survivors(objectives, capacity)
                    == _oracle_select_survivors(objectives, capacity))
