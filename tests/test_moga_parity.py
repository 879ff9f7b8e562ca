"""Learning-engine parity suite: batch objectives vs the reference oracle.

The contract of :class:`~repro.moga.batch_objectives.BatchSparsityObjectives`
is stronger than the detection engines' score-tolerance parity: objective
vectors must be **bit-identical** to :class:`SparsityObjectives` — the MOGA
engine compares objective components with ``<`` / ``>`` during non-dominated
sorting, so any float deviation could flip a dominance decision and send a
seeded search down a different path.  The suite therefore asserts exact
(``==``) equality of objective tuples, sparsity scores, evaluation archives,
Pareto fronts and the SST mutations of the online adaptation mechanisms,
across every density reference, on randomized instances.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.config import SPOTConfig
from repro.core.detector import SPOT
from repro.core.exceptions import ConfigurationError
from repro.core.grid import DomainBounds, Grid
from repro.core.sst import SparseSubspaceTemplate
from repro.core.subspace import Subspace, enumerate_subspaces
from repro.learning.online import OutlierDrivenGrowth, SelfEvolution
from repro.moga.batch_objectives import (
    BatchSparsityObjectives,
    make_sparsity_objectives,
)
from repro.moga.engine import MOGAEngine, find_sparse_subspaces
from repro.moga.objectives import SparsityObjectives

DENSITY_REFERENCES = ("hybrid", "marginal", "populated", "lattice")


def _random_instance(seed: int, *, phi: int = 6, n: int = 120,
                     with_targets: bool = False, cells: int = 5):
    rng = random.Random(seed)
    data = [tuple(rng.gauss(0.0, 1.0) for _ in range(phi)) for _ in range(n)]
    targets = None
    if with_targets:
        # Targets deliberately off-distribution: some fall into cells no
        # training point populates, exercising the skip path.
        targets = [tuple(rng.gauss(0.0, 3.0) for _ in range(phi))
                   for _ in range(9)]
    bounds = DomainBounds.from_data(data, margin=0.1)
    grid = Grid(bounds=bounds, cells_per_dimension=cells)
    return data, targets, grid


def _pair(data, grid, targets, reference):
    ref = SparsityObjectives(data, grid, target_points=targets,
                             density_reference=reference)
    batch = BatchSparsityObjectives(data, grid, target_points=targets,
                                    density_reference=reference)
    return ref, batch


class TestObjectiveVectorParity:
    @pytest.mark.parametrize("reference", DENSITY_REFERENCES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_exact_parity_whole_batch_targets(self, reference, seed):
        data, _, grid = _random_instance(seed)
        ref, batch = _pair(data, grid, None, reference)
        for subspace in enumerate_subspaces(6, 3):
            assert batch.evaluate(subspace) == ref.evaluate(subspace)

    @pytest.mark.parametrize("reference", DENSITY_REFERENCES)
    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_exact_parity_external_targets(self, reference, seed):
        data, targets, grid = _random_instance(seed, with_targets=True)
        ref, batch = _pair(data, grid, targets, reference)
        for subspace in enumerate_subspaces(6, 3):
            assert batch.evaluate(subspace) == ref.evaluate(subspace)
            assert batch.sparsity_score(subspace) == \
                ref.sparsity_score(subspace)

    def test_population_evaluation_matches_single_calls(self):
        data, _, grid = _random_instance(7, phi=8)
        batch_a = BatchSparsityObjectives(data, grid)
        batch_b = BatchSparsityObjectives(data, grid)
        subspaces = list(enumerate_subspaces(8, 3))
        fused = batch_a.evaluate_population(subspaces)
        singles = [batch_b.evaluate(s) for s in subspaces]
        assert fused == singles

    def test_archive_order_and_evaluation_count_match(self):
        data, targets, grid = _random_instance(8, with_targets=True)
        ref, batch = _pair(data, grid, targets, "hybrid")
        # Interleave repeats: memoisation must keep the cache-miss count and
        # the archive's first-occurrence order identical across engines.
        subspaces = list(enumerate_subspaces(6, 2))
        sequence = subspaces + subspaces[::2] + subspaces[:3]
        batch.evaluate_population(sequence)
        for subspace in sequence:
            ref.evaluate(subspace)
        assert batch.evaluations == ref.evaluations
        assert batch.evaluated_subspaces() == ref.evaluated_subspaces()

    def test_rowkey_fallback_matches_reference(self):
        # cells_per_dimension large enough that a 4-d subspace's key space
        # overflows int64, forcing the unique-rows fallback path.
        data, _, grid = _random_instance(9, phi=5, n=60, cells=66000)
        assert 66000 ** 4 > np.iinfo(np.int64).max
        ref = SparsityObjectives(data, grid)
        batch = BatchSparsityObjectives(data, grid)
        for subspace in (Subspace([0, 1, 2, 3]), Subspace([1, 2, 3, 4])):
            assert batch.evaluate(subspace) == ref.evaluate(subspace)

    def test_validation_mirrors_reference(self):
        data, _, grid = _random_instance(10)
        with pytest.raises(ConfigurationError):
            BatchSparsityObjectives([], grid)
        with pytest.raises(ConfigurationError):
            BatchSparsityObjectives(data, grid, target_points=[])
        with pytest.raises(ConfigurationError):
            BatchSparsityObjectives([(0.1, 0.2)], grid)
        with pytest.raises(ConfigurationError):
            BatchSparsityObjectives(data, grid,
                                    density_reference="nonsense")

    def test_factory_selects_engine(self):
        data, _, grid = _random_instance(11)
        assert isinstance(
            make_sparsity_objectives(data, grid, engine="python"),
            SparsityObjectives)
        assert isinstance(
            make_sparsity_objectives(data, grid, engine="vectorized"),
            BatchSparsityObjectives)
        with pytest.raises(ConfigurationError):
            make_sparsity_objectives(data, grid, engine="fortran")

    def test_memory_footprint_reports_memo_and_batch(self):
        data, _, grid = _random_instance(12)
        batch = BatchSparsityObjectives(data, grid)
        empty = batch.memory_footprint()
        assert empty["memo_entries"] == 0
        assert empty["training_batch_bytes"] > 0
        batch.evaluate_population(list(enumerate_subspaces(6, 2)))
        grown = batch.memory_footprint()
        assert grown["memo_entries"] == batch.evaluations > 0
        assert grown["memo_bytes"] > 0


class TestSeededSearchParity:
    @pytest.mark.parametrize("seed", [0, 17])
    def test_identical_pareto_fronts(self, seed):
        data, targets, grid = _random_instance(20 + seed, phi=7,
                                               with_targets=True)
        results = []
        for make in (SparsityObjectives, BatchSparsityObjectives):
            objectives = make(data, grid, target_points=targets)
            engine = MOGAEngine(objectives, population_size=16, generations=6,
                                max_dimension=3, seed=seed)
            result = engine.run()
            results.append((result.pareto_front, result.evaluations,
                            result.generations_run))
        assert results[0] == results[1]

    def test_find_sparse_subspaces_identical_across_engines(self):
        data, targets, grid = _random_instance(30, phi=7, with_targets=True)
        kwargs = dict(target_points=targets, top_k=8, population_size=14,
                      generations=5, max_dimension=3, seed=3)
        py = find_sparse_subspaces(data, grid, engine="python", **kwargs)
        vec = find_sparse_subspaces(data, grid, engine="vectorized", **kwargs)
        assert py == vec

    def test_learn_builds_identical_sst_across_engines(self):
        rng = random.Random(41)
        phi = 8
        training = [tuple(rng.gauss(0.0, 1.0) for _ in range(phi))
                    for _ in range(220)]
        examples = [tuple(rng.gauss(0.0, 3.0) for _ in range(phi))
                    for _ in range(2)]
        ssts = []
        for engine in ("python", "vectorized"):
            config = SPOTConfig(engine=engine, max_dimension=1, cs_size=8,
                                os_size=8, moga_population=12,
                                moga_generations=4, omega=200)
            detector = SPOT(config)
            detector.learn(training, outlier_examples=examples)
            ssts.append((detector.sst.fixed_subspaces,
                         detector.sst.clustering_subspaces,
                         detector.sst.outlier_driven_subspaces))
        assert ssts[0] == ssts[1]

    def test_online_adaptation_identical_across_engines(self):
        rng = random.Random(53)
        phi = 6
        recent = [tuple(rng.gauss(0.0, 1.0) for _ in range(phi))
                  for _ in range(120)]
        outlier = tuple(rng.gauss(0.0, 4.0) for _ in range(phi))
        snapshots = []
        for engine in ("python", "vectorized"):
            config = SPOTConfig(engine=engine, moga_population=12,
                                moga_generations=4, cs_size=6, os_size=6)
            bounds = DomainBounds.from_data(recent, margin=0.1)
            grid = Grid(bounds=bounds,
                        cells_per_dimension=config.cells_per_dimension)
            sst = SparseSubspaceTemplate(phi, cs_capacity=6, os_capacity=6)
            seed_cs = find_sparse_subspaces(
                recent, grid, top_k=6, population_size=12, generations=4,
                max_dimension=3, seed=1, engine=engine)
            sst.set_clustering(seed_cs)
            growth = OutlierDrivenGrowth(config, grid)
            growth.grow(sst, outlier, recent)
            evolution = SelfEvolution(config, grid)
            evolution.evolve(sst, recent)
            snapshots.append((sst.clustering_subspaces,
                              sst.outlier_driven_subspaces))
            assert growth.last_memory_footprint["memo_entries"] > 0
            assert evolution.last_memory_footprint["memo_entries"] > 0
        assert snapshots[0] == snapshots[1]
