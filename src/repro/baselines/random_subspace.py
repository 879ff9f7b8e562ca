"""Random-subspace control: SPOT's machinery with an unlearned template.

This detector isolates the value of the *learned* Sparse Subspace Template: it
runs exactly SPOT's decayed-grid detection machinery, but over a template of
randomly drawn subspaces (same count and dimension range as a learned SST)
instead of FS/CS/OS.  If SPOT's learning stages matter, SPOT should beat this
control at equal subspace budget; if the random control does just as well, the
benefit would be coming from the subspace *count*, not from the learning.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.config import SPOTConfig
from ..core.fast_store import VectorizedSynapseStore
from ..core.grid import DomainBounds, Grid
from ..core.subspace import Subspace
from ..core.synapse_store import SynapseStore
from ..core.time_model import TimeModel
from ..core.exceptions import ConfigurationError
from .base import (
    BaselineResult,
    PointLike,
    StreamingDetector,
    coerce_point,
    require_fitted,
    validate_training_batch,
    vectorized_scan,
)


class RandomSubspaceDetector(StreamingDetector):
    """Decayed-grid detection over randomly chosen subspaces.

    Parameters
    ----------
    n_subspaces:
        Number of random subspaces in the template (the budget).
    max_dimension:
        Maximum dimension of a drawn subspace.
    cells_per_dimension / omega / epsilon / rd_threshold / min_expected_mass /
    significance:
        Substrate settings, defaulting to :class:`SPOTConfig` defaults so the
        comparison against SPOT is apples-to-apples.
    seed:
        RNG seed for the subspace draw.
    """

    name = "random-subspace"

    def __init__(self, *, n_subspaces: int = 50, max_dimension: int = 3,
                 cells_per_dimension: Optional[int] = None,
                 omega: Optional[int] = None,
                 epsilon: Optional[float] = None,
                 rd_threshold: Optional[float] = None,
                 min_expected_mass: Optional[float] = None,
                 significance: Optional[float] = None,
                 seed: int = 0,
                 engine: str = "vectorized") -> None:
        if n_subspaces < 1:
            raise ConfigurationError("n_subspaces must be at least 1")
        if max_dimension < 1:
            raise ConfigurationError("max_dimension must be at least 1")
        if engine not in ("python", "vectorized"):
            raise ConfigurationError(
                f"engine must be 'python' or 'vectorized', got {engine!r}"
            )
        self._engine = engine
        defaults = SPOTConfig()
        self._n_subspaces = n_subspaces
        self._max_dimension = max_dimension
        self._cells_per_dimension = cells_per_dimension or defaults.cells_per_dimension
        self._omega = omega or defaults.omega
        self._epsilon = epsilon or defaults.epsilon
        self._rd_threshold = rd_threshold or defaults.rd_threshold
        self._min_expected_mass = (min_expected_mass
                                   if min_expected_mass is not None
                                   else defaults.min_expected_mass)
        self._significance = (significance if significance is not None
                              else defaults.significance)
        self._seed = seed
        self._store: Optional[SynapseStore] = None
        self._subspaces: List[Subspace] = []
        self._processed = 0

    @property
    def subspaces(self) -> Tuple[Subspace, ...]:
        """The randomly drawn template (available after :meth:`learn`)."""
        return tuple(self._subspaces)

    def learn(self, training_data: Sequence[PointLike]) -> "RandomSubspaceDetector":
        batch = validate_training_batch(training_data)
        phi = len(batch[0])
        rng = random.Random(self._seed)
        subspaces: List[Subspace] = []
        seen = set()
        attempts = 0
        while len(subspaces) < self._n_subspaces and attempts < 50 * self._n_subspaces:
            attempts += 1
            dim = rng.randint(1, min(self._max_dimension, phi))
            candidate = Subspace(rng.sample(range(phi), dim))
            if candidate in seen:
                continue
            seen.add(candidate)
            subspaces.append(candidate)
        self._subspaces = subspaces

        bounds = DomainBounds.from_data(batch, margin=0.1)
        grid = Grid(bounds=bounds, cells_per_dimension=self._cells_per_dimension)
        model = TimeModel.create(self._omega, self._epsilon)
        store_cls = (VectorizedSynapseStore if self._engine == "vectorized"
                     else SynapseStore)
        self._store = store_cls(grid, model)
        self._store.register_subspaces(subspaces)
        self._store.ingest(batch)
        self._processed = 0
        return self

    def process_batch(self, points) -> List[BaselineResult]:
        """Classify a chunk at once; vectorized when the store supports it."""
        points = list(points)
        if not isinstance(self._store, VectorizedSynapseStore):
            return [self.process(point) for point in points]
        require_fitted(self._store is not None, self.name)

        def decide(plan):
            n = plan.n
            min_rd = np.full(n, np.inf)
            flagged = np.zeros(n, dtype=bool)
            for subspace in self._subspaces:
                sub = plan.plans[subspace]
                supported = sub.expected >= self._min_expected_mass
                np.copyto(min_rd, sub.rd, where=supported & (sub.rd < min_rd))
                flagged |= supported & (sub.rd <= self._rd_threshold)
            scores = np.where(np.isfinite(min_rd),
                              np.clip(1.0 - min_rd, 0.0, 1.0), 0.0)
            return flagged, scores

        results = vectorized_scan(self._store, points, self._subspaces,
                                  1.0, decide, self._processed)
        self._processed += len(results)
        return results

    def process(self, point: PointLike) -> BaselineResult:
        require_fitted(self._store is not None, self.name)
        assert self._store is not None
        values = coerce_point(point)
        self._store.update(values)
        min_rd = float("inf")
        flagged = False
        for subspace in self._subspaces:
            # Same decision rule as SPOT's default (self-mass exclusion, RD
            # threshold, support requirement); only the subspace choice differs.
            pcs = self._store.pcs_for_point(values, subspace, exclude_weight=1.0)
            if pcs.expected >= self._min_expected_mass and pcs.rd < min_rd:
                min_rd = pcs.rd
            if pcs.is_sparse(self._rd_threshold,
                             min_expected=self._min_expected_mass):
                flagged = True
        score = max(0.0, min(1.0, 1.0 - min_rd)) if min_rd != float("inf") else 0.0
        result = BaselineResult(index=self._processed, is_outlier=flagged,
                                score=score)
        self._processed += 1
        return result
