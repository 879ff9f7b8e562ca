"""Full-space decayed-grid stream detector (the paper's main contrast).

This baseline represents the stream outlier detection methods the paper cites
as the state of the art ([2], [5] in the paper): the stream is summarised in
the *full* data space only, with the same decayed equi-width cell machinery
SPOT uses, and a point is an outlier when its full-space cell is sparse.

Because the only subspace it looks at is the full ``phi``-dimensional space,
it embodies exactly the failure mode that motivates SPOT: as dimensionality
grows, every point becomes the lone occupant of its own base cell and the
full-space density signal stops discriminating projected outliers from
regular points.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

import numpy as np

from ..core.config import SPOTConfig
from ..core.exceptions import ConfigurationError
from ..core.fast_store import VectorizedSynapseStore
from ..core.grid import DomainBounds, Grid
from ..core.subspace import Subspace
from ..core.synapse_store import SynapseStore
from ..core.time_model import TimeModel
from .base import (
    BaselineResult,
    PointLike,
    StreamingDetector,
    coerce_point,
    require_fitted,
    validate_training_batch,
    vectorized_scan,
)


class FullSpaceGridDetector(StreamingDetector):
    """Decayed-grid density detector restricted to the full data space.

    Parameters
    ----------
    cells_per_dimension / omega / epsilon / rd_threshold:
        Same meaning as in :class:`repro.core.config.SPOTConfig`; defaults are
        taken from a default config so SPOT and this baseline are always
        compared under identical substrate settings.
    engine:
        ``"vectorized"`` (default) runs the array-backed store and the batch
        scan path; ``"python"`` keeps the reference store (the oracle).
    """

    name = "full-space-grid"

    def __init__(self, *, cells_per_dimension: Optional[int] = None,
                 omega: Optional[int] = None,
                 epsilon: Optional[float] = None,
                 rd_threshold: Optional[float] = None,
                 engine: str = "vectorized") -> None:
        if engine not in ("python", "vectorized"):
            raise ConfigurationError(
                f"engine must be 'python' or 'vectorized', got {engine!r}"
            )
        defaults = SPOTConfig()
        self._cells_per_dimension = cells_per_dimension or defaults.cells_per_dimension
        self._omega = omega or defaults.omega
        self._epsilon = epsilon or defaults.epsilon
        self._rd_threshold = rd_threshold or defaults.rd_threshold
        self._engine = engine
        self._store: Optional[SynapseStore] = None
        self._full_space: Optional[Subspace] = None

    def learn(self, training_data: Sequence[PointLike]) -> "FullSpaceGridDetector":
        batch = validate_training_batch(training_data)
        phi = len(batch[0])
        bounds = DomainBounds.from_data(batch, margin=0.1)
        grid = Grid(bounds=bounds, cells_per_dimension=self._cells_per_dimension)
        model = TimeModel.create(self._omega, self._epsilon)
        # A full-space grid method compares each cell with the average
        # populated cell of the (single) full space — the independence
        # expectation is a subspace notion it does not have.
        store_cls = (VectorizedSynapseStore if self._engine == "vectorized"
                     else SynapseStore)
        self._store = store_cls(grid, model, density_reference="populated")
        self._full_space = Subspace.full_space(phi)
        self._store.register_subspace(self._full_space)
        self._store.ingest(batch)
        self._processed = 0
        return self

    def process_batch(self, points: Iterable[PointLike]) -> List[BaselineResult]:
        """Classify a chunk at once; vectorized when the store supports it."""
        points = list(points)
        if not isinstance(self._store, VectorizedSynapseStore):
            return [self.process(point) for point in points]
        require_fitted(self._store is not None, self.name)
        assert self._full_space is not None

        def decide(plan):
            sub = plan.plans[self._full_space]
            # Mirror of the sequential rule: PCS.is_sparse(rd_threshold) with
            # the default zero support requirement.
            flags = (sub.expected >= 0.0) & (sub.rd <= self._rd_threshold)
            return flags, np.clip(1.0 - sub.rd, 0.0, 1.0)

        results = vectorized_scan(self._store, points, [self._full_space],
                                  0.0, decide, self._processed)
        self._processed += len(results)
        return results

    def process(self, point: PointLike) -> BaselineResult:
        require_fitted(self._store is not None, self.name)
        assert self._store is not None and self._full_space is not None
        values = coerce_point(point)
        # Same update-then-check ordering SPOT uses, so the comparison stays
        # apples-to-apples.
        self._store.update(values)
        pcs = self._store.pcs_for_point(values, self._full_space)
        is_outlier = pcs.is_sparse(self._rd_threshold)
        score = max(0.0, min(1.0, 1.0 - pcs.rd))
        result = BaselineResult(index=self._processed, is_outlier=is_outlier,
                                score=score)
        self._processed += 1
        return result
