"""Common interface shared by every baseline stream outlier detector.

The paper's comparative study puts SPOT against "the latest stream
outlier/anomaly detection method", i.e. detectors that work on the *full*
data space.  Every baseline in this package implements
:class:`StreamingDetector` so that the evaluation harness can swap detectors
without caring whether it is driving SPOT or a baseline.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, Sequence, Tuple, Union

import numpy as np

from ..core.exceptions import ConfigurationError, NotFittedError

PointLike = Union[Sequence[float], object]


def coerce_point(point: PointLike) -> Tuple[float, ...]:
    """Accept raw sequences and StreamPoint-like objects alike."""
    values = getattr(point, "values", point)
    return tuple(float(v) for v in values)


@dataclass(frozen=True)
class BaselineResult:
    """Outcome of classifying one point with a baseline detector.

    Mirrors the fields of :class:`repro.core.results.DetectionResult` that
    the evaluation harness needs (flag + continuous score), without the
    subspace evidence that full-space methods cannot produce.
    """

    index: int
    is_outlier: bool
    score: float


class StreamingDetector(abc.ABC):
    """Minimal train-then-stream detector interface."""

    name: str = "baseline"

    @abc.abstractmethod
    def learn(self, training_data: Sequence[PointLike]) -> "StreamingDetector":
        """Offline preparation on a training batch; returns ``self``."""

    @abc.abstractmethod
    def process(self, point: PointLike) -> BaselineResult:
        """Classify one arriving point and update internal state."""

    def process_stream(self, stream: Iterable[PointLike]) -> Iterator[BaselineResult]:
        """Classify a stream lazily, one result per point."""
        for point in stream:
            yield self.process(point)

    def process_batch(self, points: Iterable[PointLike]) -> List[BaselineResult]:
        """Classify a finite chunk of points at once.

        The default implementation loops :meth:`process`; detectors built on
        the vectorized synapse store override it with an array fast path.
        """
        return [self.process(point) for point in points]

    def detect(self, points: Iterable[PointLike]) -> List[BaselineResult]:
        """Classify a finite batch and return every result."""
        return self.process_batch(list(points))


def validate_training_batch(training_data: Sequence[PointLike]) -> List[Tuple[float, ...]]:
    """Coerce and dimension-check a training batch (shared by baselines)."""
    batch = [coerce_point(point) for point in training_data]
    if not batch:
        raise ConfigurationError("training_data must not be empty")
    phi = len(batch[0])
    for point in batch:
        if len(point) != phi:
            raise ConfigurationError(
                "all training points must share one dimensionality"
            )
    return batch


def require_fitted(fitted: bool, detector_name: str) -> None:
    """Raise :class:`NotFittedError` when a detector is used before learn()."""
    if not fitted:
        raise NotFittedError(
            f"{detector_name} must be trained with learn() before processing points"
        )


def vectorized_scan(store, points: Sequence[PointLike], subspaces,
                    exclude_weight: float,
                    decide: Callable[[object], Tuple[np.ndarray, np.ndarray]],
                    index_start: int) -> List[BaselineResult]:
    """Shared chunked scan for baselines running on the vectorized store.

    Ingests ``points`` chunk by chunk through the store's ``plan_batch`` /
    ``commit`` machinery and turns ``decide(plan) -> (flags, scores)`` — the
    only part that differs between grid baselines — into indexed
    :class:`BaselineResult` rows starting at ``index_start``.
    """
    results: List[BaselineResult] = []
    if not points:
        return results
    X = np.array([coerce_point(point) for point in points], dtype=np.float64)
    for start in range(0, X.shape[0], store.max_batch_points()):
        chunk = X[start:start + store.max_batch_points()]
        plan = store.plan_batch(chunk, subspaces, exclude_weight=exclude_weight)
        plan.commit()
        flags, scores = decide(plan)
        for flag, score in zip(flags.tolist(), scores.tolist()):
            results.append(BaselineResult(index=index_start + len(results),
                                          is_outlier=bool(flag),
                                          score=float(score)))
    return results
