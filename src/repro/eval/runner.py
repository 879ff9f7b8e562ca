"""Experiment runner: drive any detector over a workload and score it.

The runner is detector-agnostic — SPOT and every baseline expose a
``learn`` / ``process`` pair — and produces one :class:`DetectorEvaluation`
per (detector, workload) pair with effectiveness, ranking and efficiency
metrics.  The comparison helpers are what the benchmark files and
EXPERIMENTS.md generator call.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..core.detector import SPOT
from ..core.exceptions import ConfigurationError
from ..core.results import DetectionResult
from ..metrics import (
    ConfusionMatrix,
    average_precision,
    confusion_matrix,
    precision_at_k,
    roc_auc,
    subspace_recovery_rate,
)
from .workloads import Workload

#: A detector factory takes no arguments and returns a fresh, unfitted detector.
DetectorFactory = Callable[[], object]


@dataclass(frozen=True)
class DetectorEvaluation:
    """Scores of one detector on one workload."""

    detector_name: str
    workload_name: str
    confusion: ConfusionMatrix
    auc: float
    average_precision: float
    precision_at_k: float
    subspace_recovery: Optional[float]
    learn_seconds: float
    detect_seconds: float
    points_processed: int

    @property
    def points_per_second(self) -> float:
        """Detection-stage throughput."""
        if self.detect_seconds <= 0.0:
            return float("inf")
        return self.points_processed / self.detect_seconds

    def as_row(self) -> Dict[str, object]:
        """Flat reporting row combining all the metrics."""
        row: Dict[str, object] = {
            "detector": self.detector_name,
            "workload": self.workload_name,
            "precision": round(self.confusion.precision, 4),
            "recall": round(self.confusion.recall, 4),
            "f1": round(self.confusion.f1, 4),
            "false_alarm_rate": round(self.confusion.false_alarm_rate, 4),
            "auc": round(self.auc, 4),
            "avg_precision": round(self.average_precision, 4),
            "precision_at_k": round(self.precision_at_k, 4),
            "learn_seconds": round(self.learn_seconds, 4),
            "detect_seconds": round(self.detect_seconds, 4),
            "points_per_second": round(self.points_per_second, 1),
        }
        if self.subspace_recovery is not None:
            row["subspace_recovery"] = round(self.subspace_recovery, 4)
        return row


def evaluate_detector(detector: object, workload: Workload, *,
                      detector_name: Optional[str] = None,
                      supervised: bool = False) -> DetectorEvaluation:
    """Train ``detector`` on the workload and score it on the detection segment.

    Parameters
    ----------
    detector:
        An unfitted SPOT instance or baseline (anything with ``learn`` and
        ``process``).
    workload:
        The workload to run.
    detector_name:
        Reporting name; defaults to the detector's ``name`` attribute or class
        name.
    supervised:
        When ``True`` and the detector is a SPOT instance, the labelled
        outliers of the training batch are passed as outlier examples
        (supervised learning of OS).
    """
    name = detector_name or getattr(detector, "name", None) \
        or type(detector).__name__

    learn_start = time.perf_counter()
    if isinstance(detector, SPOT) and supervised:
        examples = workload.outlier_examples
        if not examples:
            raise ConfigurationError(
                f"workload {workload.name!r} has no labelled training outliers "
                "for supervised learning"
            )
        detector.learn(workload.training_values, outlier_examples=examples)
    else:
        detector.learn(workload.training_values)
    learn_seconds = time.perf_counter() - learn_start

    detect_start = time.perf_counter()
    # Every detector (SPOT and the baselines alike) exposes process_batch;
    # on the vectorized engine this is the array fast path, on the python
    # engine it degenerates to the sequential loop with identical results.
    if hasattr(detector, "process_batch"):
        results = detector.process_batch(workload.detection_values)
    else:
        results = [detector.process(values)
                   for values in workload.detection_values]
    detect_seconds = time.perf_counter() - detect_start

    predictions = [bool(result.is_outlier) for result in results]
    scores = [float(getattr(result, "score", 0.0)) for result in results]
    labels = workload.detection_labels

    recovery: Optional[float] = None
    if results and isinstance(results[0], DetectionResult):
        reported = []
        truth = []
        for result, point in zip(results, workload.detection):
            if point.is_outlier and result.is_outlier:
                reported.append(result.outlying_subspaces)
                truth.append(point.outlying_subspace)
        if truth:
            recovery = subspace_recovery_rate(reported, truth)

    return DetectorEvaluation(
        detector_name=name,
        workload_name=workload.name,
        confusion=confusion_matrix(predictions, labels),
        auc=roc_auc(scores, labels),
        average_precision=average_precision(scores, labels),
        precision_at_k=precision_at_k(scores, labels),
        subspace_recovery=recovery,
        learn_seconds=learn_seconds,
        detect_seconds=detect_seconds,
        points_processed=len(results),
    )


def compare_detectors(factories: Dict[str, DetectorFactory],
                      workload: Workload, *,
                      supervised_detectors: Sequence[str] = ()
                      ) -> List[DetectorEvaluation]:
    """Evaluate several detectors (built fresh from factories) on one workload."""
    if not factories:
        raise ConfigurationError("at least one detector factory is required")
    evaluations = []
    for name, factory in factories.items():
        detector = factory()
        evaluations.append(
            evaluate_detector(detector, workload, detector_name=name,
                              supervised=name in set(supervised_detectors))
        )
    return evaluations


def evaluate_over_segments(detector: object, workload: Workload,
                           n_segments: int) -> List[Dict[str, float]]:
    """Train once, then score the detection stream segment by segment.

    Used by the drift / self-evolution experiment: recall per segment shows
    whether the detector recovers after the stream changes.
    """
    if n_segments <= 0:
        raise ConfigurationError("n_segments must be positive")
    detector.learn(workload.training_values)
    points = list(workload.detection)
    size = max(1, len(points) // n_segments)
    rows: List[Dict[str, float]] = []
    for segment_index in range(n_segments):
        chunk = points[segment_index * size:(segment_index + 1) * size]
        if not chunk:
            break
        values = [point.values for point in chunk]
        if hasattr(detector, "process_batch"):
            results = detector.process_batch(values)
        else:
            results = [detector.process(v) for v in values]
        predictions = [bool(result.is_outlier) for result in results]
        labels = [point.is_outlier for point in chunk]
        matrix = confusion_matrix(predictions, labels)
        rows.append({
            "segment": float(segment_index),
            "recall": matrix.recall,
            "precision": matrix.precision,
            "false_alarm_rate": matrix.false_alarm_rate,
        })
    return rows
