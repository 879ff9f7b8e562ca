"""Ranking (threshold-free) metrics for outlier scores.

A threshold comparison can flatter whichever detector happens to have the
better-calibrated default threshold, so the evaluation also reports
threshold-free quality of the *scores* each detector assigns: ROC AUC,
average precision and precision@k.  Also included is the subspace-recovery
metric used to check whether SPOT's reported outlying subspaces match the
ground-truth subspaces the workloads planted outliers in.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from ..core.exceptions import ConfigurationError
from ..core.subspace import Subspace


def _validate(scores: Sequence[float], labels: Sequence[bool]) -> None:
    if len(scores) != len(labels):
        raise ConfigurationError(
            f"scores ({len(scores)}) and labels ({len(labels)}) "
            "must have the same length"
        )
    if not scores:
        raise ConfigurationError("scores must not be empty")


def roc_auc(scores: Sequence[float], labels: Sequence[bool]) -> float:
    """Area under the ROC curve via the Mann-Whitney U statistic.

    Equals the probability that a randomly chosen outlier is scored above a
    randomly chosen regular point (ties count half).  Returns 0.5 when either
    class is empty (no ranking information).
    """
    _validate(scores, labels)
    positives = [s for s, l in zip(scores, labels) if l]
    negatives = [s for s, l in zip(scores, labels) if not l]
    if not positives or not negatives:
        return 0.5
    # Rank-based computation handles ties exactly and runs in O(n log n).
    ranked = sorted(range(len(scores)), key=lambda i: scores[i])
    ranks = [0.0] * len(scores)
    i = 0
    while i < len(ranked):
        j = i
        while j + 1 < len(ranked) and scores[ranked[j + 1]] == scores[ranked[i]]:
            j += 1
        average_rank = (i + j) / 2.0 + 1.0
        for position in range(i, j + 1):
            ranks[ranked[position]] = average_rank
        i = j + 1
    positive_rank_sum = sum(rank for rank, label in zip(ranks, labels) if label)
    n_pos, n_neg = len(positives), len(negatives)
    u_statistic = positive_rank_sum - n_pos * (n_pos + 1) / 2.0
    return u_statistic / (n_pos * n_neg)


def average_precision(scores: Sequence[float], labels: Sequence[bool]) -> float:
    """Average precision (area under the precision-recall curve)."""
    _validate(scores, labels)
    order = sorted(range(len(scores)), key=lambda i: scores[i], reverse=True)
    n_positives = sum(1 for label in labels if label)
    if n_positives == 0:
        return 0.0
    hits = 0
    precision_sum = 0.0
    for rank, index in enumerate(order, start=1):
        if labels[index]:
            hits += 1
            precision_sum += hits / rank
    return precision_sum / n_positives


def precision_at_k(scores: Sequence[float], labels: Sequence[bool],
                   k: Optional[int] = None) -> float:
    """Precision among the ``k`` highest-scored points.

    ``k`` defaults to the number of true outliers (the standard "R-precision"
    convention for outlier detection).
    """
    _validate(scores, labels)
    n_positives = sum(1 for label in labels if label)
    if k is None:
        k = n_positives
    if k <= 0:
        return 0.0
    order = sorted(range(len(scores)), key=lambda i: scores[i], reverse=True)
    top = order[:k]
    return sum(1 for i in top if labels[i]) / k


def subspace_recovery_rate(reported: Iterable[Optional[Sequence[Subspace]]],
                           truth: Iterable[Optional[Subspace]]) -> float:
    """Fraction of detected outliers whose true subspace was recovered.

    ``reported`` holds, per detected outlier, the subspaces the detector
    blamed; ``truth`` holds the subspace each outlier was actually planted in.
    An outlier counts as recovered when one of the reported subspaces shares
    at least one attribute with the true subspace *and* is contained in it or
    contains it — i.e. the explanation points at the right attributes, not
    merely at any sparse region.  Pairs whose truth is ``None`` are skipped.
    """
    considered = 0
    recovered = 0
    for reported_subspaces, true_subspace in zip(reported, truth):
        if true_subspace is None:
            continue
        considered += 1
        if not reported_subspaces:
            continue
        for candidate in reported_subspaces:
            overlap = set(candidate.dimensions) & set(true_subspace.dimensions)
            if overlap and (candidate <= true_subspace or true_subspace <= candidate):
                recovered += 1
                break
    return recovered / considered if considered else 0.0
