"""Concept-drift construction and detection utilities.

SPOT's adaptation mechanisms (decayed summaries, OS growth, CS self-evolution)
only matter when the stream's generating process changes.  This module
provides

* :func:`abrupt_drift_stream` / :class:`GradualDriftStream` — build drifting
  workloads out of any two base streams, and
* :class:`DriftDetector` — the simple distribution-shift monitor referenced by
  the paper's architecture ("concept drift detection"): it tracks the fraction
  of recent points that land in previously unpopulated base cells and raises a
  drift signal when that fraction exceeds a threshold, i.e. when the stream
  starts visiting regions of the space the summaries know nothing about.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Deque, Iterable, Iterator, Optional, Sequence

import numpy as np

from ..core.exceptions import ConfigurationError
from ..core.grid import Grid
from .base import ConcatStream, DataStream, StreamPoint


def abrupt_drift_stream(before: DataStream, after: DataStream) -> DataStream:
    """Concatenate two streams to create a single abrupt concept drift."""
    return ConcatStream([before, after])


class GradualDriftStream(DataStream):
    """Blend two streams over a transition window.

    During the transition the probability of drawing the next point from the
    ``after`` stream ramps linearly from 0 to 1, producing a gradual drift
    rather than a sharp switch.
    """

    def __init__(self, before: DataStream, after: DataStream, *,
                 n_before: int, n_transition: int, n_after: int,
                 seed: int = 0) -> None:
        if before.dimensionality != after.dimensionality:
            raise ConfigurationError(
                "both streams must share one dimensionality "
                f"({before.dimensionality} != {after.dimensionality})"
            )
        if min(n_before, n_transition, n_after) < 0:
            raise ConfigurationError("segment lengths must be non-negative")
        if n_before + n_transition + n_after <= 0:
            raise ConfigurationError("the drift stream must contain points")
        self._before = before
        self._after = after
        self._n_before = n_before
        self._n_transition = n_transition
        self._n_after = n_after
        self._seed = seed

    @property
    def dimensionality(self) -> int:
        return self._before.dimensionality

    def __len__(self) -> int:
        return self._n_before + self._n_transition + self._n_after

    def __iter__(self) -> Iterator[StreamPoint]:
        rng = random.Random(self._seed)
        before_iter = iter(self._before)
        after_iter = iter(self._after)

        def next_from(iterator: Iterator[StreamPoint],
                      fallback: Iterator[StreamPoint]) -> StreamPoint:
            try:
                return next(iterator)
            except StopIteration:
                return next(fallback)

        for _ in range(self._n_before):
            yield next_from(before_iter, after_iter)
        for i in range(self._n_transition):
            blend = (i + 1) / (self._n_transition + 1)
            if rng.random() < blend:
                yield next_from(after_iter, before_iter)
            else:
                yield next_from(before_iter, after_iter)
        for _ in range(self._n_after):
            yield next_from(after_iter, before_iter)


@dataclass
class DriftSignal:
    """Outcome of feeding one point to the drift detector."""

    drift_detected: bool
    novelty_rate: float


class DriftDetector:
    """Novel-cell-rate monitor for concept-drift detection.

    The detector keeps a sliding window of booleans recording, for each recent
    point, whether its base cell had ever been seen before.  A healthy,
    stationary stream quickly exhausts its set of populated cells, so the
    novel-cell rate decays towards zero; a concept drift makes the stream
    visit new cells and the rate jumps.

    Parameters
    ----------
    grid:
        The grid used to discretise points (normally the detector's own grid).
    window:
        Number of recent points the novelty rate is computed over.
    threshold:
        Novelty rate above which drift is signalled.
    warmup:
        Number of initial points during which no drift is ever signalled
        (every cell is novel at the very beginning).
    """

    def __init__(self, grid: Grid, *, window: int = 200,
                 threshold: float = 0.3, warmup: int = 300) -> None:
        if window <= 0:
            raise ConfigurationError("window must be positive")
        if not 0.0 < threshold <= 1.0:
            raise ConfigurationError("threshold must lie in (0, 1]")
        if warmup < 0:
            raise ConfigurationError("warmup must be non-negative")
        self._grid = grid
        self._window = window
        self._threshold = threshold
        self._warmup = warmup
        self._seen_cells: set = set()
        self._recent: Deque[bool] = deque(maxlen=window)
        self._points = 0
        self._drift_count = 0

    @property
    def drift_count(self) -> int:
        """Number of points at which drift was signalled so far."""
        return self._drift_count

    def novelty_rate(self) -> float:
        """Fraction of the recent window that landed in never-seen cells."""
        if not self._recent:
            return 0.0
        return sum(self._recent) / len(self._recent)

    def observe(self, point: Sequence[float],
                cell: Optional[tuple] = None) -> DriftSignal:
        """Feed one point; returns whether drift is currently signalled.

        ``cell`` lets batch callers hand over the point's already-quantised
        base-cell address so it is not recomputed per point.
        """
        if cell is None:
            cell = self._grid.base_cell(point)
        novel = cell not in self._seen_cells
        self._seen_cells.add(cell)
        self._recent.append(novel)
        self._points += 1
        rate = self.novelty_rate()
        drift = (self._points > self._warmup
                 and len(self._recent) == self._recent.maxlen
                 and rate >= self._threshold)
        if drift:
            self._drift_count += 1
        return DriftSignal(drift_detected=drift, novelty_rate=rate)

    def observe_cells(self, cells: Iterable[tuple]) -> None:
        """Feed a chunk of already-quantised base cells in stream order.

        Same per-point semantics as :meth:`observe` (novelty, window, drift
        counting) without building a :class:`DriftSignal` per point — the
        batch detection path discards the signals anyway.
        """
        seen = self._seen_cells
        recent = self._recent
        maxlen = recent.maxlen
        warmup = self._warmup
        threshold = self._threshold
        points = self._points
        drifts = 0
        # Running window count instead of re-summing the deque per point:
        # count / maxlen is exactly novelty_rate() whenever the window is
        # full, which is the only case the drift test reads it.
        count = sum(recent)
        for cell in cells:
            novel = cell not in seen
            if novel:
                seen.add(cell)
            if len(recent) == maxlen:
                count -= recent[0]
            recent.append(novel)
            count += novel
            points += 1
            if (points > warmup and len(recent) == maxlen
                    and count / maxlen >= threshold):
                drifts += 1
        self._points = points
        self._drift_count += drifts

    def reset(self) -> None:
        """Forget the seen-cell set and the recent window (after adaptation)."""
        self._seen_cells.clear()
        self._recent.clear()
        self._points = 0

    def state_to_dict(self, array_mode: str = "json") -> dict:
        """Snapshot for detector checkpointing (seen cells + recent window).

        ``array_mode`` other than ``"json"`` exports the seen-cell set as a
        sorted ``(n, phi)`` int64 matrix — it grows with every populated
        base cell, so the array form keeps ``.npz`` snapshot cost flat.
        Built fresh either way, so "view" and "copy" coincide.
        """
        if array_mode == "json" or not self._seen_cells:
            seen: object = sorted(list(cell) for cell in self._seen_cells)
        else:
            seen = np.asarray(sorted(self._seen_cells), dtype=np.int64)
        return {
            "window": self._window,
            "threshold": self._threshold,
            "warmup": self._warmup,
            "seen_cells": seen,
            "recent": [bool(flag) for flag in self._recent],
            "points": self._points,
            "drift_count": self._drift_count,
        }

    def restore_state(self, payload: dict) -> None:
        """Inverse of :meth:`state_to_dict` (grid is supplied at construction)."""
        self._window = int(payload["window"])
        self._threshold = float(payload["threshold"])
        self._warmup = int(payload["warmup"])
        seen = payload["seen_cells"]
        if isinstance(seen, np.ndarray):
            seen = seen.tolist()
        self._seen_cells = {tuple(int(i) for i in cell) for cell in seen}
        self._recent = deque((bool(flag) for flag in payload["recent"]),
                             maxlen=self._window)
        self._points = int(payload["points"])
        self._drift_count = int(payload["drift_count"])
