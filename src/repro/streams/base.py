"""Stream abstractions shared by every workload generator.

A *stream* in this library is an iterable of :class:`StreamPoint` objects.
Generators are deterministic given their seed, can be bounded or unbounded,
and carry ground-truth labels (outlier / regular, plus the true outlying
subspace when known) so that the evaluation harness can score detectors
without any external dataset.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from ..core.exceptions import StreamExhaustedError
from ..core.subspace import Subspace


@dataclass(frozen=True)
class StreamPoint:
    """One element of a labelled data stream.

    Attributes
    ----------
    values:
        The attribute vector of the point.
    is_outlier:
        Ground-truth label; ``True`` for injected projected outliers.
    outlying_subspace:
        The subspace in which the point was made anomalous, when the
        generator knows it (synthetic workloads).  ``None`` otherwise.
    category:
        Free-form tag describing the point's generating process (cluster id,
        attack type, fault type...), useful for per-class breakdowns.
    """

    values: Tuple[float, ...]
    is_outlier: bool = False
    outlying_subspace: Optional[Subspace] = None
    category: str = "normal"

    @property
    def dimensionality(self) -> int:
        """Number of attributes of the point."""
        return len(self.values)


class DataStream(abc.ABC):
    """Base class for every stream generator in :mod:`repro.streams`."""

    @abc.abstractmethod
    def __iter__(self) -> Iterator[StreamPoint]:
        """Yield the stream's points in arrival order."""

    @property
    @abc.abstractmethod
    def dimensionality(self) -> int:
        """Number of attributes of every point the stream produces."""

    def take(self, n: int) -> List[StreamPoint]:
        """Materialise the next ``n`` points.

        Raises :class:`StreamExhaustedError` if the stream ends early, so
        experiment code never silently runs on a shorter stream than it
        configured.
        """
        points: List[StreamPoint] = []
        iterator = iter(self)
        for _ in range(n):
            try:
                points.append(next(iterator))
            except StopIteration as exc:
                raise StreamExhaustedError(
                    f"stream produced only {len(points)} of the {n} requested points"
                ) from exc
        return points

    def split(self, n_training: int,
              n_detection: int) -> Tuple[List[StreamPoint], List[StreamPoint]]:
        """Materialise a training prefix and a detection segment in one pass."""
        combined = self.take(n_training + n_detection)
        return combined[:n_training], combined[n_training:]


class ListStream(DataStream):
    """A finite stream backed by an in-memory list of points.

    Useful for tests, for replaying recorded segments, and as the output type
    of transformations such as drift injection.
    """

    def __init__(self, points: Sequence[StreamPoint]) -> None:
        self._points = list(points)
        if self._points:
            width = self._points[0].dimensionality
            for point in self._points:
                if point.dimensionality != width:
                    raise ValueError(
                        "all points of a ListStream must share one dimensionality"
                    )

    def __iter__(self) -> Iterator[StreamPoint]:
        return iter(self._points)

    def __len__(self) -> int:
        return len(self._points)

    @property
    def dimensionality(self) -> int:
        if not self._points:
            return 0
        return self._points[0].dimensionality

    @property
    def points(self) -> List[StreamPoint]:
        """The backing list (not copied; treat as read-only)."""
        return self._points


class ConcatStream(DataStream):
    """Concatenation of several streams, played back to back.

    The workhorse of drift experiments: a stream whose generating process
    changes abruptly is simply the concatenation of two differently
    parameterised generators.
    """

    def __init__(self, streams: Sequence[DataStream]) -> None:
        if not streams:
            raise ValueError("ConcatStream needs at least one stream")
        dims = {stream.dimensionality for stream in streams}
        if len(dims) != 1:
            raise ValueError(
                f"cannot concatenate streams with different dimensionalities: {dims}"
            )
        self._streams = list(streams)

    def __iter__(self) -> Iterator[StreamPoint]:
        for stream in self._streams:
            yield from stream

    @property
    def dimensionality(self) -> int:
        return self._streams[0].dimensionality


def values_of(points: Iterable[StreamPoint]) -> List[Tuple[float, ...]]:
    """Extract the raw attribute vectors of a sequence of points."""
    return [point.values for point in points]


def labels_of(points: Iterable[StreamPoint]) -> List[bool]:
    """Extract the ground-truth outlier labels of a sequence of points."""
    return [point.is_outlier for point in points]
