"""Stream-id-carrying points and multiplexed multi-tenant streams.

A production deployment serves many independent streams (tenants) over one
ingestion path, so points must carry *which* stream they belong to.
:class:`TaggedStreamPoint` wraps a :class:`~repro.streams.base.StreamPoint`
with a ``stream_id``; it exposes the wrapped point's ``values`` /
``is_outlier`` / ``dimensionality`` so detector-facing code that only needs
the attribute vector (``_coerce_point`` reads ``.values``) accepts tagged and
plain points alike.

:class:`MultiplexedStream` interleaves several named base streams into one
tagged arrival sequence — deterministic given its seed, which is what lets
the evaluation harness compare a sharded service run against per-partition
reference runs point for point.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..core.exceptions import ConfigurationError
from ..core.subspace import Subspace
from .base import DataStream, StreamPoint


@dataclass(frozen=True)
class TaggedStreamPoint:
    """One element of a multiplexed stream: a point plus its stream id."""

    stream_id: str
    point: StreamPoint

    @property
    def values(self) -> Tuple[float, ...]:
        """Attribute vector of the wrapped point."""
        return self.point.values

    @property
    def is_outlier(self) -> bool:
        """Ground-truth label of the wrapped point."""
        return self.point.is_outlier

    @property
    def outlying_subspace(self) -> Optional[Subspace]:
        """True outlying subspace of the wrapped point, when known."""
        return self.point.outlying_subspace

    @property
    def category(self) -> str:
        """Generating-process tag of the wrapped point."""
        return self.point.category

    @property
    def dimensionality(self) -> int:
        """Number of attributes of the wrapped point."""
        return self.point.dimensionality


def tag_points(stream_id: str,
               points: Iterable[StreamPoint]) -> List[TaggedStreamPoint]:
    """Wrap every point of one stream with its stream id."""
    return [TaggedStreamPoint(stream_id=stream_id, point=point)
            for point in points]


def values_by_stream(points: Iterable[TaggedStreamPoint]
                     ) -> Dict[str, List[Tuple[float, ...]]]:
    """Group the attribute vectors of tagged points by stream id (in order)."""
    grouped: Dict[str, List[Tuple[float, ...]]] = {}
    for point in points:
        grouped.setdefault(point.stream_id, []).append(point.values)
    return grouped


class MultiplexedStream(DataStream):
    """Deterministic interleaving of several named streams into one.

    Parameters
    ----------
    streams:
        Mapping (or ordered pairs) of stream id to base stream.  All base
        streams must share one dimensionality.
    seed:
        Seed of the interleaving order (``mode="shuffled"`` only).
    mode:
        ``"shuffled"`` (default) draws the next point from a uniformly random
        not-yet-exhausted stream; ``"roundrobin"`` cycles through the streams
        in registration order.  Both orders are deterministic given the seed
        and the member streams.

    Iteration yields :class:`TaggedStreamPoint` (note the deviation from the
    plain-:class:`StreamPoint` base contract); ``take``/``split`` work
    unchanged because tagged points expose ``dimensionality`` and ``values``.
    """

    def __init__(self,
                 streams: Mapping[str, DataStream] | Sequence[Tuple[str, DataStream]],
                 *, seed: int = 0, mode: str = "shuffled") -> None:
        items = list(streams.items()) if isinstance(streams, Mapping) \
            else list(streams)
        if not items:
            raise ConfigurationError(
                "MultiplexedStream needs at least one member stream")
        if mode not in ("shuffled", "roundrobin"):
            raise ConfigurationError(
                f"mode must be 'shuffled' or 'roundrobin', got {mode!r}")
        ids = [stream_id for stream_id, _ in items]
        if len(set(ids)) != len(ids):
            raise ConfigurationError("stream ids must be unique")
        dims = {stream.dimensionality for _, stream in items}
        if len(dims) != 1:
            raise ConfigurationError(
                f"cannot multiplex streams with different dimensionalities: {dims}"
            )
        self._streams = items
        self._seed = seed
        self._mode = mode

    @property
    def stream_ids(self) -> Tuple[str, ...]:
        """Ids of the member streams, in registration order."""
        return tuple(stream_id for stream_id, _ in self._streams)

    @property
    def dimensionality(self) -> int:
        return self._streams[0][1].dimensionality

    def __iter__(self) -> Iterator[TaggedStreamPoint]:
        iterators: List[Tuple[str, Iterator[StreamPoint]]] = [
            (stream_id, iter(stream)) for stream_id, stream in self._streams
        ]
        rng = random.Random(self._seed)
        cursor = 0
        while iterators:
            if self._mode == "shuffled":
                index = rng.randrange(len(iterators))
            else:
                index = cursor % len(iterators)
            stream_id, iterator = iterators[index]
            try:
                point = next(iterator)
            except StopIteration:
                iterators.pop(index)
                continue
            cursor += 1
            yield TaggedStreamPoint(stream_id=stream_id, point=point)
