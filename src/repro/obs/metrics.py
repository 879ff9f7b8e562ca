"""Typed metrics: counters, gauges and bounded streaming histograms.

The registry replaces the serving layer's hand-rolled stat dicts with named,
labelled instruments that snapshot to one stable JSON schema
(``spot-metrics/v1``).  Two design constraints drive the shapes here:

* **Bounded memory.**  :class:`StreamingHistogram` keeps a sparse dict of
  log-spaced bucket counts (about 40 buckets per decade) plus exact
  count/sum/min/max, so percentile queries cost a few percent of relative
  error while a billion recorded latencies cost the same memory as a
  thousand.  This is what backs the previously unbounded
  :class:`~repro.metrics.throughput.LatencySeries`.
* **Exact counters.**  The robustness block of
  :meth:`~repro.service.service.DetectionService.stats` is built *from* the
  registry, so a metrics snapshot and the stats dict can never disagree
  about a restart or a shed point.

Instruments are plain attribute objects (``.inc()`` / ``.set()`` /
``.record()``); mutation is lock-free by design — every call site in the
serving layer already runs under the service lock, mirroring the historical
``ShardStats`` fields they replace.  Registry *creation* is thread-safe.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, Iterable, Optional, Tuple

from ..core.exceptions import ConfigurationError

#: Schema tag of every registry snapshot.
METRICS_SCHEMA = "spot-metrics/v1"

#: Log-bucket resolution: buckets per decade.  40/decade puts neighbouring
#: bucket edges ~5.9% apart, so interpolated percentiles land within a few
#: percent of the exact order statistic.
BUCKETS_PER_DECADE = 40


class StreamingHistogram:
    """Sparse log-bucketed histogram with exact count/sum/min/max.

    Values ``<= 0`` land in a dedicated bucket pinned at 0.0 (latencies and
    sizes are non-negative; an exact zero is common for empty timings).
    Percentiles interpolate linearly inside a bucket and are clamped to the
    exact observed ``[min, max]``, so ``percentile(0)``/``percentile(100)``
    are always exact.
    """

    __slots__ = ("_buckets", "_nonpositive", "count", "total", "_min", "_max")

    def __init__(self) -> None:
        self._buckets: Dict[int, int] = {}
        self._nonpositive = 0
        self.count = 0
        self.total = 0.0
        self._min = math.inf
        self._max = -math.inf

    @staticmethod
    def _bucket_of(value: float) -> int:
        return math.floor(math.log10(value) * BUCKETS_PER_DECADE)

    @staticmethod
    def _edges(index: int) -> Tuple[float, float]:
        return (10.0 ** (index / BUCKETS_PER_DECADE),
                10.0 ** ((index + 1) / BUCKETS_PER_DECADE))

    def record(self, value: float) -> None:
        """Fold one observation into the histogram."""
        value = float(value)
        self.count += 1
        self.total += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if value <= 0.0:
            self._nonpositive += 1
            return
        index = self._bucket_of(value)
        self._buckets[index] = self._buckets.get(index, 0) + 1

    def merge(self, other: "StreamingHistogram") -> None:
        """Fold another histogram's observations into this one."""
        for index, count in other._buckets.items():
            self._buckets[index] = self._buckets.get(index, 0) + count
        self._nonpositive += other._nonpositive
        self.count += other.count
        self.total += other.total
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)

    @property
    def min(self) -> float:
        """Smallest observation (0.0 when empty)."""
        return self._min if self.count else 0.0

    @property
    def max(self) -> float:
        """Largest observation (0.0 when empty)."""
        return self._max if self.count else 0.0

    def mean(self) -> float:
        """Exact mean of every observation."""
        if self.count == 0:
            return 0.0
        return self.total / self.count

    def percentile(self, q: float) -> float:
        """Approximate ``q``-th percentile, ``q`` in [0, 100].

        Matches :class:`~repro.metrics.throughput.LatencySeries` semantics
        (linear interpolation over the 0-indexed order statistics) up to the
        bucket resolution; exact at the extremes.
        """
        if not 0.0 <= q <= 100.0:
            raise ConfigurationError(
                f"percentile must lie in [0, 100], got {q}")
        if self.count == 0:
            return 0.0
        if q == 0.0:
            return self._min
        if q == 100.0:
            return self._max
        rank = (q / 100.0) * (self.count - 1)
        # Walk the buckets in value order; inside the covering bucket,
        # spread its observations evenly between the edges.
        cumulative = 0
        value = self._max
        for index, count, low, high in self._ordered():
            if rank < cumulative + count:
                fraction = (rank - cumulative + 0.5) / count
                value = low + (high - low) * min(1.0, max(0.0, fraction))
                break
            cumulative += count
        return min(max(value, self._min), self._max)

    def _ordered(self) -> Iterable[Tuple[int, int, float, float]]:
        if self._nonpositive:
            yield (-(10 ** 9), self._nonpositive, min(0.0, self._min), 0.0)
        for index in sorted(self._buckets):
            low, high = self._edges(index)
            yield (index, self._buckets[index], low, high)

    def as_dict(self) -> Dict[str, float]:
        """Bounded summary view used by registry snapshots."""
        return {
            "count": self.count,
            "mean": self.mean(),
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(50.0),
            "p95": self.percentile(95.0),
            "p99": self.percentile(99.0),
        }


class Counter:
    """Monotonic counter; ``.inc()`` to bump, ``.value`` to read."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name} cannot decrease (inc by {amount})")
        self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def __repr__(self) -> str:
        return f"Counter({self.name}={self._value})"


class Gauge:
    """Point-in-time value; ``.set()`` to overwrite, ``.value`` to read."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = float(value)

    @property
    def value(self) -> float:
        return self._value

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self._value})"


def _json_number(value: float):
    """Render counters as ints when they are ints (stable, diffable JSON)."""
    return int(value) if float(value).is_integer() else value


class MetricsRegistry:
    """Named, labelled instruments with a stable JSON snapshot.

    Keys are ``name{label=value,...}`` with labels sorted, so the snapshot
    ordering is deterministic.  ``get-or-create`` accessors make wiring
    trivial: the first caller defines the instrument, later callers share
    it.  External histograms (e.g. the one backing a
    :class:`~repro.metrics.throughput.LatencySeries`) can be adopted via
    :meth:`register_histogram`, so hot paths keep a direct reference and the
    snapshot still sees them.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, StreamingHistogram] = {}

    @staticmethod
    def _key(name: str, labels: Dict[str, object]) -> str:
        if not labels:
            return name
        inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
        return f"{name}{{{inner}}}"

    def counter(self, name: str, **labels) -> Counter:
        key = self._key(name, labels)
        with self._lock:
            instrument = self._counters.get(key)
            if instrument is None:
                instrument = self._counters[key] = Counter(key)
            return instrument

    def gauge(self, name: str, **labels) -> Gauge:
        key = self._key(name, labels)
        with self._lock:
            instrument = self._gauges.get(key)
            if instrument is None:
                instrument = self._gauges[key] = Gauge(key)
            return instrument

    def histogram(self, name: str, **labels) -> StreamingHistogram:
        key = self._key(name, labels)
        with self._lock:
            instrument = self._histograms.get(key)
            if instrument is None:
                instrument = self._histograms[key] = StreamingHistogram()
            return instrument

    def register_histogram(self, name: str, histogram: StreamingHistogram,
                           **labels) -> StreamingHistogram:
        """Adopt an externally owned histogram under a registry key."""
        key = self._key(name, labels)
        with self._lock:
            self._histograms[key] = histogram
        return histogram

    def instrument_count(self) -> int:
        """How many instruments (counters + gauges + histograms) exist."""
        with self._lock:
            return (len(self._counters) + len(self._gauges)
                    + len(self._histograms))

    def total(self, name: str) -> float:
        """Sum of a counter across all of its label variants."""
        prefix = name + "{"
        with self._lock:
            return sum(c.value for key, c in self._counters.items()
                       if key == name or key.startswith(prefix))

    def snapshot(self) -> Dict[str, object]:
        """Stable, JSON-serialisable view of every instrument."""
        with self._lock:
            counters = {key: _json_number(c.value)
                        for key, c in sorted(self._counters.items())}
            gauges = {key: _json_number(g.value)
                      for key, g in sorted(self._gauges.items())}
            histograms = {key: h.as_dict()
                          for key, h in sorted(self._histograms.items())}
        return {
            "schema": METRICS_SCHEMA,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }


_GLOBAL_REGISTRY: Optional[MetricsRegistry] = None
_GLOBAL_LOCK = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry (services default to their own)."""
    global _GLOBAL_REGISTRY
    with _GLOBAL_LOCK:
        if _GLOBAL_REGISTRY is None:
            _GLOBAL_REGISTRY = MetricsRegistry()
        return _GLOBAL_REGISTRY
