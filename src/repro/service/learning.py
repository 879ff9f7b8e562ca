"""The learning coordinator: online MOGA off the detection hot path.

``LearningCoordinator`` is the learning half of the serving layer.  Detection
shards running in deferred-learning mode emit
:mod:`repro.learning.requests` objects (self-evolution due, outlier-driven
growth, periodic relearn) instead of searching inline; the coordinator

* **evaluates** every request with
  :func:`~repro.learning.requests.evaluate_learn_request` on a thread pool
  (NumPy releases the GIL inside the fused objective passes), overlapping
  searches with each other and with the shards' detection work,
* **publishes** the resulting ranked subspaces back as
  :class:`~repro.learning.requests.LearnPublication` objects, which the
  shard workers apply at the request's deterministic apply point.

A shard submits the requests of one apply point together, as one group on
one reservoir snapshot; the group's publications come back in request
order through a single :class:`LearnTicket`.

Because every request is pure data and every evaluation is a pure function,
the publications are bit-identical to what the synchronous path computes —
the coordinator changes *where* the search runs, never what it returns.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence

from ..core.exceptions import ConfigurationError
from ..core.grid import Grid
from ..learning.requests import LearnPublication, evaluate_learn_request
from ..obs.trace import NULL_TRACER


class LearnTicket:
    """Handle on one submitted request group; resolves to its publications."""

    def __init__(self, request_ids: Sequence[str], future: Future) -> None:
        self.request_ids = tuple(request_ids)
        self._future = future

    def wait(self, timeout: Optional[float] = None) -> List[LearnPublication]:
        """Block until the group is evaluated; publications in request order."""
        return list(self._future.result(timeout=timeout))


class LearningCoordinator:
    """Evaluates learn requests on a pool of ``workers`` threads."""

    def __init__(self, workers: int = 2, *, tracer=None) -> None:
        if workers < 1:
            raise ConfigurationError(
                f"workers must be positive, got {workers}")
        self.workers = workers
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._executor: Optional[ThreadPoolExecutor] = None
        self._lock = threading.Lock()
        self._started = False
        self._stopped = False
        self._requests = 0
        self._kind_counts: Dict[str, int] = {}
        self._busy_seconds = 0.0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "LearningCoordinator":
        """Spin up the worker pool."""
        if self._started:
            raise ConfigurationError("the coordinator is already started")
        if self._stopped:
            raise ConfigurationError(
                "a stopped coordinator cannot be restarted")
        self._executor = ThreadPoolExecutor(max_workers=self.workers,
                                            thread_name_prefix="spot-learn")
        self._started = True
        return self

    def stop(self) -> None:
        """Finish in-flight evaluations and shut the pool down."""
        if not self._started or self._stopped:
            return
        self._stopped = True
        assert self._executor is not None
        self._executor.shutdown(wait=True)

    def __enter__(self) -> "LearningCoordinator":
        return self.start() if not self._started else self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def submit(self, shard_id: int, grid: Grid, requests: Sequence
               ) -> LearnTicket:
        """Queue one apply point's request group; returns its ticket.

        All requests of a group must share one reservoir snapshot: they are
        the triggers of a single stream position, and the worker applies
        their publications together at that one apply point.
        """
        if not self._started or self._stopped:
            raise ConfigurationError(
                "the learning coordinator is not running")
        if not requests:
            raise ConfigurationError("cannot submit an empty request group")
        versions = {request.snapshot.version for request in requests}
        if len(versions) > 1:
            raise ConfigurationError(
                f"a request group must share one snapshot version, "
                f"got {sorted(versions)}")
        with self._lock:
            self._requests += len(requests)
            for request in requests:
                self._kind_counts[request.kind] = \
                    self._kind_counts.get(request.kind, 0) + 1
        assert self._executor is not None
        future = self._executor.submit(self._evaluate_group, shard_id, grid,
                                       list(requests))
        return LearnTicket([r.request_id for r in requests], future)

    def _evaluate_group(self, shard_id: int, grid: Grid,
                        requests: List) -> List[LearnPublication]:
        started = time.perf_counter()
        with self.tracer.span("learning.evaluate", shard=shard_id,
                              request=requests[0].request_id,
                              n=len(requests)):
            # Looked up as a module global at call time, so a wrapper bound
            # to this module's ``evaluate_learn_request`` sees every search.
            publications = [evaluate_learn_request(request, grid)
                            for request in requests]
        with self._lock:
            self._busy_seconds += time.perf_counter() - started
        return publications

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, object]:
        """Coordinator-side serving statistics."""
        with self._lock:
            return {
                "workers": self.workers,
                "requests": self._requests,
                "busy_seconds": round(self._busy_seconds, 4),
                "kinds": dict(self._kind_counts),
            }
