"""Shard workers: drive one detector shard off its micro-batch queue.

A :class:`ShardWorker` is a daemon thread owning its detector in-process:
zero serialisation cost, shared memory, and (because NumPy releases the GIL
inside large array ops) some overlap between shards.  It exposes
``start()``, ``retire()``, ``shutdown()``, ``export_state()`` and a
``failure`` attribute to the service, and delivers every processed batch
through the service's ``on_results`` callback:

    on_results(shard_id, items, results, busy_seconds, error, shed=False)

with ``results`` a list of :class:`~repro.core.results.DetectionResult`
aligned with ``items`` (or ``None`` when ``error`` is set, or when
``shed=True`` marks points dropped past their detection deadline).

Failure semantics are a policy of the owner: standalone (the historical
default, ``quarantine_on_failure=True``) a failed shard rejects every later
batch so nothing is scored against a possibly half-updated store; under a
:class:`~repro.service.supervisor.ShardSupervisor`
(``quarantine_on_failure=False``) the worker *retires* instead — it stops
consuming, hands any batch it already popped back to the queue, and leaves
the backlog for the replacement worker the supervisor builds from the last
checkpoint.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, List, Optional

from ..core.detector import SPOT
from ..core.exceptions import ConfigurationError
from ..metrics.throughput import LatencySeries
from ..obs.metrics import MetricsRegistry
from ..obs.recorder import NULL_RECORDER
from ..obs.trace import NULL_TRACER
from .batcher import BatchItem, MicroBatcher
from .faults import FaultInjector, InjectedFault
from .learning import LearningCoordinator, LearnTicket

ResultsCallback = Callable[..., None]

DEADLINE_POLICIES = ("shed", "degrade")


class ShardStats:
    """Serving statistics of one shard (maintained by the service).

    Every field is a registry-backed instrument (``service.<name>`` with a
    ``shard`` label), so a metrics snapshot and this object can never
    disagree.  Mutation sites call ``.inc()`` under the service lock — the
    same discipline the plain ``+=`` fields historically relied on.  The two
    latency series keep their :class:`LatencySeries` type (now bounded) and
    register their backing histograms under ``service.latency_seconds`` /
    ``service.path_seconds``.
    """

    def __init__(self, shard_id: int,
                 registry: Optional[MetricsRegistry] = None) -> None:
        registry = registry if registry is not None else MetricsRegistry()
        self.registry = registry
        self.shard_id = shard_id
        self.points = registry.counter("service.points", shard=shard_id)
        self.batches = registry.counter("service.batches", shard=shard_id)
        self.busy_seconds = registry.counter("service.busy_seconds",
                                             shard=shard_id)
        self.errors = registry.counter("service.errors", shard=shard_id)
        #: Robustness counters (see the fault-tolerance layer): points
        #: dropped past their deadline, points scored late under the
        #: "degrade" policy, poison points skipped by the supervisor, worker
        #: restarts, and the total time spent recovering.
        self.shed_points = registry.counter("service.shed_points",
                                            shard=shard_id)
        self.degraded_points = registry.counter("service.degraded_points",
                                                shard=shard_id)
        self.quarantined_points = registry.counter(
            "service.quarantined_points", shard=shard_id)
        self.restarts = registry.counter("service.restarts", shard=shard_id)
        self.recovery_seconds = registry.counter("service.recovery_seconds",
                                                 shard=shard_id)
        self.latency = LatencySeries()
        #: Detection-path latency: the time the ``process_batch`` call that
        #: scored a point spent on the detection path (one sample per
        #: point).  Inline learning charges its MOGA searches here; deferred
        #: learning moves them to the coordinator, which is exactly what the
        #: L2 benchmark measures.
        self.path_latency = LatencySeries()
        registry.register_histogram("service.latency_seconds",
                                    self.latency.histogram, shard=shard_id)
        registry.register_histogram("service.path_seconds",
                                    self.path_latency.histogram,
                                    shard=shard_id)

    @property
    def points_per_second(self) -> float:
        """Throughput over the shard's *busy* time (excludes idle waits)."""
        if self.busy_seconds.value <= 0.0:
            return 0.0
        return self.points.value / self.busy_seconds.value

    @property
    def mean_batch_size(self) -> float:
        """Average number of points coalesced per ``process_batch`` call."""
        if self.batches.value == 0:
            return 0.0
        return self.points.value / self.batches.value

    def as_dict(self) -> dict:
        """Flat reporting view (throughput + latency percentiles)."""
        latency = self.latency.as_dict()
        path = self.path_latency.as_dict()
        return {
            "shard": self.shard_id,
            "points": int(self.points.value),
            "batches": int(self.batches.value),
            "mean_batch_size": round(self.mean_batch_size, 1),
            "busy_seconds": round(self.busy_seconds.value, 4),
            "points_per_second": round(self.points_per_second, 1),
            "latency_p50_ms": round(1e3 * latency["p50"], 3),
            "latency_p95_ms": round(1e3 * latency["p95"], 3),
            "latency_p99_ms": round(1e3 * latency["p99"], 3),
            "path_p50_ms": round(1e3 * path["p50"], 3),
            "path_p95_ms": round(1e3 * path["p95"], 3),
            "path_p99_ms": round(1e3 * path["p99"], 3),
            "errors": int(self.errors.value),
            "shed_points": int(self.shed_points.value),
            "degraded_points": int(self.degraded_points.value),
            "quarantined_points": int(self.quarantined_points.value),
            "restarts": int(self.restarts.value),
            "recovery_ms": round(1e3 * self.recovery_seconds.value, 1),
        }


class ShardWorker(threading.Thread):
    """One daemon thread per shard, detector in-process.

    With a ``learning`` coordinator attached (deferred-learning mode) the
    worker drives the incremental loop: score a batch until the detector
    stops at an apply point, deliver the scored prefix immediately, hand the
    emitted learn requests to the coordinator, and block for the
    publications only when more points actually need them — the wait happens
    *between* ``process_batch`` calls, off the detection path, and overlaps
    with other shards' detection and searches.  Without a coordinator any
    pending requests (e.g. restored from a mid-flight checkpoint) are
    resolved inline.
    """

    #: Upper bound on one publication wait; a search that exceeds it turns
    #: into a shard failure instead of a silent hang.
    LEARN_TIMEOUT = 600.0

    def __init__(self, shard_id: int, detector: SPOT, batcher: MicroBatcher,
                 on_results: ResultsCallback,
                 learning: Optional[LearningCoordinator] = None, *,
                 faults: Optional[FaultInjector] = None,
                 deadline: float = 0.0, deadline_policy: str = "shed",
                 quarantine_on_failure: bool = True,
                 tracer=None, recorder=None) -> None:
        super().__init__(name=f"spot-shard-{shard_id}", daemon=True)
        if deadline_policy not in DEADLINE_POLICIES:
            raise ConfigurationError(
                f"deadline_policy must be one of {DEADLINE_POLICIES}, "
                f"got {deadline_policy!r}")
        self.shard_id = shard_id
        self.detector = detector
        self.batcher = batcher
        self.on_results = on_results
        self.learning = learning
        self.faults = faults
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.deadline = deadline
        self.deadline_policy = deadline_policy
        self.quarantine_on_failure = quarantine_on_failure
        self.failure: Optional[BaseException] = None
        self._retired = threading.Event()
        self._tickets: dict = {}

    def retire(self) -> None:
        """Stop consuming without closing the queue (supervised recovery)."""
        self._retired.set()
        self.batcher.interrupt()

    def run(self) -> None:
        while True:
            batch = self.batcher.next_batch(stop=self._retired)
            if batch is None:
                if self._retired.is_set():
                    return  # retired mid-failure; the supervisor takes over
                # Graceful shutdown: apply any still-outstanding publication
                # so the stopped fleet holds the same SSTs an uninterrupted
                # synchronous run would (the apply point of a request emitted
                # by the final point lies beyond the stream's end).
                if self.failure is None:
                    try:
                        self._resolve_pending_learns()
                    except Exception as exc:
                        self.failure = exc
                return
            if self.failure is not None:
                if not self.quarantine_on_failure:
                    # Retiring: hand the popped batch back for the successor.
                    self.batcher.requeue(batch)
                    return
                # Quarantine: a failed process_batch may have committed a
                # prefix of its chunk, so the detector's summaries are not
                # trustworthy anymore.  Later batches are rejected instead of
                # being scored against a possibly half-updated store.
                self.on_results(self.shard_id, batch, None, 0.0,
                                f"shard quarantined after earlier failure: "
                                f"{type(self.failure).__name__}: {self.failure}")
                continue
            self._run_batch(batch)
            if self.failure is not None and not self.quarantine_on_failure:
                return  # leave remaining queue traffic to the replacement

    def _shed_overdue(self, batch: List[BatchItem]) -> List[BatchItem]:
        """Drop points past their deadline; returns the still-live ones."""
        if self.deadline <= 0.0 or self.deadline_policy != "shed":
            return batch
        now = time.monotonic()
        live = [item for item in batch
                if now - item.enqueued_at <= self.deadline]
        if len(live) < len(batch):
            overdue = [item for item in batch
                       if now - item.enqueued_at > self.deadline]
            self.on_results(self.shard_id, overdue, None, 0.0, None,
                            shed=True)
        return live

    def _run_batch(self, batch: List[BatchItem]) -> None:
        if self.faults is not None:
            stall = self.faults.stall_seconds([item.seq for item in batch])
            if stall > 0.0:
                time.sleep(stall)
        batch = self._shed_overdue(batch)
        if not batch:
            return
        if self.faults is not None:
            consume = self.faults.crash_consume([item.seq for item in batch])
            if consume is not None:
                # Torn batch: commit a prefix to the detector, then die with
                # the whole batch undelivered — the worst case snapshot-plus-
                # replay recovery has to absorb.
                try:
                    self.detector.process_batch(
                        [item.values for item in batch[:consume]])
                except Exception:
                    pass  # the crash below is the failure under test
                exc = InjectedFault(
                    f"injected worker crash at shard {self.shard_id}")
                self.failure = exc
                self.on_results(self.shard_id, batch, None, 0.0,
                                f"{type(exc).__name__}: {exc}")
                return
        offset = 0
        with self.tracer.span("shard.batch", shard=self.shard_id,
                              seq_first=batch[0].seq, seq_last=batch[-1].seq,
                              n=len(batch)) as batch_span:
            while offset < len(batch):
                try:
                    # Apply every publication due before the next point;
                    # waits (if any) burn queue time, not detection-path
                    # time.
                    self._resolve_pending_learns()
                except Exception as exc:
                    self.failure = exc
                    self.on_results(self.shard_id, batch[offset:], None, 0.0,
                                    f"{type(exc).__name__}: {exc}")
                    return
                started = time.perf_counter()
                with self.tracer.span("shard.score", parent=batch_span,
                                      shard=self.shard_id,
                                      seq_first=batch[offset].seq) as score:
                    try:
                        results = self.detector.process_batch(
                            [item.values for item in batch[offset:]])
                        error = None
                    except Exception as exc:  # surfaced via drain()/stop()
                        self.failure = exc
                        results = None
                        error = f"{type(exc).__name__}: {exc}"
                busy = time.perf_counter() - started
                if error is not None:
                    self.on_results(self.shard_id, batch[offset:], None,
                                    busy, error)
                    return
                consumed = len(results)
                score.annotate(scored=consumed)
                if consumed == 0:
                    # Deferred mode guarantees progress (the stop point is
                    # always *after* the triggering point); zero progress
                    # means the contract broke and looping again would hang
                    # the shard.
                    self.failure = ConfigurationError(
                        "detector made no progress on a non-empty batch")
                    self.on_results(self.shard_id, batch[offset:], None,
                                    busy, str(self.failure))
                    return
                self.on_results(self.shard_id,
                                batch[offset:offset + consumed],
                                results, busy, None)
                offset += consumed
                # Ship new learn requests right away: the searches run on
                # the coordinator pool while this shard waits for its next
                # batch.
                self._dispatch_new_learns()

    # ------------------------------------------------------------------ #
    # Deferred learning plumbing
    # ------------------------------------------------------------------ #
    def _dispatch_new_learns(self) -> None:
        if self.learning is None:
            return
        pending = self.detector.pending_learn_requests
        new = [request for request in pending
               if request.request_id not in self._tickets]
        if not new:
            return
        ticket = self.learning.submit(self.shard_id, self.detector.grid, new)
        if self.tracer.enabled:
            for request in new:
                self.tracer.event("learning.submit", shard=self.shard_id,
                                  request=request.request_id,
                                  kind=request.kind)
        for request in new:
            self._tickets[request.request_id] = ticket

    def _resolve_pending_learns(self) -> None:
        while True:
            pending = self.detector.pending_learn_requests
            if not pending:
                return
            if self.learning is None:
                # No coordinator (synchronous service, or a restored shard
                # before one is attached): replay the searches inline.
                resolved = self.detector.resolve_pending_learns()
                if resolved and self.recorder.enabled:
                    self.recorder.record_event("learn.apply",
                                               shard=self.shard_id,
                                               inline=resolved)
                return
            ticket: Optional[LearnTicket] = \
                self._tickets.get(pending[0].request_id)
            if ticket is None:
                self._dispatch_new_learns()
                ticket = self._tickets[pending[0].request_id]
            with self.tracer.span("learning.wait", shard=self.shard_id,
                                  request=pending[0].request_id):
                publications = ticket.wait(timeout=self.LEARN_TIMEOUT)
            for publication in publications:
                self.detector.apply_learn_publication(publication)
                if self.tracer.enabled:
                    self.tracer.event("learning.apply", shard=self.shard_id,
                                      request=publication.request_id)
                if self.recorder.enabled:
                    self.recorder.record_event(
                        "learn.apply", shard=self.shard_id,
                        request=publication.request_id)
            for request_id in ticket.request_ids:
                self._tickets.pop(request_id, None)

    def shutdown(self, timeout: Optional[float] = None) -> None:
        """Drain-and-stop: close the queue and join the thread."""
        self.batcher.close()
        self.join(timeout=timeout)

    def export_state(self) -> dict:
        """Full-state snapshot of the shard's detector.

        Only safe while the shard is quiescent (the service drains before
        checkpointing, so no batch is in flight).  In deferred-learning mode
        the snapshot carries any still-unapplied learn requests — a restored
        shard re-evaluates them before touching its next point.  Cell arrays
        are exported in ``"copy"`` mode: the service both writes the snapshot
        to disk and hands it to the supervisor's in-memory recovery cache, so
        it must not alias the live store.
        """
        return self.detector.export_state(arrays="copy")
