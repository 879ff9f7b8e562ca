"""Shard workers: drive one detector shard off its micro-batch queue.

Two interchangeable flavours:

* :class:`ShardWorker` — a daemon thread owning its detector in-process.
  The default: zero serialisation cost, shared memory, and (because NumPy
  releases the GIL inside large array ops) some overlap between shards.
* :class:`ProcessShardWorker` — one OS process per shard, fed through
  multiprocessing queues.  The detector is shipped to the child as a
  full-state checkpoint payload and re-materialised there, so the flavour is
  exactly as resumable as the thread one.  Worth it on multi-core hosts
  where the GIL would otherwise serialise the shards.

Both expose the same surface to the service: ``start()``, ``shutdown()``,
``export_state()`` and a ``failure`` attribute, and both deliver every
processed batch through the service's ``on_results`` callback:

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
from ..core.grid import Grid
from ..metrics.throughput import LatencySeries
from ..obs.metrics import MetricsRegistry
from ..obs.recorder import NULL_RECORDER
from ..obs.trace import NULL_TRACER
from .batcher import BatchItem, MicroBatcher
from .faults import (
    FaultInjector,
    FaultPlan,
    InjectedFault,
    RetryPolicy,
    TransientIPCError,
    call_with_retry,
)
from .learning import LearningCoordinator, LearnTicket

ResultsCallback = Callable[..., None]

DEADLINE_POLICIES = ("shed", "degrade")


#: Counter names a ShardStats registers, in reporting order.  The
#: robustness block of :meth:`DetectionService.stats` is built from the
#: registry totals of the tail entries, so the names are part of the
#: ``spot-metrics/v1`` surface.
SHARD_COUNTERS = ("points", "batches", "busy_seconds", "errors",
                  "shed_points", "degraded_points", "quarantined_points",
                  "ipc_retries", "restarts", "recovery_seconds")


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
        #: "degrade" policy, poison points skipped by the supervisor, IPC
        #: retries that eventually succeeded, worker restarts, and the total
        #: time spent recovering.
        self.shed_points = registry.counter("service.shed_points",
                                            shard=shard_id)
        self.degraded_points = registry.counter("service.degraded_points",
                                                shard=shard_id)
        self.quarantined_points = registry.counter(
            "service.quarantined_points", shard=shard_id)
        self.ipc_retries = registry.counter("service.ipc_retries",
                                            shard=shard_id)
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
            "ipc_retries": int(self.ipc_retries.value),
            "restarts": int(self.restarts.value),
            "recovery_ms": round(1e3 * self.recovery_seconds.value, 1),
        }


class ShardWorker(threading.Thread):
    """Thread flavour: one daemon thread per shard, detector in-process.

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


def _process_worker_main(state_payload: dict, inbox, outbox,
                         fault_plan: Optional[dict] = None,
                         deferred: bool = False) -> None:
    """Child-process loop: rebuild the detector, then serve commands.

    With ``deferred=False`` (sync service) the child runs learning inline: a
    state restored from a deferred-mode checkpoint replays its in-flight
    searches now, then stays sync.  With ``deferred=True`` the child runs
    the request/publication protocol *over the IPC queues*: learn requests
    emitted by the detector are shipped to the parent as ``("learn", gid,
    grid, requests)`` groups (the queues pickle them), the parent evaluates
    them on the shared :class:`LearningCoordinator` pool, and the
    publications come back through the inbox as ``("publications", gid,
    publications)`` — applied here in group order at the detector's
    deterministic apply points, so process-shard async decisions are
    identical to sync ones.
    """
    import os
    from collections import deque

    detector = SPOT.from_state(state_payload)
    detector.set_deferred_learning(bool(deferred))
    if not deferred and detector.pending_learn_requests:
        detector.resolve_pending_learns()
    faults = FaultInjector(FaultPlan.from_dict(fault_plan)) \
        if fault_plan else None
    #: Commands that arrived on the inbox while blocked for publications;
    #: replayed (in order) before anything newly read.
    backlog: "deque" = deque()
    sent: dict = {}      # request_id -> group id already shipped
    received: dict = {}  # group id -> publications (None = failed)
    next_gid = [0]

    def dispatch_new_learns() -> None:
        new = [request for request in detector.pending_learn_requests
               if request.request_id not in sent]
        if not new:
            return
        gid = next_gid[0]
        next_gid[0] += 1
        outbox.put(("learn", gid, detector.grid, new))
        for request in new:
            sent[request.request_id] = gid

    def resolve_pending_learns() -> None:
        while True:
            pending = detector.pending_learn_requests
            if not pending:
                return
            gid = sent.get(pending[0].request_id)
            if gid is None:
                dispatch_new_learns()
                gid = sent[pending[0].request_id]
            while gid not in received:
                # Only publications unblock the detector; any other command
                # the parent pipelined behind them waits in the backlog.
                message = inbox.get(timeout=ShardWorker.LEARN_TIMEOUT)
                if message[0] == "publications":
                    received[message[1]] = message[2]
                else:
                    backlog.append(message)
            publications = received.pop(gid)
            if publications is None:
                raise ConfigurationError(
                    "the learning coordinator failed to evaluate a "
                    "request group")
            for publication in publications:
                detector.apply_learn_publication(publication)
            for request_id in [rid for rid, g in sent.items() if g == gid]:
                sent.pop(request_id, None)

    while True:
        command = backlog.popleft() if backlog else inbox.get()
        kind = command[0]
        if kind == "publications":
            # A search finished while this shard sat idle between batches;
            # bank it for the resolve that will eventually need it.
            received[command[1]] = command[2]
        elif kind == "batch":
            seqs, values = command[1], command[2]
            if faults is not None:
                stall = faults.stall_seconds(seqs)
                if stall > 0.0:
                    time.sleep(stall)
                consume = faults.crash_consume(seqs)
                if consume is not None:
                    # A *hard* crash: commit a prefix, then kill the process
                    # without a reply, so the parent sees a dead child with
                    # the whole batch in flight (the supervisor's worst case).
                    try:
                        detector.process_batch(values[:consume])
                    except Exception:
                        pass
                    outbox.close()
                    os._exit(23)
            # The same offset loop as the thread worker: score up to the
            # next apply point, reply with the chunk immediately (the
            # parent delivers per-seq, so partial replies are fine), apply
            # due publications, continue.  Sync mode never stops early, so
            # the loop degenerates to the historical one-reply path.
            offset = 0
            while offset < len(seqs):
                try:
                    resolve_pending_learns()
                except Exception as exc:
                    outbox.put(("results", seqs[offset:], None, 0.0,
                                f"{type(exc).__name__}: {exc}"))
                    break
                started = time.perf_counter()
                try:
                    results = detector.process_batch(values[offset:])
                except Exception as exc:
                    outbox.put(("results", seqs[offset:], None,
                                time.perf_counter() - started,
                                f"{type(exc).__name__}: {exc}"))
                    break
                busy = time.perf_counter() - started
                consumed = len(results)
                if consumed == 0:
                    outbox.put(("results", seqs[offset:], None, busy,
                                "detector made no progress on a non-empty "
                                "batch"))
                    break
                outbox.put(("results", seqs[offset:offset + consumed],
                            results, busy, None))
                offset += consumed
                dispatch_new_learns()
        elif kind == "export":
            # "copy" arrays pickle across the pipe as independent buffers —
            # far cheaper than the per-element list payload of "json" mode.
            outbox.put(("state", detector.export_state(arrays="copy")))
        elif kind == "stop":
            if deferred and detector.pending_learn_requests:
                # Graceful shutdown mirrors the thread worker: apply any
                # still-outstanding publication so the stopped fleet holds
                # the same SSTs an uninterrupted synchronous run would.
                try:
                    resolve_pending_learns()
                except Exception as exc:
                    outbox.put(("results", [], None, 0.0,
                                f"final learn resolution failed: "
                                f"{type(exc).__name__}: {exc}"))
            outbox.put(("stopped",))
            return


class ProcessShardWorker:
    """Process flavour: the shard's detector lives in a child OS process.

    A feeder thread pulls coalesced batches off the shard's
    :class:`MicroBatcher` and ships ``(seq, values)`` pairs to the child; a
    collector thread correlates the child's replies back to the original
    :class:`BatchItem` bookkeeping and invokes the shared ``on_results``
    callback.  Detection results cross the process boundary as pickled
    :class:`DetectionResult` objects, so downstream consumers see exactly
    what the thread flavour delivers.

    Queue operations toward the child go through a bounded
    retry-with-backoff loop (:class:`~repro.service.faults.RetryPolicy`), so
    a transient IPC hiccup costs a jittered retry instead of a shard.
    """

    def __init__(self, shard_id: int, detector: SPOT, batcher: MicroBatcher,
                 on_results: ResultsCallback, *,
                 fault_plan: Optional[FaultPlan] = None,
                 faults: Optional[FaultInjector] = None,
                 deadline: float = 0.0, deadline_policy: str = "shed",
                 quarantine_on_failure: bool = True,
                 retry_policy: Optional[RetryPolicy] = None,
                 on_ipc_retry: Optional[Callable[[int], None]] = None,
                 learning: Optional[LearningCoordinator] = None,
                 tracer=None, recorder=None) -> None:
        import multiprocessing

        if deadline_policy not in DEADLINE_POLICIES:
            raise ConfigurationError(
                f"deadline_policy must be one of {DEADLINE_POLICIES}, "
                f"got {deadline_policy!r}")
        self.shard_id = shard_id
        self.batcher = batcher
        self.on_results = on_results
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # Process shards record on the parent side only (the delivery path
        # runs there); the child scores, the parent stamps the ring.
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.deadline = deadline
        self.deadline_policy = deadline_policy
        self.quarantine_on_failure = quarantine_on_failure
        self.retry_policy = retry_policy if retry_policy is not None \
            else RetryPolicy()
        self.on_ipc_retry = on_ipc_retry
        #: Parent-side injector (IPC faults fire in the parent; crash and
        #: stall faults ship to the child inside ``fault_plan``).
        self.faults = faults
        #: Shared learning coordinator for ``learning_mode="async"``.  When
        #: set, the child runs in deferred mode and ships its learn-request
        #: groups over the outbox; the parent evaluates them on the
        #: coordinator pool and feeds publications back through the inbox.
        self.learning = learning
        self.failure: Optional[BaseException] = None
        context = multiprocessing.get_context()
        self._inbox = context.Queue()
        self._outbox = context.Queue()
        self._process = context.Process(
            target=_process_worker_main,
            args=(detector.export_state(arrays="copy"), self._inbox,
                  self._outbox,
                  fault_plan.to_dict() if fault_plan is not None else None,
                  learning is not None),
            daemon=True,
            name=f"spot-shard-{shard_id}",
        )
        self._pending: dict = {}
        self._pending_lock = threading.Lock()
        self._retired = threading.Event()
        self._state_box: List[dict] = []
        self._state_ready = threading.Event()
        self._feeder = threading.Thread(target=self._feed,
                                        name=f"spot-feeder-{shard_id}",
                                        daemon=True)
        self._collector = threading.Thread(target=self._collect,
                                           name=f"spot-collector-{shard_id}",
                                           daemon=True)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        self._process.start()
        self._feeder.start()
        self._collector.start()

    def shutdown(self, timeout: Optional[float] = None) -> None:
        """Drain-and-stop: close the queue, stop the child, join everything."""
        self.batcher.close()
        self._feeder.join(timeout=timeout)
        self._inbox.put(("stop",))
        self._collector.join(timeout=timeout)
        self._process.join(timeout=timeout)
        self._release_queues()

    def retire(self, timeout: Optional[float] = None) -> None:
        """Stop feeding without closing the queue (supervised recovery)."""
        self._retired.set()
        self.batcher.interrupt()
        self._feeder.join(timeout=timeout)
        self._collector.join(timeout=timeout)
        if self._process.is_alive():
            self._process.terminate()
        self._process.join(timeout=timeout)
        self._release_queues()

    def _release_queues(self) -> None:
        # A dead child never drains its inbox; anything still buffered in
        # the queue's feeder pipe would make interpreter exit block forever
        # on the join-thread finalizer.  Nothing buffered is needed once
        # the child is gone, so drop it instead of waiting.
        for queue in (self._inbox, self._outbox):
            queue.cancel_join_thread()
            queue.close()

    def is_alive(self) -> bool:
        return self._process.is_alive()

    def drain_pending(self) -> List[BatchItem]:
        """Sweep in-flight items after :meth:`retire` (supervised recovery).

        Closes the shutdown race where the feeder ships one more batch to a
        child that is already dead (or already retired by the collector):
        those points sit in ``_pending`` with nobody left to deliver them.
        Only call after the plumbing threads are joined.
        """
        with self._pending_lock:
            items = sorted(self._pending.values(), key=lambda item: item.seq)
            self._pending.clear()
        return items

    # ------------------------------------------------------------------ #
    # Plumbing threads
    # ------------------------------------------------------------------ #
    def _shed_overdue(self, batch: List[BatchItem]) -> List[BatchItem]:
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

    def _ship(self, batch: List[BatchItem]) -> None:
        seqs = [item.seq for item in batch]
        values = [item.values for item in batch]
        if self.tracer.enabled:
            # The scoring itself happens in the child process; the parent
            # traces the hand-off (the IPC retry events ride on the
            # service-level callback).
            self.tracer.event("shard.ship", shard=self.shard_id,
                              seq_first=seqs[0], seq_last=seqs[-1],
                              n=len(seqs))

        def attempt() -> None:
            if self.faults is not None and self.faults.ipc_should_fail(seqs):
                raise TransientIPCError(
                    f"injected inbox failure at seq {seqs[0]}")
            self._inbox.put(("batch", seqs, values))

        def count_retry(attempt_number: int, exc: BaseException) -> None:
            if self.on_ipc_retry is not None:
                self.on_ipc_retry(self.shard_id)

        call_with_retry(attempt, self.retry_policy,
                        seed=self.shard_id * 1_000_003 + seqs[0],
                        on_retry=count_retry)

    def _feed(self) -> None:
        while True:
            batch = self.batcher.next_batch(stop=self._retired)
            if batch is None:
                return
            if self.failure is not None:
                if not self.quarantine_on_failure:
                    # Retiring: hand the popped batch back for the successor.
                    self.batcher.requeue(batch)
                    return
                # Quarantine, mirroring the thread flavour: once the child
                # reported a failure (or died) its summaries cannot be
                # trusted, so later batches are rejected in the parent.
                self.on_results(self.shard_id, batch, None, 0.0,
                                f"shard quarantined after earlier failure: "
                                f"{self.failure}")
                continue
            batch = self._shed_overdue(batch)
            if not batch:
                continue
            with self._pending_lock:
                for item in batch:
                    self._pending[item.seq] = item
            self._ship(batch)

    def _fail_pending(self, reason: str) -> None:
        """Deliver an error for every in-flight point (child is gone)."""
        with self._pending_lock:
            items = list(self._pending.values())
            self._pending.clear()
        self.failure = ConfigurationError(
            f"shard {self.shard_id}: {reason}")
        if not self.quarantine_on_failure:
            # Supervised: unblock the feeder so it retires and requeues
            # anything it already popped, instead of quarantining forever.
            self._retired.set()
            self.batcher.interrupt()
        self._state_ready.set()  # unblock a waiting export_state call
        if items:
            self.on_results(self.shard_id, items, None, 0.0, reason)

    def _collect(self) -> None:
        import queue as queue_module

        while True:
            if self._retired.is_set():
                return
            try:
                message = call_with_retry(
                    lambda: self._outbox.get(timeout=0.5),
                    self.retry_policy, retry_on=(OSError,),
                    seed=self.shard_id)
            except queue_module.Empty:
                if self._process.is_alive():
                    continue
                # The child is gone.  Give its queue feeder one grace period
                # to flush messages written just before death, then convert
                # whatever is still in flight into a shard error so drain()
                # surfaces the failure instead of hanging forever.
                try:
                    message = self._outbox.get(timeout=0.5)
                except queue_module.Empty:
                    self._fail_pending("worker process died unexpectedly")
                    return
            kind = message[0]
            if kind == "results":
                _, seqs, results, busy, error = message
                with self._pending_lock:
                    items = [self._pending.pop(seq) for seq in seqs]
                if error is not None:
                    self.failure = ConfigurationError(
                        f"shard {self.shard_id} worker failed: {error}")
                    if not self.quarantine_on_failure:
                        # Supervised: stop both plumbing threads so the
                        # supervisor can terminate the child and replace the
                        # whole worker from the last checkpoint.
                        self._retired.set()
                        self.batcher.interrupt()
                        self.on_results(self.shard_id, items, results, busy,
                                        error)
                        return
                self.on_results(self.shard_id, items, results, busy, error)
            elif kind == "learn":
                self._handle_learn(message[1], message[2], message[3])
            elif kind == "state":
                self._state_box.append(message[1])
                self._state_ready.set()
            elif kind == "stopped":
                return

    def _handle_learn(self, gid: int, grid: Grid, requests: list) -> None:
        """Bridge one child learn-request group onto the coordinator pool.

        The submit + wait runs on its own daemon thread so the collector
        keeps delivering results while a MOGA search is in flight — exactly
        the latency-hiding the thread flavour gets from deferred learning.
        The reply (``("publications", gid, publications)``, with ``None``
        signalling a failed evaluation) goes back through the child's inbox.
        """

        def evaluate() -> None:
            try:
                if self.learning is None:
                    raise ConfigurationError(
                        f"shard {self.shard_id} sent a learn request but no "
                        f"learning coordinator is attached")
                ticket = self.learning.submit(self.shard_id, grid, requests)
                reply = ticket.wait(timeout=ShardWorker.LEARN_TIMEOUT)
            except Exception:
                reply = None
            try:
                self._inbox.put(("publications", gid, reply))
            except (OSError, ValueError):
                # Queues already released (worker retired mid-search); the
                # child is gone, nobody is waiting for this reply.
                pass

        threading.Thread(target=evaluate,
                         name=f"spot-learn-{self.shard_id}-{gid}",
                         daemon=True).start()

    # ------------------------------------------------------------------ #
    # Checkpointing
    # ------------------------------------------------------------------ #
    def export_state(self, timeout: float = 60.0) -> dict:
        """Ask the child for its detector's full state (service is drained)."""
        self._state_ready.clear()
        self._state_box.clear()
        self._inbox.put(("export",))
        if not self._state_ready.wait(timeout=timeout):
            raise ConfigurationError(
                f"shard {self.shard_id} did not export its state within "
                f"{timeout} seconds")
        if not self._state_box:  # woken by _fail_pending, not by a state reply
            raise ConfigurationError(
                f"shard {self.shard_id} cannot export state: {self.failure}")
        return self._state_box[0]
