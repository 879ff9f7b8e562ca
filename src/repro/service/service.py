"""The sharded detection service facade.

``DetectionService`` multiplexes many independent streams over a pool of
SPOT detector shards::

    submit(stream_id, values)
        │
    ShardRouter ──► MicroBatcher[shard] ──► ShardWorker[shard] ──► results
        │                (coalescing,          (process_batch)
        │                 backpressure)            │
        │                                     ShardSupervisor (crash →
        │                                      restore + replay, optional)
        └────────────── CheckpointManager (periodic full-state snapshots)

Per-stream order is preserved (stable routing + FIFO queues + sequential
workers), so every shard's decisions are exactly those of a single detector
fed that shard's sub-stream — the property the parity tests pin down.  The
whole fleet can be checkpointed at a quiescent point and later restored to
resume decision-identically.

Fault tolerance is opt-in per config: ``supervise=True`` turns worker
failures into supervised restarts (checkpoint restore + journal replay,
decision-identical on surviving traffic), ``deadline`` bounds how stale a
point may get before it is shed or marked degraded, ``full_policy`` bounds
producer waits on a full queue, and ``fault_plan`` injects deterministic
crashes, stalls and checkpoint-write failures for testing all of the above.
"""

from __future__ import annotations

import threading
import time
from array import array
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.detector import SPOT
from ..core.exceptions import BackpressureTimeout, ConfigurationError
from ..core.results import DecisionEvidence, DetectionResult
from ..obs.metrics import MetricsRegistry
from ..obs.recorder import NULL_RECORDER, FlightRecorder, build_diag_payload
from ..obs.slo import SLOObjectives, SLOTracker
from ..obs.trace import NULL_TRACER
from ..persist.serialization import clone_detector
from ..streams.tagged import TaggedStreamPoint
from .batcher import FULL_POLICIES, BatchItem, MicroBatcher
from .checkpoint import CheckpointManager
from .faults import FaultInjector, FaultPlan, InjectedFault
from .learning import LearningCoordinator
from .ring import ROUTER_KINDS, make_router
from .supervisor import ShardSupervisor
from .worker import DEADLINE_POLICIES, ShardStats, ShardWorker

LEARNING_MODES = ("sync", "async")

#: Outcomes a ServiceResult can carry.
RESULT_OUTCOMES = ("ok", "degraded", "shed", "quarantined")
_OK, _DEGRADED, _SHED, _QUARANTINED = range(len(RESULT_OUTCOMES))

#: Largest fleet: the result log stores shard ids as int16.
MAX_SHARDS = 2 ** 15 - 1


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of the serving layer (not of the detectors themselves)."""

    n_shards: int = 4
    max_batch: int = 512
    max_delay: float = 0.002
    max_pending: int = 8192
    #: ``"static"`` routes with CRC-32 mod over a fixed pool (historical
    #: default); ``"ring"`` routes over a consistent-hash ring with virtual
    #: nodes, so the fleet can grow/shrink with minimal key movement (see
    #: :mod:`repro.service.ring` and :mod:`repro.service.rebalance`).
    router: str = "static"
    router_salt: int = 0
    #: ``"sync"`` keeps online MOGA searches inline in the detection path
    #: (the historical behaviour); ``"async"`` defers them to a shared
    #: :class:`~repro.service.learning.LearningCoordinator` worker pool and
    #: applies the published SSTs at deterministic apply points, so both
    #: modes make identical decisions.
    learning_mode: str = "sync"
    learning_workers: int = 2
    #: Take a checkpoint every this many submitted points (0 disables the
    #: periodic trigger; explicit :meth:`DetectionService.checkpoint` calls
    #: always work).  Requires ``checkpoint_dir``.
    checkpoint_every: int = 0
    checkpoint_dir: Optional[str] = None
    #: Fault tolerance.  ``supervise=True`` attaches a
    #: :class:`~repro.service.supervisor.ShardSupervisor`: a crashed shard is
    #: restarted from its latest snapshot and the points committed since are
    #: replayed, decision-identically, instead of poisoning the shard.
    supervise: bool = False
    max_restarts_per_shard: int = 5
    #: Observed scoring failures after which a point is quarantined instead
    #: of retried (supervised mode).
    poison_threshold: int = 3
    #: Per-point detection deadline in seconds (0 disables).  A point older
    #: than this when its batch is picked up is shed (``deadline_policy=
    #: "shed"``) or scored anyway but delivered with a ``"degraded"``
    #: outcome (``"degrade"``).
    deadline: float = 0.0
    deadline_policy: str = "shed"
    #: Producer-side policy when a shard's queue is full: ``"block"``
    #: (historical default), ``"timeout"`` (bounded wait, typed
    #: BackpressureTimeout) or ``"shed"`` (drop at admission).
    full_policy: str = "block"
    put_timeout: Optional[float] = None
    #: Deterministic fault injection (tests, chaos bench); ``None`` in
    #: production.
    fault_plan: Optional[FaultPlan] = None
    #: Span/event tracer (:class:`~repro.obs.trace.Tracer`); ``None`` keeps
    #: the near-zero-cost :data:`~repro.obs.trace.NULL_TRACER`.
    tracer: Optional[object] = None
    #: Decision provenance: enable evidence capture on every shard detector,
    #: so delivered results (and flight-ring records) carry the typed
    #: per-subspace DecisionEvidence behind ``explain``.
    evidence: bool = False
    #: Flight recorder: keep a bounded per-shard ring of recent decisions +
    #: service events (``spot-flight/v1``), snapshot into a ``spot-diag/v1``
    #: bundle on crash or on demand via :meth:`DetectionService.diagnose`.
    flight_recorder: bool = False
    flight_capacity: int = 256
    #: Where crash-time diagnostics bundles are written (``None`` keeps them
    #: in-memory only: ``diagnose()`` still works on demand).
    diag_dir: Optional[str] = None
    #: Per-tenant SLO objectives; ``None`` disables SLO tracking.
    slo: Optional[SLOObjectives] = None

    def __post_init__(self) -> None:
        if not 1 <= self.n_shards <= MAX_SHARDS:
            raise ConfigurationError(
                f"n_shards must be in 1..{MAX_SHARDS}, got {self.n_shards}")
        if self.learning_mode not in LEARNING_MODES:
            raise ConfigurationError(
                f"learning_mode must be one of {LEARNING_MODES}, "
                f"got {self.learning_mode!r}")
        if self.learning_workers < 1:
            raise ConfigurationError("learning_workers must be positive")
        if self.router not in ROUTER_KINDS:
            raise ConfigurationError(
                f"router must be one of {ROUTER_KINDS}, got {self.router!r}")
        if self.checkpoint_every < 0:
            raise ConfigurationError("checkpoint_every must be >= 0")
        if self.checkpoint_every > 0 and not self.checkpoint_dir:
            raise ConfigurationError(
                "checkpoint_every needs checkpoint_dir to be set")
        if self.max_restarts_per_shard < 0:
            raise ConfigurationError("max_restarts_per_shard must be >= 0")
        if self.poison_threshold < 1:
            raise ConfigurationError("poison_threshold must be positive")
        if self.deadline < 0.0:
            raise ConfigurationError(
                f"deadline must be >= 0, got {self.deadline}")
        if self.deadline_policy not in DEADLINE_POLICIES:
            raise ConfigurationError(
                f"deadline_policy must be one of {DEADLINE_POLICIES}, "
                f"got {self.deadline_policy!r}")
        if self.full_policy not in FULL_POLICIES:
            raise ConfigurationError(
                f"full_policy must be one of {FULL_POLICIES}, "
                f"got {self.full_policy!r}")
        if self.full_policy == "timeout" and (
                self.put_timeout is None or self.put_timeout <= 0.0):
            raise ConfigurationError(
                "full_policy='timeout' needs a positive put_timeout")
        if self.flight_capacity < 1:
            raise ConfigurationError(
                f"flight_capacity must be positive, got {self.flight_capacity}")
        if self.slo is not None and not isinstance(self.slo, SLOObjectives):
            raise ConfigurationError(
                "slo must be an SLOObjectives instance or None")


@dataclass(frozen=True)
class ServiceResult:
    """One processed point, as delivered by the service.

    ``outcome`` is ``"ok"`` for a normally scored point, ``"degraded"``
    for one scored past its deadline (``deadline_policy="degrade"``),
    ``"shed"`` for one dropped past its deadline or at a full queue
    (``result`` is ``None``), and ``"quarantined"`` for a poison point the
    supervisor refused to keep retrying (``result`` is ``None``).

    The service does not keep these objects: :meth:`DetectionService.results`
    builds them from its :class:`ResultLog` on each call.  A flagged
    ``result`` is the detector's own object, point included; an unflagged
    one is rebuilt with ``point=None``, since the caller holds that point
    under the ``seq`` that :meth:`DetectionService.submit` returned.
    """

    seq: int
    stream_id: str
    shard: int
    result: Optional[DetectionResult]
    latency_seconds: float
    outcome: str = "ok"

    @property
    def is_outlier(self) -> bool:
        """Whether the detector flagged this point (``False`` when unscored)."""
        return self.result is not None and self.result.is_outlier

    @property
    def scored(self) -> bool:
        """Whether the point was actually scored by a detector."""
        return self.result is not None


class ResultLog:
    """Every delivered point of a service, kept as typed columns.

    One row per delivered point costs 47 bytes: seq, shard, stream code,
    outcome code (an index into :data:`RESULT_OUTCOMES`), latency, detector
    index, score and SST version.  Both engines attach outlying subspaces,
    evidence and decision subspaces to flagged results only, so an unflagged
    result is fully determined by its index, its score and its SST version
    (-1 when it carries no decision evidence); flagged results are kept
    whole, keyed by seq.  Unscored rows (shed, quarantined) store index -1.

    Not thread-safe: the service appends and copies under its lock and
    builds results from a private :meth:`copy` outside it.
    """

    def __init__(self) -> None:
        self._seq = array("q")
        self._shard = array("h")
        self._stream = array("i")
        self._outcome = array("b")
        self._latency = array("d")
        self._index = array("q")
        self._score = array("d")
        self._sst_version = array("q")
        #: Stream id -> stream code, in first-delivery order, so the keys
        #: listed in order are the name table.
        self._codes: Dict[str, int] = {}
        self._flagged: Dict[int, DetectionResult] = {}

    def append(self, shard_id: int, items: Sequence[BatchItem],
               latencies: Sequence[float], outcomes: Sequence[int],
               results: Optional[Sequence[DetectionResult]] = None) -> None:
        """Add one delivered batch; ``results`` is ``None`` when unscored."""
        n = len(items)
        codes = self._codes
        self._seq.extend([item.seq for item in items])
        self._shard.extend(array("h", [shard_id]) * n)
        self._stream.extend([codes.setdefault(item.stream_id, len(codes))
                             for item in items])
        self._outcome.extend(outcomes)
        self._latency.extend(latencies)
        if results is None:
            self._index.extend(array("q", [-1]) * n)
            self._score.extend(array("d", [0.0]) * n)
            self._sst_version.extend(array("q", [-1]) * n)
            return
        self._index.extend([r.index for r in results])
        self._score.extend([r.score for r in results])
        self._sst_version.extend([-1 if r.decision is None
                                  else r.decision.sst_version
                                  for r in results])
        self._flagged.update({item.seq: r for item, r in zip(items, results)
                              if r.is_outlier})

    def _columns(self) -> Tuple[array, ...]:
        return (self._seq, self._shard, self._stream, self._outcome,
                self._latency, self._index, self._score, self._sst_version)

    def copy(self) -> "ResultLog":
        """An independent copy (one buffer copy per column)."""
        other = ResultLog()
        for mine, theirs in zip(self._columns(), other._columns()):
            theirs.extend(mine)
        other._codes = dict(self._codes)
        other._flagged = dict(self._flagged)
        return other

    def build(self, stream_id: Optional[str] = None) -> List[ServiceResult]:
        """The logged points as :class:`ServiceResult`, in seq order.

        With ``stream_id``, only that stream's points are built.
        """
        seqs = _view(self._seq)
        if stream_id is None:
            rows = np.argsort(seqs, kind="stable")
        else:
            code = self._codes.get(stream_id)
            if code is None:
                return []
            rows = np.flatnonzero(_view(self._stream) == code)
            rows = rows[np.argsort(seqs[rows], kind="stable")]
        columns = [_view(column)[rows].tolist() for column in self._columns()]
        names = list(self._codes)
        built = []
        for (seq, shard, stream, outcome, latency, index, score,
             version) in zip(*columns):
            if outcome in (_SHED, _QUARANTINED):
                result = None
            else:
                result = self._flagged.get(seq)
                if result is None:
                    result = DetectionResult(
                        index=index, point=None, is_outlier=False,
                        outlying_subspaces=(), score=score,
                        decision=(None if version < 0 else
                                  DecisionEvidence(sst_version=version)))
            built.append(ServiceResult(
                seq=seq, stream_id=names[stream], shard=shard,
                result=result, latency_seconds=latency,
                outcome=RESULT_OUTCOMES[outcome]))
        return built


def _view(column: array) -> np.ndarray:
    """A column's buffer as a NumPy array of the same type (no copy)."""
    return np.frombuffer(column, dtype=column.typecode)


class DetectionService:
    """Sharded multi-stream detection over a pool of fitted SPOT detectors.

    Parameters
    ----------
    detectors:
        One *fitted* detector per shard (``len == config.n_shards``).  Use
        :meth:`from_prototype` to replicate a single learned detector across
        shards, or :meth:`restore` to rebuild a fleet from a checkpoint.
    config:
        Serving-layer tunables; see :class:`ServiceConfig`.
    """

    def __init__(self, detectors: Sequence[SPOT],
                 config: Optional[ServiceConfig] = None) -> None:
        self.config = config if config is not None else ServiceConfig()
        if len(detectors) != self.config.n_shards:
            raise ConfigurationError(
                f"need exactly {self.config.n_shards} detectors, "
                f"got {len(detectors)}")
        for i, detector in enumerate(detectors):
            if not detector.is_fitted:
                raise ConfigurationError(
                    f"shard {i} detector has not been fitted (run learn())")
        self._detectors = list(detectors)
        self.router = make_router(self.config.router, self.config.n_shards,
                                  salt=self.config.router_salt)
        #: Per-service instrument registry; every ShardStats counter and the
        #: checkpoint counters below live here, so ``metrics_snapshot()``
        #: and ``stats()`` are two views of the same numbers.
        self.metrics = MetricsRegistry()
        self._tracer = self.config.tracer if self.config.tracer is not None \
            else NULL_TRACER
        self._trace_on = bool(getattr(self._tracer, "enabled", False))
        self._batchers: List[MicroBatcher] = []
        self._workers: List[ShardWorker] = []
        self._stats = [ShardStats(shard_id=i, registry=self.metrics)
                       for i in range(self.config.n_shards)]
        self._log = ResultLog()
        #: Routing gate: ``submit()`` holds it across route → seq → enqueue,
        #: and the rebalancer holds it exclusively while it swaps the router
        #: and the shard registries.  Separate from ``_lock`` so result
        #: delivery never waits behind a migration, and the migration's
        #: hot-path cost is exactly the gate hold time.
        self._route_gate = threading.RLock()
        self._lock = threading.Lock()
        self._all_done = threading.Condition(self._lock)
        self._submitted = 0
        self._completed = 0
        self._errors: List[str] = []
        self._started = False
        self._stopped = False
        self._started_at: Optional[float] = None
        self._ckpt_taken = self.metrics.counter("service.checkpoints_taken")
        self._ckpt_write_failures = self.metrics.counter(
            "service.checkpoint_write_failures")
        self._points_at_last_checkpoint = 0
        self._checkpoint_extra: Dict[str, object] = {}
        self._coordinator: Optional[LearningCoordinator] = None
        self._supervisor: Optional[ShardSupervisor] = None
        self._faults: Optional[FaultInjector] = \
            FaultInjector(self.config.fault_plan) \
            if self.config.fault_plan is not None \
            and not self.config.fault_plan.empty else None
        #: Flight recorder (NULL_RECORDER when off: one boolean per point).
        self._recorder = (FlightRecorder(self.config.flight_capacity,
                                         n_shards=self.config.n_shards)
                          if self.config.flight_recorder else NULL_RECORDER)
        self._record_on = bool(self._recorder.enabled)
        self._slo = (SLOTracker(self.config.slo, registry=self.metrics)
                     if self.config.slo is not None else None)
        self._diag_seq = 0
        #: The most recent crash-time diagnostics bundle (spot-diag/v1).
        self.last_diagnostics: Optional[Dict[str, object]] = None
        if self.config.evidence:
            for detector in self._detectors:
                detector.set_evidence_enabled(True)
        for detector in self._detectors:
            detector.bind_obs(tracer=self._tracer, recorder=self._recorder,
                              registry=self.metrics)

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_prototype(cls, prototype: SPOT,
                       config: Optional[ServiceConfig] = None
                       ) -> "DetectionService":
        """Replicate one learned detector across every shard.

        Cloning goes through the full-state checkpoint path, so each shard
        starts from the identical learned template *and* warm summaries
        without re-running the learning stage per shard.
        """
        config = config if config is not None else ServiceConfig()
        detectors = [clone_detector(prototype)
                     for _ in range(config.n_shards)]
        return cls(detectors, config)

    @classmethod
    def restore(cls, directory, *,
                config: Optional[ServiceConfig] = None) -> "DetectionService":
        """Rebuild a service from a :meth:`checkpoint` directory.

        Shard count and router salt always come from the manifest (changing
        either would re-route streams away from the summaries that know
        them); the remaining serving tunables may be overridden via
        ``config``.  Restoration is corruption-tolerant: when the latest
        checkpoint generation is truncated or malformed on disk, the
        previous good generation is loaded instead (see
        :meth:`CheckpointManager.load_fleet`).
        """
        manager = CheckpointManager(directory)
        base = config if config is not None else ServiceConfig()
        tracer = base.tracer if base.tracer is not None else NULL_TRACER
        with tracer.span("checkpoint.load") as span:
            manifest, detectors = manager.load_fleet()
            span.annotate(at_point=int(manifest["points_submitted"]),
                          shards=int(manifest["n_shards"]))
        merged = replace(base, n_shards=int(manifest["n_shards"]),
                         router_salt=int(manifest["router_salt"]),
                         router=str(manifest.get("router", "static")))
        service = cls(detectors, merged)
        service.router.pins.update(
            {str(stream): int(shard) for stream, shard
             in (manifest.get("router_pins") or {}).items()})
        service._submitted = int(manifest["points_submitted"])
        service._completed = service._submitted
        service._points_at_last_checkpoint = service._submitted
        return service

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "DetectionService":
        """Spin up the per-shard queues, workers and (async) the coordinator."""
        if self._started:
            raise ConfigurationError("the service is already started")
        if self._stopped:
            raise ConfigurationError("a stopped service cannot be restarted")
        if self.config.learning_mode == "async":
            self._coordinator = LearningCoordinator(
                self.config.learning_workers, tracer=self._tracer).start()
        if self.config.supervise:
            self._supervisor = ShardSupervisor(
                self,
                max_restarts_per_shard=self.config.max_restarts_per_shard,
                poison_threshold=self.config.poison_threshold).start()
            # The shards' starting states are the zeroth "checkpoint": a
            # crash before the first on-disk save replays from here.
            # "copy" arrays: the supervisor retains these snapshots while
            # the live stores keep mutating, so they must not alias them.
            self._supervisor.install_snapshots(
                [detector.export_state(arrays="copy")
                 for detector in self._detectors])
        for shard_id, detector in enumerate(self._detectors):
            batcher = self._make_batcher()
            worker = self._build_worker(shard_id, detector, batcher)
            self._batchers.append(batcher)
            self._workers.append(worker)
        for worker in self._workers:
            worker.start()
        self._started = True
        self._started_at = time.monotonic()
        return self

    def _make_batcher(self) -> MicroBatcher:
        return MicroBatcher(max_batch=self.config.max_batch,
                            max_delay=self.config.max_delay,
                            max_pending=self.config.max_pending,
                            full_policy=self.config.full_policy,
                            put_timeout=self.config.put_timeout)

    def _build_worker(self, shard_id: int, detector: SPOT,
                      batcher: MicroBatcher) -> ShardWorker:
        """Wire one worker (initial start and supervised replacement)."""
        # The learning mode is a serving decision, not detector state: a
        # fleet restored from an async checkpoint serves sync-ly (and vice
        # versa) without any decision changing.
        detector.set_deferred_learning(self.config.learning_mode == "async")
        return ShardWorker(shard_id, detector, batcher, self._on_results,
                           learning=self._coordinator,
                           faults=self._faults,
                           deadline=self.config.deadline,
                           deadline_policy=self.config.deadline_policy,
                           quarantine_on_failure=not self.config.supervise,
                           tracer=self._tracer,
                           recorder=self._recorder)

    def stop(self, timeout: Optional[float] = 60.0) -> None:
        """Drain every queue, stop every worker, surface any failure."""
        if not self._started or self._stopped:
            return
        if self._supervisor is not None:
            # Finish in-flight recoveries first so the worker registry is
            # stable; crashes during the final drain below surface as plain
            # errors (the supervisor no longer accepts events).
            self._supervisor.shutdown(timeout=timeout)
        for worker in self._workers:
            worker.shutdown(timeout=timeout)
        for shard_id, worker in enumerate(self._workers):
            # A failure in the shutdown path (e.g. resolving a final learn
            # publication) never went through on_results; surface it here.
            failure = worker.failure
            if failure is not None and not any(
                    error.startswith(f"shard {shard_id}:")
                    for error in self._errors):
                self._errors.append(
                    f"shard {shard_id}: {type(failure).__name__}: {failure}")
        if self._coordinator is not None:
            self._coordinator.stop()
        self._stopped = True
        self._raise_on_error()

    def __enter__(self) -> "DetectionService":
        return self.start() if not self._started else self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # Ingestion
    # ------------------------------------------------------------------ #
    def submit(self, stream_id: str, values: Sequence[float]) -> int:
        """Route one point to its shard; returns its global sequence number.

        A full shard queue engages the configured ``full_policy``: block
        (default), bounded wait raising
        :class:`~repro.core.exceptions.BackpressureTimeout`, or admission
        shedding (the point completes immediately with a ``"shed"``
        outcome).  When periodic checkpointing is configured, crossing the
        ``checkpoint_every`` threshold quiesces the service and snapshots
        every shard before the point is enqueued.
        """
        if not self._started:
            raise ConfigurationError("start() the service before submitting")
        if self._stopped:
            raise ConfigurationError("the service has been stopped")
        if (self.config.checkpoint_every > 0
                and self._submitted - self._points_at_last_checkpoint
                >= self.config.checkpoint_every):
            self.checkpoint()
        with self._route_gate:
            shard = self.router.shard_of(stream_id)
            with self._lock:
                seq = self._submitted
                self._submitted += 1
            item = BatchItem(seq=seq, stream_id=stream_id,
                             values=tuple(float(v) for v in values),
                             enqueued_at=time.monotonic())
            if self._trace_on:
                self._tracer.event("enqueue", seq=seq, shard=shard,
                                   stream=stream_id)
            try:
                accepted = self._batchers[shard].put(item)
            except BackpressureTimeout:
                # The point was never enqueued; complete it as shed so the
                # accounting stays consistent (drain() must not wait for
                # it), then surface the bounded-wait failure to the caller.
                self._on_results(shard, [item], None, 0.0, None, shed=True)
                raise
        if not accepted:  # full_policy="shed": admission-shed the point
            self._on_results(shard, [item], None, 0.0, None, shed=True)
        return seq

    def submit_tagged(self, points: Iterable[TaggedStreamPoint]) -> int:
        """Submit a sequence of tagged points; returns how many were accepted."""
        n = 0
        for point in points:
            self.submit(point.stream_id, point.values)
            n += 1
        return n

    def drain(self, timeout: Optional[float] = None) -> None:
        """Block until every submitted point has been processed.

        Under supervision a crash does not fail the drain: the wait simply
        covers the recovery, and completes once the replayed points are
        delivered.  Only an unrecoverable failure (restart budget exhausted,
        replay failure) raises.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._all_done:
            while self._completed < self._submitted and not self._errors:
                remaining = None if deadline is None \
                    else deadline - time.monotonic()
                if remaining is not None and remaining <= 0.0:
                    raise ConfigurationError(
                        f"drain timed out with "
                        f"{self._submitted - self._completed} points in flight")
                self._all_done.wait(timeout=0.1 if remaining is None
                                    else min(0.1, remaining))
        self._raise_on_error()

    # ------------------------------------------------------------------ #
    # Results / stats
    # ------------------------------------------------------------------ #
    def _on_results(self, shard_id: int, items: List[BatchItem],
                    results: Optional[List[DetectionResult]],
                    busy_seconds: float, error: Optional[str], *,
                    shed: bool = False) -> None:
        now = time.monotonic()
        if error is not None and self._supervisor is not None \
                and self._supervisor.submit_failure(shard_id, items, error):
            # Supervised recovery owns these points now: they stay in
            # flight (not completed, no error recorded) until the replay
            # delivers them — or recovery itself gives up and records a
            # shard error.
            with self._lock:
                stats = self._stats[shard_id]
                stats.batches.inc()
                stats.busy_seconds.inc(busy_seconds)
                stats.errors.inc()
            if self._trace_on:
                self._tracer.event("shard.crash", shard=shard_id,
                                   seq_first=items[0].seq if items else -1,
                                   n=len(items))
            if self._record_on:
                self._recorder.record_event(
                    "crash", shard=shard_id, error=str(error),
                    seq_first=items[0].seq if items else -1, n=len(items))
            return
        degrade = (self.config.deadline > 0.0
                   and self.config.deadline_policy == "degrade")
        with self._all_done:
            stats = self._stats[shard_id]
            if shed:
                stats.shed_points.inc(len(items))
                self._log.append(shard_id, items,
                                 [now - item.enqueued_at for item in items],
                                 [_SHED] * len(items))
                if self._slo is not None:
                    for item in items:
                        self._slo.observe_shed(item.stream_id)
                if self._trace_on:
                    self._tracer.event("shard.shed", shard=shard_id,
                                       seq_first=items[0].seq,
                                       n=len(items))
                if self._record_on:
                    self._recorder.record_event(
                        "shed", shard=shard_id, seq_first=items[0].seq,
                        n=len(items))
            elif error is not None:
                stats.batches.inc()
                stats.busy_seconds.inc(busy_seconds)
                stats.errors.inc()
                self._errors.append(f"shard {shard_id}: {error}")
            else:
                assert results is not None
                stats.batches.inc()
                stats.busy_seconds.inc(busy_seconds)
                stats.points.inc(len(items))
                latencies = [now - item.enqueued_at for item in items]
                if degrade:
                    deadline = self.config.deadline
                    outcomes = [_DEGRADED if latency > deadline else _OK
                                for latency in latencies]
                else:
                    outcomes = [_OK] * len(items)
                self._log.append(shard_id, items, latencies, outcomes,
                                 results)
                for latency in latencies:
                    stats.latency.record(latency)
                    # Every point of the call shares its detection-path cost:
                    # a point waits for its batch-mates (and, in sync
                    # learning mode, for any inline MOGA searches the call
                    # ran) before its result exists.
                    stats.path_latency.record(busy_seconds)
                if self._record_on:
                    for item, result, outcome in zip(items, results,
                                                     outcomes):
                        self._recorder.record_decision(
                            shard_id, item.seq, item.stream_id,
                            RESULT_OUTCOMES[outcome], result)
                if self._slo is not None:
                    for item, latency, outcome in zip(items, latencies,
                                                      outcomes):
                        self._slo.observe_delivery(item.stream_id, latency,
                                                   RESULT_OUTCOMES[outcome])
                degraded = outcomes.count(_DEGRADED)
                if degraded:
                    stats.degraded_points.inc(degraded)
                    if self._record_on:
                        self._recorder.record_event("degrade",
                                                    shard=shard_id,
                                                    n=degraded)
                if self._trace_on:
                    self._tracer.event("shard.commit", shard=shard_id,
                                       seq_first=items[0].seq,
                                       seq_last=items[-1].seq,
                                       n=len(items))
                if self._supervisor is not None:
                    # Journal the committed points: a later crash replays
                    # them from the last snapshot to rebuild this state.
                    self._supervisor.record_committed(shard_id, items)
            self._completed += len(items)
            if self._completed >= self._submitted or self._errors:
                self._all_done.notify_all()

    def _deliver_quarantined(self, shard_id: int,
                             items: List[BatchItem]) -> None:
        """Complete poison points with a ``"quarantined"`` outcome."""
        now = time.monotonic()
        if self._trace_on and items:
            self._tracer.event("shard.quarantine", shard=shard_id,
                               seq_first=items[0].seq, n=len(items))
        if self._record_on and items:
            self._recorder.record_event("quarantine", shard=shard_id,
                                        seq_first=items[0].seq,
                                        n=len(items))
        with self._all_done:
            stats = self._stats[shard_id]
            stats.quarantined_points.inc(len(items))
            self._log.append(shard_id, items,
                             [now - item.enqueued_at for item in items],
                             [_QUARANTINED] * len(items))
            if self._slo is not None:
                for item in items:
                    self._slo.observe_quarantined(item.stream_id)
            self._completed += len(items)
            if self._completed >= self._submitted or self._errors:
                self._all_done.notify_all()

    def _record_shard_error(self, shard_id: int, message: str) -> None:
        """Surface an unrecoverable shard failure (wakes any drain())."""
        with self._all_done:
            self._errors.append(f"shard {shard_id}: {message}")
            self._all_done.notify_all()

    def _install_replacement(self, shard_id: int, detector: SPOT) -> None:
        """Swap a recovered detector + fresh worker into the registry."""
        batcher = self._batchers[shard_id]
        detector.bind_obs(tracer=self._tracer, recorder=self._recorder,
                          registry=self.metrics)
        worker = self._build_worker(shard_id, detector, batcher)
        with self._lock:
            self._detectors[shard_id] = detector
            self._workers[shard_id] = worker
        if self._record_on:
            self._recorder.record_event("restart", shard=shard_id)
        worker.start()

    def _raise_on_error(self) -> None:
        if self._errors:
            raise ConfigurationError(
                "service worker failure: " + "; ".join(self._errors))

    def results(self) -> List[ServiceResult]:
        """Every completed point so far, in global submission order.

        Includes shed and quarantined points (``result is None``); filter
        on :attr:`ServiceResult.scored` for detector decisions only.  The
        results are built from the result log on each call, outside the
        service lock; unflagged ones carry ``point=None`` (see
        :class:`ServiceResult`).
        """
        with self._lock:
            log = self._log.copy()
        return log.build()

    def results_for(self, stream_id: str) -> List[ServiceResult]:
        """The processed points of one stream, in that stream's order."""
        with self._lock:
            log = self._log.copy()
        return log.build(stream_id)

    @property
    def points_submitted(self) -> int:
        """Points accepted by :meth:`submit` so far (including restored offset)."""
        with self._lock:
            return self._submitted

    @property
    def points_completed(self) -> int:
        """Points fully processed so far."""
        with self._lock:
            return self._completed

    @property
    def checkpoints_taken(self) -> int:
        """Number of checkpoints written by this service instance."""
        return int(self._ckpt_taken.value)

    @property
    def tracer(self):
        """The service's tracer (:data:`NULL_TRACER` unless configured)."""
        return self._tracer

    def shard_stats(self) -> List[ShardStats]:
        """Per-shard serving statistics (live objects; read-only use)."""
        return list(self._stats)

    def shard_detectors(self) -> Tuple[SPOT, ...]:
        """The live per-shard detectors (read-only diagnostics).

        Parity tests compare these against reference detectors.
        """
        return tuple(self._detectors)

    @property
    def learning_coordinator(self) -> Optional[LearningCoordinator]:
        """The shared learning coordinator (``None`` in sync mode)."""
        return self._coordinator

    @property
    def supervisor(self) -> Optional[ShardSupervisor]:
        """The shard supervisor (``None`` unless ``supervise=True``)."""
        return self._supervisor

    def latency_summary(self) -> Dict[str, float]:
        """Fleet-wide delivered- and detection-path-latency percentiles.

        Merges every shard's per-point series: ``latency_*`` is
        enqueue-to-result (what a client sees), ``path_*`` is the time the
        scoring call itself held the point (what the detection path costs —
        the number deferred learning exists to shrink).
        """
        from ..metrics.throughput import LatencySeries

        delivered = LatencySeries()
        path = LatencySeries()
        with self._lock:
            for stats in self._stats:
                delivered.merge(stats.latency)
                path.merge(stats.path_latency)
        summary = {}
        for prefix, series in (("latency", delivered), ("path", path)):
            for q in (50, 95, 99):
                summary[f"{prefix}_p{q}_ms"] = round(
                    1e3 * series.percentile(float(q)), 3)
            summary[f"{prefix}_mean_ms"] = round(1e3 * series.mean(), 3)
        return summary

    def stats(self) -> Dict[str, object]:
        """Aggregate + per-shard serving statistics.

        The totals (and the whole robustness block) are read from the
        metrics registry — :meth:`metrics_snapshot` and this dict are two
        views of the same counters, so they can never disagree about a
        restart or a shed point.
        """
        with self._lock:
            per_shard = [stats.as_dict() for stats in self._stats]
            total_points = int(self.metrics.total("service.points"))
            busy = self.metrics.total("service.busy_seconds")
            wall = (time.monotonic() - self._started_at
                    if self._started_at is not None else 0.0)
            batcher_stats = [batcher.stats() for batcher in self._batchers]
            slo_report = self._slo.report() if self._slo is not None else None
            robustness = {
                "supervised": self.config.supervise,
                "restarts": int(self.metrics.total("service.restarts")),
                "recovery_ms": round(
                    1e3 * self.metrics.total("service.recovery_seconds"), 1),
                "shed_points": int(
                    self.metrics.total("service.shed_points")),
                "degraded_points": int(
                    self.metrics.total("service.degraded_points")),
                "quarantined_points": int(
                    self.metrics.total("service.quarantined_points")),
                "checkpoint_write_failures":
                    int(self._ckpt_write_failures.value),
                "faults_fired": (self._faults.stats()
                                 if self._faults is not None else None),
            }
        return {
            "n_shards": self.config.n_shards,
            "points": total_points,
            "wall_seconds": round(wall, 4),
            "busy_seconds": round(busy, 4),
            "aggregate_points_per_second": round(total_points / wall, 1)
            if wall > 0 else 0.0,
            "mean_batch_size": round(
                sum(b["points_emitted"] for b in batcher_stats)
                / max(1.0, sum(b["batches_emitted"] for b in batcher_stats)),
                1),
            "producer_blocks": int(sum(b["producer_blocks"]
                                       for b in batcher_stats)),
            "checkpoints_taken": int(self._ckpt_taken.value),
            "learning_mode": self.config.learning_mode,
            "learning": (self._coordinator.stats()
                         if self._coordinator is not None else None),
            "robustness": robustness,
            "slo": slo_report,
            "shards": per_shard,
        }

    def metrics_snapshot(self) -> Dict[str, object]:
        """Stable ``spot-metrics/v1`` snapshot of the service's registry.

        Control-flow state that is not counter-shaped (submission progress,
        wall-clock age) is sampled into gauges at snapshot time.
        """
        with self._lock:
            self.metrics.gauge("service.points_submitted").set(
                self._submitted)
            self.metrics.gauge("service.points_completed").set(
                self._completed)
            self.metrics.gauge("service.n_shards").set(self.config.n_shards)
            wall = (time.monotonic() - self._started_at
                    if self._started_at is not None else 0.0)
            self.metrics.gauge("service.wall_seconds").set(round(wall, 4))
        return self.metrics.snapshot()

    # ------------------------------------------------------------------ #
    # Diagnostics (flight recorder / SLOs)
    # ------------------------------------------------------------------ #
    @property
    def flight_recorder(self):
        """The flight recorder (:data:`NULL_RECORDER` unless configured)."""
        return self._recorder

    def slo_report(self) -> Optional[Dict[str, object]]:
        """The ``spot-slo/v1`` per-tenant report (``None`` when untracked)."""
        with self._lock:
            return self._slo.report() if self._slo is not None else None

    def _diag_config_summary(self) -> Dict[str, object]:
        config = self.config
        return {
            "n_shards": config.n_shards,
            "learning_mode": config.learning_mode,
            "supervise": config.supervise,
            "deadline": config.deadline,
            "deadline_policy": config.deadline_policy,
            "full_policy": config.full_policy,
            "evidence": config.evidence,
            "flight_recorder": config.flight_recorder,
            "flight_capacity": config.flight_capacity,
            "slo": (config.slo.to_dict() if config.slo is not None
                    else None),
        }

    def diagnose(self, reason: str = "on-demand",
                 shard: Optional[int] = None) -> Dict[str, object]:
        """Assemble a ``spot-diag/v1`` diagnostics bundle.

        Snapshots everything an incident review needs — metrics, trace,
        flight rings, config, fault log, git provenance, SLO report — as
        one self-contained payload.  The supervisor calls this (via
        :meth:`_emit_crash_diagnostics`) when a shard crashes; operators
        call it on demand through the ``diag`` CLI verb.
        """
        # Function-level import: eval.experiments imports the service layer,
        # so a module-level import here would be a cycle.
        from ..eval.spec import bench_stamp

        with self._lock:
            faults = (self._faults.stats()
                      if self._faults is not None else {})
            slo = self._slo.report() if self._slo is not None else None
        fault_log = [f"{key}={faults[key]}" for key in sorted(faults)] \
            if isinstance(faults, dict) else [str(faults)]
        return build_diag_payload(
            reason=reason,
            shard=shard,
            provenance=bench_stamp(warn=False),
            config=self._diag_config_summary(),
            metrics=self.metrics_snapshot(),
            trace=self._tracer.to_dict(),
            flight=self._recorder.to_dict(),
            faults=fault_log,
            slo=slo,
        )

    def _emit_crash_diagnostics(self, shard_id: int,
                                error: str) -> Optional[str]:
        """Snapshot a crash-time diagnostics bundle (supervisor hook).

        Called on the supervisor thread *before* replay mutates anything,
        so the flight ring still shows the decisions committed right up to
        the crash.  The bundle is kept on the service (``last_diagnostics``)
        and, when ``diag_dir`` is configured, written to
        ``diag-<n>-shard<id>.json``; returns the path written (or ``None``).
        """
        if not self._record_on:
            return None
        payload = self.diagnose(reason=f"crash: {error}", shard=shard_id)
        self.last_diagnostics = payload
        if not self.config.diag_dir:
            return None
        import json
        import os

        os.makedirs(self.config.diag_dir, exist_ok=True)
        with self._lock:
            self._diag_seq += 1
            seq = self._diag_seq
        path = os.path.join(self.config.diag_dir,
                            f"diag-{seq}-shard{shard_id}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        return path

    # ------------------------------------------------------------------ #
    # Checkpointing
    # ------------------------------------------------------------------ #
    def set_checkpoint_extra(self, extra: Dict[str, object]) -> None:
        """Attach metadata to every checkpoint this service writes.

        Periodic checkpoints (``checkpoint_every``) carry this by default,
        so a crash-recovery checkpoint is as self-describing as an explicit
        one — the CLI records its workload parameters here, which is what
        makes any checkpoint of a ``serve`` run replayable.
        """
        self._checkpoint_extra = dict(extra)

    def checkpoint(self, directory=None,
                   extra: Optional[Dict[str, object]] = None):
        """Quiesce the service and snapshot every shard; returns the directory.

        The service is drained first so the snapshot describes one consistent
        stream position; submission resumes as soon as the states are
        captured.  ``extra`` overrides the persistent metadata installed via
        :meth:`set_checkpoint_extra` for this save only.

        A write failure injected by the fault plan is absorbed: the save is
        counted as failed, the previous on-disk checkpoint stays the latest
        good one, the supervisor keeps its old snapshot + journal, and
        ``None`` is returned; serving continues.
        """
        target = directory if directory is not None \
            else self.config.checkpoint_dir
        if target is None:
            raise ConfigurationError(
                "no checkpoint directory configured or given")
        self.drain()
        if self._supervisor is not None:
            # Recoveries deliver through the normal completion path, so
            # drain() above already covered them; quiesce() additionally
            # guarantees the worker swap itself finished before we export.
            self._supervisor.quiesce()
        with self._tracer.span("checkpoint.write",
                               at_point=self.points_submitted,
                               shards=self.config.n_shards) as span:
            states = [worker.export_state() for worker in self._workers]
            manager = CheckpointManager(target)
            inject_failure = (self._faults is not None
                              and self._faults.checkpoint_should_fail())
            try:
                path = manager.save(states,
                                    router_salt=self.config.router_salt,
                                    router=self.config.router,
                                    router_pins=dict(self.router.pins),
                                    points_submitted=self.points_submitted,
                                    extra=extra if extra is not None
                                    else self._checkpoint_extra,
                                    fail_before_manifest=inject_failure)
            except InjectedFault:
                span.annotate(outcome="write_failed")
                with self._lock:
                    self._ckpt_write_failures.inc()
                    # Deliberately *not* advancing
                    # _points_at_last_checkpoint: the periodic trigger
                    # retries on the next submit.
                return None
            span.annotate(outcome="saved")
        if self._supervisor is not None:
            self._supervisor.install_snapshots(states)
        if self._record_on:
            self._recorder.record_event("checkpoint",
                                        at_point=self.points_submitted)
        with self._lock:
            self._ckpt_taken.inc()
            self._points_at_last_checkpoint = self._submitted
        return path
