"""Shard supervision: crash detection, checkpoint restart, journal replay.

The serving layer's historical failure semantics were *fail-stop*: one
worker exception poisoned its shard until ``drain()``/``stop()`` surfaced
the error.  The :class:`ShardSupervisor` upgrades a
:class:`~repro.service.service.DetectionService` to *fail-recover*:

1. **Detect** — every failed delivery (a worker exception, an injected
   crash, a poison point) reaches the supervisor as a crash event carrying
   the undelivered :class:`BatchItem`s.
2. **Retire** — the failed worker stops consuming; any batch it had already
   popped is handed back to the front of the queue, so the backlog keeps
   its stream order for the replacement.
3. **Restore** — a fresh detector is rebuilt from the shard's latest
   checkpoint snapshot (the service snapshots every shard at ``start()``
   and again at every checkpoint, via the loss-free ``export_state``
   contract).  In-flight deferred learn requests ride inside the snapshot
   and are re-evaluated before the first replayed point, so learning state
   survives the restart.
4. **Replay** — the journal of points committed since that snapshot is
   re-scored, bringing the detector to the exact state it held at the
   crash; then the undelivered points are scored and delivered.  Because
   the detector is deterministic and the journal preserves arrival order,
   post-recovery decisions are identical to a crash-free run — the parity
   suite pins this down.
5. **Quarantine** — a point whose scoring keeps crashing (``N`` observed
   failures) is a *poison point*: it is skipped, reported with a
   ``"quarantined"`` outcome, and never folded into the detector, instead
   of burning the restart budget forever.

Recovery runs on a dedicated thread so worker callbacks never block, and
every swap is published back into the service under its lock (stats,
detector registry, worker registry), so checkpoints and parity checks see
the live replacement.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Dict, List, Optional, Set, Tuple

from ..core.detector import SPOT
from ..core.exceptions import ShardRecoveryError
from ..obs.trace import NULL_TRACER
from .batcher import BatchItem

#: Upper bound on restore-replay-probe rounds within one recovery; a replay
#: that cannot converge in this many rounds (fresh poison point every round)
#: is surfaced as a recovery failure instead of looping.
MAX_REPLAY_ROUNDS = 8


class ShardSupervisor:
    """Monitors shard workers and restarts crashed shards from checkpoints.

    Parameters
    ----------
    service:
        The owning :class:`~repro.service.service.DetectionService`; the
        supervisor is part of the service layer and uses its private wiring
        (worker construction, result delivery, stats) under the service's
        locks.
    max_restarts_per_shard:
        Crash budget per shard; one more crash surfaces a
        :class:`ShardRecoveryError` through ``drain()``/``stop()``.
    poison_threshold:
        Observed scoring failures after which a point is quarantined.
    """

    def __init__(self, service, *, max_restarts_per_shard: int = 5,
                 poison_threshold: int = 3) -> None:
        self._service = service
        self.max_restarts_per_shard = max_restarts_per_shard
        self.poison_threshold = poison_threshold
        self._tracer = getattr(service, "_tracer", None) or NULL_TRACER
        self._events: "queue.Queue[Optional[Tuple[int, List[BatchItem], str]]]" \
            = queue.Queue()
        self._state_lock = threading.Lock()
        self._snapshots: Dict[int, dict] = {}
        self._journals: Dict[int, List[BatchItem]] = {}
        self._poison_counts: Dict[int, int] = {}
        self._restarts: Dict[int, int] = {}
        self._accepting = False
        self._outstanding = 0
        self._idle = threading.Condition()
        self._thread = threading.Thread(target=self._run,
                                        name="spot-supervisor", daemon=True)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "ShardSupervisor":
        self._accepting = True
        self._thread.start()
        return self

    def shutdown(self, timeout: Optional[float] = None) -> None:
        """Finish in-flight recoveries, then stop accepting crash events."""
        self._accepting = False
        self.quiesce(timeout=timeout)
        self._events.put(None)
        self._thread.join(timeout=timeout)

    def quiesce(self, timeout: Optional[float] = None) -> None:
        """Block until every enqueued crash event has been fully handled."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._idle:
            while self._outstanding > 0:
                remaining = None if deadline is None \
                    else deadline - time.monotonic()
                if remaining is not None and remaining <= 0.0:
                    raise ShardRecoveryError(
                        f"supervisor quiesce timed out with "
                        f"{self._outstanding} recoveries in flight")
                self._idle.wait(timeout=0.1 if remaining is None
                                else min(0.1, remaining))

    # ------------------------------------------------------------------ #
    # Bookkeeping fed by the service
    # ------------------------------------------------------------------ #
    def install_snapshots(self, states: List[dict]) -> None:
        """Adopt fresh quiescent snapshots; journals restart from here.

        Called at service ``start()`` (initial detector states) and after
        every successful checkpoint — a failed checkpoint save keeps the old
        snapshot *and* the journal, so recovery never depends on a
        checkpoint that may not exist on disk.
        """
        with self._state_lock:
            for shard_id, state in enumerate(states):
                self._snapshots[shard_id] = state
                self._journals[shard_id] = []

    def adopt_shard(self, shard_id: int, state: dict) -> None:
        """Start supervising one (new) shard from a fresh quiescent snapshot.

        The rebalancer calls this when a fleet grows: the migrated detector
        state is the shard's zeroth checkpoint, and its journal starts
        empty — a crash before the next full checkpoint replays from here.
        """
        with self._state_lock:
            self._snapshots[shard_id] = state
            self._journals[shard_id] = []
            self._restarts.pop(shard_id, None)

    def drop_shard(self, shard_id: int) -> None:
        """Forget a retired shard (fleet shrink): snapshot, journal, budget."""
        with self._state_lock:
            self._snapshots.pop(shard_id, None)
            self._journals.pop(shard_id, None)
            self._restarts.pop(shard_id, None)

    def record_committed(self, shard_id: int, items: List[BatchItem]) -> None:
        """Journal points folded into a shard's detector since its snapshot."""
        with self._state_lock:
            self._journals.setdefault(shard_id, []).extend(items)

    def restarts_of(self, shard_id: int) -> int:
        """How many times a shard has been restarted so far."""
        with self._state_lock:
            return self._restarts.get(shard_id, 0)

    # ------------------------------------------------------------------ #
    # Crash intake (called from worker threads, under the service lock)
    # ------------------------------------------------------------------ #
    def submit_failure(self, shard_id: int, items: List[BatchItem],
                       error: str) -> bool:
        """Enqueue a crash for recovery; ``False`` when no longer accepting."""
        if not self._accepting:
            return False
        with self._idle:
            self._outstanding += 1
        self._events.put((shard_id, list(items), error))
        return True

    # ------------------------------------------------------------------ #
    # Recovery thread
    # ------------------------------------------------------------------ #
    def _run(self) -> None:
        while True:
            event = self._events.get()
            if event is None:
                return
            shard_id, items, error = event
            try:
                self._recover(shard_id, items, error)
            except Exception as exc:
                self._service._record_shard_error(
                    shard_id, f"recovery failed: "
                    f"{type(exc).__name__}: {exc}")
            finally:
                with self._idle:
                    self._outstanding -= 1
                    self._idle.notify_all()

    def _restore(self, snapshot: dict) -> SPOT:
        """Materialise a snapshot for replay (learning inline, sync)."""
        detector = SPOT.from_state(snapshot)
        # Replay resolves deferred searches inline; publications are
        # bit-identical to the coordinator's, so the replayed state matches
        # the crash-free one regardless of the service's learning mode.
        detector.set_deferred_learning(False)
        if detector.pending_learn_requests:
            detector.resolve_pending_learns()
        return detector

    def _recover(self, shard_id: int, failed_items: List[BatchItem],
                 error: str) -> None:
        started = time.monotonic()
        seq_first = failed_items[0].seq if failed_items else -1
        with self._tracer.span("supervisor.recover", shard=shard_id,
                               seq_first=seq_first) as span:
            self._recover_traced(shard_id, failed_items, error, started,
                                 span)

    def _recover_traced(self, shard_id: int, failed_items: List[BatchItem],
                        error: str, started: float, span) -> None:
        service = self._service
        old_worker = service._workers[shard_id]
        # The failed worker retires: it stops consuming (requeueing any batch
        # it already popped) and leaves the backlog to its replacement.
        old_worker.retire()
        old_worker.join(timeout=30.0)
        with self._state_lock:
            restarts = self._restarts.get(shard_id, 0)
            if restarts >= self.max_restarts_per_shard:
                budget_exhausted = True
            else:
                budget_exhausted = False
                self._restarts[shard_id] = restarts + 1
            snapshot = self._snapshots[shard_id]
            journal = list(self._journals.get(shard_id, []))
        if budget_exhausted:
            span.annotate(outcome="budget_exhausted")
            raise ShardRecoveryError(
                f"restart budget ({self.max_restarts_per_shard}) exhausted; "
                f"last failure: {error}")
        span.annotate(restart=restarts + 1, journal_points=len(journal),
                      failed_points=len(failed_items))

        # Crash-time flight snapshot: taken before replay mutates anything,
        # so the diagnostics bundle's ring still shows the decisions
        # committed right up to the crash (no-op when recording is off).
        diag_path = service._emit_crash_diagnostics(shard_id, error)
        if diag_path is not None:
            span.annotate(diagnostics=str(diag_path))

        replay_items = journal + failed_items
        failed_seqs = {item.seq for item in failed_items}
        detector, delivered, quarantined = \
            self._replay(shard_id, snapshot, replay_items, parent=span)

        # Deliver what the crash swallowed: results for the undelivered
        # points (journal points were already delivered pre-crash; replay
        # recomputes them identically) and quarantine reports for poison
        # points.  Delivery goes through the service's normal path, which
        # also re-journals the recovered points for any later crash.
        recovered = [(item, result) for item, result in delivered
                     if item.seq in failed_seqs]
        busy = time.monotonic() - started
        if recovered:
            service._on_results(shard_id, [it for it, _ in recovered],
                                [res for _, res in recovered], busy, None)
        poisoned = [item for item in quarantined if item.seq in failed_seqs]
        if poisoned:
            service._deliver_quarantined(shard_id, poisoned)

        service._install_replacement(shard_id, detector)
        elapsed = time.monotonic() - started
        span.annotate(outcome="recovered", delivered=len(recovered),
                      quarantined=len(poisoned))
        with service._lock:
            stats = service._stats[shard_id]
            stats.restarts.inc()
            stats.recovery_seconds.inc(elapsed)

    def _replay(self, shard_id: int, snapshot: dict,
                items: List[BatchItem], parent=None
                ) -> Tuple[SPOT, List[Tuple[BatchItem, object]],
                           List[BatchItem]]:
        """Restore a shard and re-score everything since its snapshot.

        Returns ``(detector, delivered, quarantined)`` with ``delivered``
        the ``(item, result)`` pairs of every non-poison point in order.
        The fast path replays in one deterministic batch; when it crashes,
        a probe pass isolates the poison point, charges it one (or more)
        observed failures, and — once quarantined — the batch is replayed
        again from a *fresh* restore with the point skipped, so torn probe
        state never leaks into the final detector.
        """
        with self._state_lock:
            skip: Set[int] = {seq for seq, count in self._poison_counts.items()
                              if count >= self.poison_threshold}
        quarantined: List[BatchItem] = []
        for round_number in range(MAX_REPLAY_ROUNDS):
            with self._tracer.span("supervisor.restore", parent=parent,
                                   shard=shard_id, round=round_number):
                detector = self._restore(snapshot)
            live = [item for item in items if item.seq not in skip]
            with self._tracer.span("supervisor.replay", parent=parent,
                                   shard=shard_id, round=round_number,
                                   n=len(live)) as replay_span:
                try:
                    results = detector.detect(
                        [item.values for item in live]) if live else []
                    quarantined = [item for item in items
                                   if item.seq in skip]
                    replay_span.annotate(outcome="replayed")
                    return detector, list(zip(live, results)), quarantined
                except Exception:
                    replay_span.annotate(outcome="probe")
                    # fall through to the isolating probe pass
            probe = self._restore(snapshot)
            offender: Optional[BatchItem] = None
            for item in live:
                try:
                    probe.process(item.values)
                except Exception:
                    offender = item
                    break
            if offender is None:
                raise ShardRecoveryError(
                    f"shard {shard_id}: batched replay fails but every "
                    f"point scores individually")
            with self._state_lock:
                crashes = self._poison_counts.get(offender.seq, 0) + 1
            # Give the point its remaining chances immediately: each extra
            # raise is one more observed scoring failure, a success means
            # the earlier crash was environmental and the batch is retried.
            while crashes < self.poison_threshold:
                try:
                    probe.process(offender.values)
                    break
                except Exception:
                    crashes += 1
            with self._state_lock:
                self._poison_counts[offender.seq] = crashes
                if crashes >= self.poison_threshold:
                    skip.add(offender.seq)
        raise ShardRecoveryError(
            f"shard {shard_id}: replay did not converge within "
            f"{MAX_REPLAY_ROUNDS} rounds")
