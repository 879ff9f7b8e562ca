"""Live fleet rebalancing: shard split/merge and tenant migration.

The :class:`FleetRebalancer` resizes a *running*
:class:`~repro.service.service.DetectionService` without dropping a
decision.  The protocol, for a grow (``n → m``, a shard split):

1. **Gate** — the service's routing gate closes, so no new point can be
   routed while the topology is in flux.  The gate hold time is the entire
   hot-path cost of the migration (submitters stall, workers don't).
2. **Drain** — every already-routed point is scored and delivered, so the
   fleet sits at one consistent stream position (the *boundary*).
3. **Export** — each new shard's donor exports its detector through the
   zero-copy ``spot-state/v2`` path (``export_state(arrays="copy")``:
   milliseconds, not serialization-bound).
4. **Ship + restore** — the state is rebuilt into a fresh detector
   (``SPOT.from_state``), wired to a fresh micro-batcher and worker, and
   adopted by the supervisor as the new shard's zeroth checkpoint.
5. **Commit** — the router is swapped for one spanning ``m`` shards and the
   gate reopens.  Tenants captured by the new shards continue against a
   detector whose state is *identical* to their old shard's at the
   boundary, so decisions are exactly those of the deterministic spec —
   the parity suite and the ``rebalance`` bench reconstruct this oracle.

A shrink (shard merge) drains the same way, retires the trailing shards
(each has scored everything routed to it — the source keeps ownership of
every point it ever accepted), drops their supervision state, and swaps in
the smaller router; surviving shards are untouched.

A migration-window fault (``FaultPlan.migration_crashes``) fires after the
export, before the commit: the attempt is rolled back, nothing is
installed, the old topology keeps serving, and the report says
``committed=False`` — crash-mid-migration recovery is decision-identical
because ownership never moved.

With ``router="ring"`` the commit moves only the keys the consistent-hash
ring must move (≤ K/n on a grow); with the static router a resize remaps
most keys but remains exactly as correct — every shard's post-boundary
sub-stream is scored by a detector holding the full pre-boundary history.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from ..core.detector import SPOT
from ..core.exceptions import ConfigurationError
from .ring import make_router
from .worker import ShardStats

#: Operations a MigrationReport can describe.
MIGRATION_OPS = ("grow", "shrink", "pin", "noop")


@dataclass(frozen=True)
class MigrationReport:
    """What one rebalancing attempt did (committed or rolled back)."""

    attempt: int
    op: str
    from_shards: int
    to_shards: int
    #: ``points_submitted`` at the migration window — every decision up to
    #: (exclusive) this global seq was made on the old topology, everything
    #: after on the new one.  The parity oracle splits the stream here.
    boundary: int
    #: ``(new_shard, donor_shard)`` pairs on a grow: which live detector
    #: each new shard's state was exported from.
    donors: Tuple[Tuple[int, int], ...] = ()
    #: Shard ids retired on a shrink.
    retired: Tuple[int, ...] = ()
    #: Stream ids explicitly re-pinned (tenant migration).
    moved_streams: Tuple[str, ...] = ()
    committed: bool = True
    #: How long the routing gate was held — the hot-path stall submitters
    #: observed (the bench bounds this against steady-state latency).
    stall_seconds: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        """Plain-data form (bench rows, ``fleet status`` output)."""
        return {
            "attempt": self.attempt,
            "op": self.op,
            "from_shards": self.from_shards,
            "to_shards": self.to_shards,
            "boundary": self.boundary,
            "donors": [list(pair) for pair in self.donors],
            "retired": list(self.retired),
            "moved_streams": list(self.moved_streams),
            "committed": self.committed,
            "stall_ms": round(1e3 * self.stall_seconds, 3),
        }


class FleetRebalancer:
    """Resizes and re-pins a running :class:`DetectionService` in place."""

    def __init__(self, service) -> None:
        self._service = service
        self._attempts = 0
        self._history: List[MigrationReport] = []

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def history(self) -> List[MigrationReport]:
        """Every attempt so far, oldest first (aborted ones included)."""
        return list(self._history)

    def status(self) -> Dict[str, object]:
        """A JSON-ready snapshot of the fleet's routing topology."""
        service = self._service
        return {
            "n_shards": service.config.n_shards,
            "router": service.router.kind,
            "router_salt": service.config.router_salt,
            "pins": dict(service.router.pins),
            "learning_mode": service.config.learning_mode,
            "points_submitted": service.points_submitted,
            "points_completed": service.points_completed,
            "queued": [len(batcher) for batcher in service._batchers],
            "migrations": [report.to_dict() for report in self._history],
        }

    # ------------------------------------------------------------------ #
    # The migration window
    # ------------------------------------------------------------------ #
    def _require_serving(self) -> None:
        service = self._service
        if not service._started:
            raise ConfigurationError(
                "start() the service before rebalancing it")
        if service._stopped:
            raise ConfigurationError("the service has been stopped")

    def _quiesce(self) -> None:
        """Drain the fleet to one consistent boundary (gate already held)."""
        service = self._service
        service.drain()
        if service._supervisor is not None:
            # Recoveries deliver through the normal completion path, so the
            # drain covered them; quiesce additionally guarantees any worker
            # swap finished before we export or retire anything.
            service._supervisor.quiesce()

    def _record_event(self, kind: str, **data) -> None:
        service = self._service
        if service._record_on:
            service._recorder.record_event(kind, shard=0, **data)
        if service._trace_on:
            service._tracer.event(f"fleet.{kind}", **data)

    def _finish(self, report: MigrationReport) -> MigrationReport:
        self._history.append(report)
        return report

    def resize(self, n_shards: int,
               timeout: Optional[float] = 60.0) -> MigrationReport:
        """Grow or shrink the fleet to ``n_shards``, live.

        Returns the :class:`MigrationReport`; ``committed=False`` means a
        migration-window fault rolled the attempt back and the old topology
        is still serving (nothing was lost — the source kept ownership).
        """
        if n_shards < 1:
            raise ConfigurationError(
                f"n_shards must be positive, got {n_shards}")
        self._require_serving()
        service = self._service
        self._attempts += 1
        attempt = self._attempts
        started = time.perf_counter()
        with service._route_gate:
            old_n = service.config.n_shards
            if n_shards == old_n:
                return self._finish(MigrationReport(
                    attempt=attempt, op="noop", from_shards=old_n,
                    to_shards=old_n, boundary=service.points_submitted,
                    stall_seconds=time.perf_counter() - started))
            op = "grow" if n_shards > old_n else "shrink"
            self._quiesce()
            boundary = service.points_submitted
            self._record_event("migrate-start", op=op, attempt=attempt,
                               from_shards=old_n, to_shards=n_shards,
                               boundary=boundary)
            if op == "grow":
                report = self._grow(attempt, old_n, n_shards, boundary,
                                    timeout)
            else:
                report = self._shrink(attempt, old_n, n_shards, boundary,
                                      timeout)
            if not report.committed:
                return self._finish(replace(
                    report, stall_seconds=time.perf_counter() - started))
            self._swap_router(n_shards)
            self._record_event("migrate-commit", op=op, attempt=attempt,
                               from_shards=old_n, to_shards=n_shards,
                               boundary=boundary)
        return self._finish(replace(
            report, stall_seconds=time.perf_counter() - started))

    def _grow(self, attempt: int, old_n: int, new_n: int, boundary: int,
              timeout: Optional[float]) -> MigrationReport:
        """Split: clone donor shards' drained state onto the new shards."""
        service = self._service
        donors = tuple((shard, shard % old_n)
                       for shard in range(old_n, new_n))
        # Export every donor first: the whole window is all-or-nothing, so
        # a fault mid-export aborts before anything is installed.
        states = [service._workers[donor].export_state()
                  for _, donor in donors]
        if service._faults is not None \
                and service._faults.migration_should_crash():
            self._record_event("migrate-abort", op="grow", attempt=attempt,
                               from_shards=old_n, to_shards=new_n,
                               boundary=boundary)
            return MigrationReport(attempt=attempt, op="grow",
                                   from_shards=old_n, to_shards=old_n,
                                   boundary=boundary, donors=donors,
                                   committed=False)
        new_workers = []
        for (shard_id, _), state in zip(donors, states):
            detector = SPOT.from_state(state)
            if service.config.evidence:
                detector.set_evidence_enabled(True)
            detector.bind_obs(tracer=service._tracer,
                              recorder=service._recorder,
                              registry=service.metrics)
            batcher = service._make_batcher()
            with service._lock:
                service._detectors.append(detector)
                service._batchers.append(batcher)
                service._stats.append(
                    ShardStats(shard_id=shard_id, registry=service.metrics))
            worker = service._build_worker(shard_id, detector, batcher)
            with service._lock:
                service._workers.append(worker)
            if service._supervisor is not None:
                service._supervisor.adopt_shard(shard_id, state)
            new_workers.append(worker)
        for worker in new_workers:
            worker.start()
        return MigrationReport(attempt=attempt, op="grow",
                               from_shards=old_n, to_shards=new_n,
                               boundary=boundary, donors=donors)

    def _shrink(self, attempt: int, old_n: int, new_n: int, boundary: int,
                timeout: Optional[float]) -> MigrationReport:
        """Merge: retire the trailing shards (fully drained, fully owned)."""
        service = self._service
        retired = tuple(range(new_n, old_n))
        if service._faults is not None \
                and service._faults.migration_should_crash():
            self._record_event("migrate-abort", op="shrink", attempt=attempt,
                               from_shards=old_n, to_shards=new_n,
                               boundary=boundary)
            return MigrationReport(attempt=attempt, op="shrink",
                                   from_shards=old_n, to_shards=old_n,
                                   boundary=boundary, retired=retired,
                                   committed=False)
        for shard_id in retired:
            worker = service._workers[shard_id]
            worker.shutdown(timeout=timeout)
            failure = worker.failure
            if failure is not None:
                service._record_shard_error(
                    shard_id, f"failed while retiring: "
                    f"{type(failure).__name__}: {failure}")
            if service._supervisor is not None:
                service._supervisor.drop_shard(shard_id)
        with service._lock:
            # The ShardStats counters stay registered in the metrics
            # registry, so fleet totals (stats()["points"], robustness)
            # keep counting what the retired shards served.
            del service._detectors[new_n:]
            del service._batchers[new_n:]
            del service._workers[new_n:]
            del service._stats[new_n:]
        return MigrationReport(attempt=attempt, op="shrink",
                               from_shards=old_n, to_shards=new_n,
                               boundary=boundary, retired=retired)

    def _swap_router(self, n_shards: int) -> None:
        """Install the resized router + config (gate held, fleet drained)."""
        service = self._service
        router = make_router(service.config.router, n_shards,
                             salt=service.config.router_salt)
        # Pins survive a resize unless their target shard was retired.
        router.pins.update({stream: shard for stream, shard
                            in service.router.pins.items()
                            if shard < n_shards})
        service.router = router
        service.config = replace(service.config, n_shards=n_shards)

    # ------------------------------------------------------------------ #
    # Tenant migration (pin one stream to a chosen shard)
    # ------------------------------------------------------------------ #
    def migrate_tenant(self, stream_id: str,
                       target_shard: int) -> MigrationReport:
        """Move one tenant onto ``target_shard``, preserving stream order.

        The fleet drains to a boundary under the routing gate, the pin is
        installed, and the gate reopens: every pre-boundary point of the
        tenant was scored by its old shard (source ownership), every later
        one lands on the target — no point is reordered or dropped, and the
        tenant's SLO window is untouched (SLO tracking is keyed by stream,
        not by shard).  Pins persist through checkpoints.
        """
        self._require_serving()
        service = self._service
        if not 0 <= target_shard < service.config.n_shards:
            raise ConfigurationError(
                f"target shard {target_shard} is not in the fleet "
                f"(0..{service.config.n_shards - 1})")
        self._attempts += 1
        attempt = self._attempts
        started = time.perf_counter()
        with service._route_gate:
            source = service.router.shard_of(stream_id)
            boundary = service.points_submitted
            if source == target_shard:
                return self._finish(MigrationReport(
                    attempt=attempt, op="noop",
                    from_shards=service.config.n_shards,
                    to_shards=service.config.n_shards, boundary=boundary,
                    moved_streams=(stream_id,),
                    stall_seconds=time.perf_counter() - started))
            self._quiesce()
            boundary = service.points_submitted
            self._record_event("migrate-start", op="pin", attempt=attempt,
                               stream=stream_id, source=source,
                               target=target_shard, boundary=boundary)
            if service._faults is not None \
                    and service._faults.migration_should_crash():
                self._record_event("migrate-abort", op="pin",
                                   attempt=attempt, stream=stream_id,
                                   source=source, target=target_shard,
                                   boundary=boundary)
                return self._finish(MigrationReport(
                    attempt=attempt, op="pin",
                    from_shards=service.config.n_shards,
                    to_shards=service.config.n_shards, boundary=boundary,
                    moved_streams=(stream_id,), committed=False,
                    stall_seconds=time.perf_counter() - started))
            service.router.pins[stream_id] = int(target_shard)
            self._record_event("migrate-commit", op="pin", attempt=attempt,
                               stream=stream_id, source=source,
                               target=target_shard, boundary=boundary)
        return self._finish(MigrationReport(
            attempt=attempt, op="pin", from_shards=service.config.n_shards,
            to_shards=service.config.n_shards, boundary=boundary,
            moved_streams=(stream_id,),
            stall_seconds=time.perf_counter() - started))
