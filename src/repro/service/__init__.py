"""Sharded multi-stream detection service.

This package is the serving layer on top of the vectorized detection engine:
many independent streams (tenants) are multiplexed over a small pool of SPOT
detector shards.

* :class:`~repro.service.router.ShardRouter` — stable hash partitioning of
  stream ids onto shards (a stream's points always reach the same shard, in
  arrival order).
* :class:`~repro.service.ring.RingRouter` — the elastic alternative: a
  consistent-hash ring with virtual nodes, so resizing the fleet moves only
  ~K/n of the tenants (``ServiceConfig.router="ring"`` selects it).
* :class:`~repro.service.rebalance.FleetRebalancer` — live fleet elasticity
  on a running service: shard split/merge and tenant migration that drain,
  ship detector state zero-copy, and commit a new topology with decision-
  and SST-identical parity across the migration window.
* :class:`~repro.service.batcher.MicroBatcher` — per-shard FIFO queues that
  coalesce arrivals into ``process_batch``-sized chunks under a
  max-batch-size / max-delay policy, with bounded-queue backpressure.
* :class:`~repro.service.worker.ShardWorker` — one thread per shard driving
  the vectorized engine, reporting per-shard throughput and latency
  percentiles.
* :class:`~repro.service.checkpoint.CheckpointManager` — periodic full-state
  snapshots of every shard; a whole service can be restored and resumed
  decision-identically.
* :class:`~repro.service.learning.LearningCoordinator` — the asynchronous
  learning half: detection shards in deferred-learning mode emit learn
  requests (outlier-driven growth, CS self-evolution, periodic relearn)
  that are evaluated on a thread pool and published back for application
  at deterministic apply points (decision-identical to inline learning).
* :class:`~repro.service.supervisor.ShardSupervisor` — the fault-tolerance
  half: crashed shards are restarted from their latest checkpoint snapshot
  and the points committed since are replayed decision-identically; poison
  points are quarantined instead of retried forever.
* :mod:`~repro.service.faults` — deterministic, seedable fault injection
  (worker crashes, queue stalls, checkpoint-write failures, migration
  crashes).
* :class:`~repro.service.service.DetectionService` — the facade wiring the
  pieces together (``ServiceConfig.learning_mode`` picks sync or async,
  ``ServiceConfig.supervise`` turns fail-stop shards into fail-recover
  ones).
"""

from .batcher import BatchItem, FULL_POLICIES, MicroBatcher
from .checkpoint import CheckpointManager, SERVICE_MANIFEST_VERSION
from .faults import FaultInjector, FaultPlan, InjectedFault
from .learning import LearningCoordinator, LearnTicket
from .rebalance import FleetRebalancer, MigrationReport
from .ring import DEFAULT_VNODES, ROUTER_KINDS, RingRouter, make_router
from .router import ShardRouter
from .service import DetectionService, ServiceConfig, ServiceResult
from .supervisor import ShardSupervisor
from .worker import DEADLINE_POLICIES, ShardStats, ShardWorker

__all__ = [
    "BatchItem",
    "CheckpointManager",
    "DEADLINE_POLICIES",
    "DEFAULT_VNODES",
    "DetectionService",
    "FULL_POLICIES",
    "FaultInjector",
    "FaultPlan",
    "FleetRebalancer",
    "InjectedFault",
    "LearnTicket",
    "LearningCoordinator",
    "MicroBatcher",
    "MigrationReport",
    "ROUTER_KINDS",
    "RingRouter",
    "SERVICE_MANIFEST_VERSION",
    "ServiceConfig",
    "ServiceResult",
    "ShardRouter",
    "ShardStats",
    "ShardSupervisor",
    "ShardWorker",
    "make_router",
]
