"""Deterministic fault injection for the sharded serving layer.

Fault tolerance is only trustworthy if its failure paths run on every CI
pass, which means crashes have to be *scheduled*, not hoped for.  A
:class:`FaultPlan` is a seeded description of exactly which faults fire
and where:

* **worker crash at point k** — the worker owning global sequence ``k``
  commits a prefix of the batch containing ``k`` to its detector and then
  dies, leaving a torn batch whose results were never delivered.  This is
  the worst case the supervisor's snapshot-plus-replay recovery has to
  absorb.
* **checkpoint-write failure at save n** — the n-th checkpoint save writes
  its shard files and dies before the manifest rename, exercising the
  crash-safety contract (the previous checkpoint stays complete).
* **queue stall at point k** — the batch containing ``k`` sleeps before
  scoring, aging everything queued behind it past any configured deadline
  (drives the shed path).
* **migration crash at resize n** — the n-th fleet migration crashes inside
  its migration window, exercising the rebalancer's rollback.

Because every trigger is keyed on a global sequence number and each point
reaches exactly one shard exactly once, a plan fires the same faults at the
same stream positions on every run — and replayed points recovered by the
supervisor never re-trigger an environmental fault (only genuinely poison
points crash again, which is exactly the semantics quarantine needs).
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from ..core.exceptions import ConfigurationError, SPOTError


class InjectedFault(SPOTError):
    """An error raised on purpose by the fault-injection harness."""


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of faults, keyed on global sequence numbers."""

    #: Global seqs at which the owning worker crashes mid-batch.
    crash_points: Tuple[int, ...] = ()
    #: ``(seq, seconds)`` pairs: the batch containing ``seq`` stalls before
    #: scoring.
    stall_points: Tuple[Tuple[int, float], ...] = ()
    #: 1-based indices of checkpoint saves that fail before the manifest
    #: rename (shard files written, manifest not updated).
    checkpoint_failures: Tuple[int, ...] = ()
    #: 1-based indices of fleet migrations that crash inside the migration
    #: window — after the donor states are exported, before the new topology
    #: commits.  The rebalancer rolls the attempt back (the source keeps
    #: ownership) and serving continues on the old topology.
    migration_crashes: Tuple[int, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        for seq in self.crash_points:
            if seq < 0:
                raise ConfigurationError(f"crash point must be >= 0, got {seq}")
        for seq, seconds in self.stall_points:
            if seconds < 0.0:
                raise ConfigurationError(
                    f"stall seconds must be >= 0, got {seconds}")
        for index in self.checkpoint_failures:
            if index < 1:
                raise ConfigurationError(
                    f"checkpoint failure index is 1-based, got {index}")
        for index in self.migration_crashes:
            if index < 1:
                raise ConfigurationError(
                    f"migration crash index is 1-based, got {index}")

    @property
    def empty(self) -> bool:
        """Whether this plan injects nothing at all."""
        return not (self.crash_points or self.stall_points
                    or self.checkpoint_failures or self.migration_crashes)

    @classmethod
    def random(cls, *, seed: int, n_points: int, n_crashes: int = 1,
               n_stalls: int = 0, stall_seconds: float = 0.05,
               n_checkpoint_failures: int = 0) -> "FaultPlan":
        """Draw a reproducible plan over a stream of ``n_points`` points.

        Crash points are kept away from the first sixth of the stream so
        the crashed shard has committed state worth replaying, and away
        from the very last point so recovery happens under traffic.
        """
        if n_points < 4:
            raise ConfigurationError(
                f"need at least 4 points to place faults, got {n_points}")
        rng = random.Random(seed)
        low = max(1, n_points // 6)
        high = max(low + 1, n_points - 2)
        candidates = list(range(low, high))
        n_draws = n_crashes + n_stalls
        if n_draws > len(candidates):
            raise ConfigurationError(
                f"cannot place {n_draws} faults in {len(candidates)} slots")
        drawn = rng.sample(candidates, n_draws)
        crashes = tuple(sorted(drawn[:n_crashes]))
        stalls = tuple(sorted(
            (seq, float(stall_seconds))
            for seq in drawn[n_crashes:]))
        checkpoints = tuple(range(1, n_checkpoint_failures + 1))
        return cls(crash_points=crashes, stall_points=stalls,
                   checkpoint_failures=checkpoints, seed=seed)


class FaultInjector:
    """Runtime companion of a :class:`FaultPlan` (thread-safe, fire-once).

    Exact-seq triggers make fire-once semantics mostly automatic — a
    recovered shard never sees a replayed seq as fresh queue traffic — but
    the injector still tracks fired faults so stats report what actually
    happened, and so checkpoint failures (which are counted per save, not
    per seq) fire exactly once each.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._lock = threading.Lock()
        self._fired_crashes: set = set()
        self._fired_stalls: set = set()
        self._checkpoint_saves = 0
        self._checkpoint_failures = 0
        self._migration_attempts = 0
        self._migration_crashes = 0

    # ------------------------------------------------------------------ #
    # Worker-side triggers (keyed on the seqs of the batch in hand)
    # ------------------------------------------------------------------ #
    def crash_consume(self, seqs: Sequence[int]) -> Optional[int]:
        """If this batch must crash, how many leading points to commit first.

        Returns ``None`` when no crash is scheduled for this batch;
        otherwise the number of items (those preceding the crash point)
        the worker should fold into its detector before dying, so the
        crash tears the batch mid-commit.
        """
        with self._lock:
            for crash_seq in self.plan.crash_points:
                if crash_seq in self._fired_crashes:
                    continue
                if crash_seq in seqs:
                    self._fired_crashes.add(crash_seq)
                    return sum(1 for seq in seqs if seq < crash_seq)
        return None

    def stall_seconds(self, seqs: Sequence[int]) -> float:
        """Total injected stall for this batch (0.0 when none scheduled)."""
        total = 0.0
        with self._lock:
            for stall_seq, seconds in self.plan.stall_points:
                if stall_seq in self._fired_stalls:
                    continue
                if stall_seq in seqs:
                    self._fired_stalls.add(stall_seq)
                    total += seconds
        return total

    # ------------------------------------------------------------------ #
    # Checkpoint-side trigger (counted per save attempt)
    # ------------------------------------------------------------------ #
    def checkpoint_should_fail(self) -> bool:
        """Whether the checkpoint save being attempted right now must fail."""
        with self._lock:
            self._checkpoint_saves += 1
            if self._checkpoint_saves in self.plan.checkpoint_failures:
                self._checkpoint_failures += 1
                return True
        return False

    def migration_should_crash(self) -> bool:
        """Whether the fleet migration being attempted right now must crash.

        Counted per migration attempt (1-based), mirroring the
        checkpoint-save trigger: the n-th ``resize`` call crashes inside its
        migration window when ``n`` is listed in ``migration_crashes``.
        """
        with self._lock:
            self._migration_attempts += 1
            if self._migration_attempts in self.plan.migration_crashes:
                self._migration_crashes += 1
                return True
        return False

    def stats(self) -> Dict[str, int]:
        """How many faults of each kind actually fired."""
        with self._lock:
            return {
                "crashes_fired": len(self._fired_crashes),
                "stalls_fired": len(self._fired_stalls),
                "checkpoint_failures_fired": self._checkpoint_failures,
                "migration_crashes_fired": self._migration_crashes,
            }

