"""Online adaptation: CS self-evolution, CS relearning and OS growth.

Three of SPOT's mechanisms for coping with the dynamics of data streams run
*inside* the detection stage and therefore have to be cheap:

* **Self-evolution of CS** — periodically, new candidate subspaces are created
  by crossovering and mutating the current top CS subspaces; the old and new
  members are then re-ranked against the recent data and the best ones form
  the new CS.
* **Periodic relearning of CS** — optionally, a fresh MOGA search (seeded by
  the current CS) is run over the reservoir and replaces CS wholesale — the
  online analogue of re-running the unsupervised learning stage.
* **OS growth** — every detected outlier is stored and its top sparse
  subspaces (found by a small MOGA run targeted at the outlier) are added to
  the OS component, so the template's detecting ability keeps improving as
  outliers accumulate.

All three operate on a bounded reservoir of recent points (the online
stand-in for the offline training batch) so their cost does not grow with
the stream, and all three are split into the request / evaluate / apply
phases of :mod:`repro.learning.requests`:

* the *request* phase captures a reservoir snapshot and consumes whatever
  randomness the mechanism owns (the self-evolution offspring draw, the
  growth/relearn seed counters) — it is always executed at the trigger
  position;
* the *evaluate* phase is a pure function and may run inline (the default,
  synchronous behaviour of :meth:`SelfEvolution.evolve` /
  :meth:`OutlierDrivenGrowth.grow`) or remotely on the learning service's
  worker pool;
* the *apply* phase folds the publication into the SST — at the same
  position the synchronous path would, which is what keeps the asynchronous
  mode decision-identical.

Evaluations are shared across searches through a per-mechanism
:class:`~repro.moga.objectives.ObjectiveMemo` keyed by the reservoir
version: consecutive searches between reservoir changes reuse each other's
objective vectors instead of recomputing them.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.config import SPOTConfig
from ..core.exceptions import ConfigurationError
from ..core.grid import Grid
from ..core.sst import RankedSubspace, SparseSubspaceTemplate
from ..core.subspace import Subspace
from ..moga import (
    Chromosome,
    ObjectiveMemo,
    make_offspring,
    make_sparsity_objectives,
)
from .requests import (
    EvolutionRequest,
    GrowthRequest,
    LearnPublication,
    RelearnRequest,
    ReservoirSnapshot,
    evaluate_learn_request,
)


class RecentPointsBuffer:
    """Fixed-capacity reservoir of the most recent stream points.

    The monotonic :attr:`version` counts every point ever added; snapshots
    taken at the same version hold identical contents, which is what the
    objective memo is keyed on.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ConfigurationError("capacity must be positive")
        self._buffer: Deque[Tuple[float, ...]] = deque(maxlen=capacity)
        self._version = 0

    def add(self, point: Sequence[float]) -> None:
        """Record one point (older points fall off the end)."""
        self._buffer.append(tuple(float(v) for v in point))
        self._version += 1

    def extend(self, points: Iterable[Sequence[float]]) -> None:
        """Record a chunk of points in stream order (one version bump each)."""
        append = self._buffer.append
        count = 0
        for point in points:
            append(tuple(float(v) for v in point))
            count += 1
        self._version += count

    def extend_prepared(self, points: Sequence[Tuple[float, ...]]) -> None:
        """Record already-normalised float tuples (the batch detection path
        hands over ``ndarray.tolist()`` output, so per-value coercion would
        be pure overhead)."""
        self._buffer.extend(points)
        self._version += len(points)

    def snapshot(self) -> List[Tuple[float, ...]]:
        """The buffered points, oldest first."""
        return list(self._buffer)

    def versioned_snapshot(self) -> ReservoirSnapshot:
        """An immutable snapshot tagged with the current version."""
        return ReservoirSnapshot(version=self._version,
                                 points=tuple(self._buffer))

    def __len__(self) -> int:
        return len(self._buffer)

    @property
    def capacity(self) -> int:
        """Maximum number of points retained."""
        return self._buffer.maxlen or 0

    @property
    def version(self) -> int:
        """Total number of points ever added (monotonic)."""
        return self._version

    def state_to_dict(self, array_mode: str = "json") -> dict:
        """Snapshot for detector checkpointing (capacity + buffered points).

        ``array_mode`` other than ``"json"`` exports the reservoir as one
        ``(n, phi)`` float64 matrix instead of nested lists — the reservoir
        is the largest non-cell part of a checkpoint, and the array form
        keeps ``.npz`` snapshot cost independent of its fill level.  The
        matrix is freshly built either way, so "view" and "copy" coincide.
        """
        if array_mode == "json" or not self._buffer:
            points: object = [list(point) for point in self._buffer]
        else:
            points = np.asarray(list(self._buffer), dtype=np.float64)
        return {"capacity": self.capacity,
                "version": self._version,
                "points": points}

    @classmethod
    def from_state(cls, payload: dict) -> "RecentPointsBuffer":
        """Rebuild a buffer from :meth:`state_to_dict` output."""
        points = payload["points"]
        if isinstance(points, np.ndarray):
            points = points.tolist()
        buffer = cls(int(payload["capacity"]))
        for point in points:
            buffer.add(point)
        buffer._version = int(payload.get("version", len(points)))
        return buffer


def _memo_view(memo: ObjectiveMemo, snapshot: ReservoirSnapshot,
               target_key: object):
    """Memo view for a snapshot, or ``None`` for unversioned (ad-hoc) calls."""
    if snapshot.version < 0:
        return None
    return memo.view(snapshot.version, target_key)


def _as_snapshot(recent_points: Sequence[Sequence[float]],
                 version: Optional[int]) -> ReservoirSnapshot:
    """Wrap raw recent points; ``version=None`` marks the snapshot ad-hoc.

    A ready-made :class:`ReservoirSnapshot` (the detector passes
    :meth:`RecentPointsBuffer.versioned_snapshot`) is passed through as is —
    its points are already canonical float tuples.  Ad-hoc snapshots
    (version -1) never touch the cross-search memo — the caller gave no
    freshness key, so reusing vectors would be unsound.
    """
    if isinstance(recent_points, ReservoirSnapshot):
        return recent_points
    return ReservoirSnapshot(
        version=-1 if version is None else int(version),
        points=tuple(tuple(float(v) for v in p) for p in recent_points))


class SelfEvolution:
    """Periodic online re-generation and re-ranking of the CS component.

    Candidate re-scoring against the recent-points reservoir runs on the
    objective implementation ``config.engine`` selects; both engines rank
    candidates identically (exact objective parity), so the evolved CS does
    not depend on the engine.
    """

    def __init__(self, config: SPOTConfig, grid: Grid) -> None:
        self._config = config
        self._grid = grid
        self._rng = random.Random(config.random_seed + 977)
        self._rounds = 0
        self._last_memory: Dict[str, int] = {}
        self.memo = ObjectiveMemo()

    @property
    def rounds(self) -> int:
        """Number of evolution rounds executed so far."""
        return self._rounds

    @property
    def last_memory_footprint(self) -> Dict[str, int]:
        """Objective memo / batch memory of the most recent evolution round."""
        return dict(self._last_memory)

    def state_to_dict(self) -> dict:
        """Snapshot for detector checkpointing (round count + RNG state).

        The Mersenne-Twister state is captured so a restored detector draws
        the exact same crossover/mutation decisions an uninterrupted run
        would — that is what keeps resumed streams decision-identical.
        """
        version, internal, gauss_next = self._rng.getstate()
        return {"rounds": self._rounds,
                "rng_state": [version, list(internal), gauss_next]}

    def restore_state(self, payload: dict) -> None:
        """Inverse of :meth:`state_to_dict`."""
        self._rounds = int(payload["rounds"])
        version, internal, gauss_next = payload["rng_state"]
        self._rng.setstate((version, tuple(internal), gauss_next))

    def propose(self, sst: SparseSubspaceTemplate,
                recent_points: Sequence[Sequence[float]], *,
                version: Optional[int] = None,
                position: int = 0) -> Optional[EvolutionRequest]:
        """Draw one round's offspring and package the re-ranking request.

        Consumes the component's RNG exactly as the synchronous round would;
        returns ``None`` (no RNG use, no round counted) when the round would
        be a no-op (fewer than two CS members or too little recent data).
        """
        current = sst.clustering_ranked
        if len(current) < 2 or len(recent_points) < 10:
            return None
        self._rounds += 1
        config = self._config
        phi = sst.phi

        parents = [Chromosome.from_subspace(item.subspace, phi)
                   for item in current]
        candidates: List[Subspace] = []
        for i in range(0, len(parents) - 1, 2):
            child_a, child_b = make_offspring(
                parents[i], parents[i + 1], self._rng,
                crossover_rate=config.moga_crossover_rate,
                mutation_rate=max(config.moga_mutation_rate, 0.05),
                max_dimension=config.moga_max_dimension,
            )
            candidates.append(child_a.to_subspace())
            candidates.append(child_b.to_subspace())

        return EvolutionRequest(
            request_id=f"self_evolution-{self._rounds}",
            position=position,
            incumbents=tuple(item.subspace for item in current),
            candidates=tuple(candidates),
            capacity=sst.cs_capacity,
            engine=config.engine,
            snapshot=_as_snapshot(recent_points, version),
        )

    def evaluate(self, request: EvolutionRequest) -> LearnPublication:
        """Run the re-ranking inline, sharing this component's memo."""
        objectives = make_sparsity_objectives(
            request.snapshot.points, self._grid, engine=request.engine,
            memo=_memo_view(self.memo, request.snapshot, request.target_key))
        return evaluate_learn_request(request, self._grid,
                                      objectives=objectives)

    def apply(self, sst: SparseSubspaceTemplate, request: EvolutionRequest,
              publication: LearnPublication) -> int:
        """Install the published CS; returns how many new subspaces joined."""
        kept = [RankedSubspace(subspace=subspace, score=score)
                for subspace, score in publication.ranked]
        sst.replace_clustering_ranked(kept)
        self._last_memory = dict(publication.memory)
        incumbents = set(request.incumbents)
        kept_subspaces = {item.subspace for item in kept}
        return sum(1 for subspace in kept_subspaces
                   if subspace not in incumbents)

    def evolve(self, sst: SparseSubspaceTemplate,
               recent_points: Sequence[Sequence[float]], *,
               version: Optional[int] = None) -> int:
        """Run one full synchronous round; returns how many new subspaces joined CS.

        The current CS members are crossovered and mutated pairwise to produce
        a batch of candidate subspaces; candidates and incumbents are then
        re-ranked against ``recent_points`` and the best ``cs_capacity`` of
        them become the new CS.  With no CS members or too little recent data
        the round is a no-op.  ``version`` (the reservoir version the points
        were snapshotted at) unlocks cross-search memo reuse.
        """
        request = self.propose(sst, recent_points, version=version)
        if request is None:
            return 0
        return self.apply(sst, request, self.evaluate(request))


class OutlierDrivenGrowth:
    """Adds the sparse subspaces of detected outliers to the OS component.

    Each per-outlier MOGA search runs on the objective implementation
    ``config.engine`` selects; the retained subspaces are engine-independent.
    """

    def __init__(self, config: SPOTConfig, grid: Grid) -> None:
        self._config = config
        self._grid = grid
        self._searches = 0
        self._last_memory: Dict[str, int] = {}
        self.memo = ObjectiveMemo()

    @property
    def searches(self) -> int:
        """Number of per-outlier MOGA searches run so far."""
        return self._searches

    @property
    def last_memory_footprint(self) -> Dict[str, int]:
        """Objective memo / batch memory of the most recent outlier search."""
        return dict(self._last_memory)

    def state_to_dict(self) -> dict:
        """Snapshot for detector checkpointing.

        The search counter is the component's only state: each MOGA run is
        seeded from ``random_seed + 5000 + searches``, so restoring the
        counter restores the whole future search sequence.
        """
        return {"searches": self._searches}

    def restore_state(self, payload: dict) -> None:
        """Inverse of :meth:`state_to_dict`."""
        self._searches = int(payload["searches"])

    def begin(self, outlier: Sequence[float],
              recent_points: Sequence[Sequence[float]], *,
              subspaces_per_outlier: int = 2,
              version: Optional[int] = None,
              position: int = 0) -> Optional[GrowthRequest]:
        """Claim one search slot (counter + seed) and package the request.

        Returns ``None`` — without consuming a seed — when the reservoir is
        too small, mirroring the synchronous early-out.
        """
        if len(recent_points) < 10:
            return None
        config = self._config
        self._searches += 1
        return GrowthRequest(
            request_id=f"os_growth-{self._searches}",
            position=position,
            outlier=tuple(float(v) for v in outlier),
            seed=config.random_seed + 5000 + self._searches,
            top_k=subspaces_per_outlier,
            population_size=max(10, config.moga_population // 2),
            generations=max(5, config.moga_generations // 3),
            mutation_rate=config.moga_mutation_rate,
            crossover_rate=config.moga_crossover_rate,
            max_dimension=config.moga_max_dimension,
            engine=config.engine,
            snapshot=_as_snapshot(recent_points, version),
        )

    def evaluate(self, request: GrowthRequest) -> LearnPublication:
        """Run the per-outlier search inline, sharing this component's memo."""
        objectives = make_sparsity_objectives(
            request.snapshot.points, self._grid, engine=request.engine,
            target_points=request.target_points,
            memo=_memo_view(self.memo, request.snapshot, request.target_key))
        return evaluate_learn_request(request, self._grid,
                                      objectives=objectives)

    def apply(self, sst: SparseSubspaceTemplate, request: GrowthRequest,
              publication: LearnPublication) -> int:
        """Fold the published subspaces into OS; returns how many were retained."""
        self._last_memory = dict(publication.memory)
        added = 0
        for subspace, score in publication.ranked:
            if sst.add_outlier_driven_subspace(subspace, score):
                added += 1
        return added

    def grow(self, sst: SparseSubspaceTemplate,
             outlier: Sequence[float],
             recent_points: Sequence[Sequence[float]],
             *,
             subspaces_per_outlier: int = 2,
             version: Optional[int] = None) -> int:
        """Search the outlier's sparse subspaces and fold them into OS.

        Returns the number of subspaces that were actually retained by OS
        (0 when the buffer is too small or the subspaces were already known).
        """
        request = self.begin(outlier, recent_points,
                             subspaces_per_outlier=subspaces_per_outlier,
                             version=version)
        if request is None:
            return 0
        return self.apply(sst, request, self.evaluate(request))


class PeriodicRelearn:
    """Periodic wholesale relearning of CS from the reservoir.

    Where self-evolution nudges CS with GA offspring of its own members, a
    relearn round runs a full (budgeted) MOGA search over the current
    reservoir — seeded by the incumbent CS so known-good subspaces compete —
    and replaces CS with the search's top ranked archive.  Disabled unless
    ``SPOTConfig.relearn_period`` is positive.
    """

    def __init__(self, config: SPOTConfig, grid: Grid) -> None:
        self._config = config
        self._grid = grid
        self._rounds = 0
        self._last_memory: Dict[str, int] = {}
        self.memo = ObjectiveMemo()

    @property
    def rounds(self) -> int:
        """Number of relearn rounds executed so far."""
        return self._rounds

    @property
    def last_memory_footprint(self) -> Dict[str, int]:
        """Objective memo / batch memory of the most recent relearn round."""
        return dict(self._last_memory)

    def state_to_dict(self) -> dict:
        """Snapshot for detector checkpointing (the seed counter)."""
        return {"rounds": self._rounds}

    def restore_state(self, payload: dict) -> None:
        """Inverse of :meth:`state_to_dict`."""
        self._rounds = int(payload["rounds"])

    def propose(self, sst: SparseSubspaceTemplate,
                recent_points: Sequence[Sequence[float]], *,
                version: Optional[int] = None,
                position: int = 0) -> Optional[RelearnRequest]:
        """Claim one relearn round and package the request (or ``None``)."""
        if len(recent_points) < 10 or sst.cs_capacity <= 0:
            return None
        self._rounds += 1
        config = self._config
        return RelearnRequest(
            request_id=f"relearn-{self._rounds}",
            position=position,
            incumbents=sst.clustering_subspaces,
            seed=config.random_seed + 9000 + self._rounds,
            capacity=sst.cs_capacity,
            population_size=config.moga_population,
            generations=config.moga_generations,
            mutation_rate=config.moga_mutation_rate,
            crossover_rate=config.moga_crossover_rate,
            max_dimension=config.moga_max_dimension,
            engine=config.engine,
            snapshot=_as_snapshot(recent_points, version),
        )

    def evaluate(self, request: RelearnRequest) -> LearnPublication:
        """Run the relearn search inline, sharing this component's memo."""
        objectives = make_sparsity_objectives(
            request.snapshot.points, self._grid, engine=request.engine,
            memo=_memo_view(self.memo, request.snapshot, request.target_key))
        return evaluate_learn_request(request, self._grid,
                                      objectives=objectives)

    def apply(self, sst: SparseSubspaceTemplate, request: RelearnRequest,
              publication: LearnPublication) -> int:
        """Replace CS with the published ranking; returns the new-member count."""
        self._last_memory = dict(publication.memory)
        incumbents = set(request.incumbents)
        sst.set_clustering(publication.ranked)
        return sum(1 for subspace in sst.clustering_subspaces
                   if subspace not in incumbents)

    def relearn(self, sst: SparseSubspaceTemplate,
                recent_points: Sequence[Sequence[float]], *,
                version: Optional[int] = None) -> int:
        """Run one full synchronous relearn round; returns the new-member count."""
        request = self.propose(sst, recent_points, version=version)
        if request is None:
            return 0
        return self.apply(sst, request, self.evaluate(request))
