"""The learn-request / publication protocol of off-hot-path learning.

The online adaptation mechanisms (per-outlier OS growth, periodic CS
self-evolution, periodic CS relearning) all follow the same shape: at a
deterministic stream position a *trigger* fires, an expensive MOGA search
runs over a snapshot of the recent-points reservoir, and the resulting
subspaces are folded into the SST.  This module splits that shape into three
explicit, serialisable phases so the search can leave the detection path:

1. **Request** — everything the search needs, captured at the trigger
   position: the reservoir snapshot (with its version), the search seed or
   the pre-drawn GA candidates, and the search budget.  Requests are pure
   data (JSON round-trippable), so in-flight requests survive detector
   checkpoints.
2. **Evaluation** — :func:`evaluate_learn_request` is a pure function of
   (request, grid): it touches no detector state, so it can run inline (the
   synchronous path) or on the coordinator's thread pool, and always
   produces the same publication.  All randomness is consumed either at
   request time (self-evolution's offspring draw) or via an explicit seed
   carried by the request (OS growth, relearn), which is what makes the
   asynchronous mode decision-identical to the synchronous baseline.
3. **Publication** — the ranked subspaces the search found, applied to the
   SST at the request's apply point (immediately after the trigger position,
   before the next point of that stream is processed).

The ``LearningCoordinator`` (:mod:`repro.service.learning`) evaluates
requests off the detection path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..core.exceptions import ConfigurationError, SerializationError
from ..core.grid import Grid
from ..core.sst import RankedSubspace
from ..core.subspace import Subspace
from ..moga import make_sparsity_objectives, rank_sparse_subspaces

#: Request kinds, in the order the detector emits them at one position.
GROWTH_KIND = "os_growth"
EVOLUTION_KIND = "self_evolution"
RELEARN_KIND = "relearn"


@dataclass(frozen=True)
class ReservoirSnapshot:
    """An immutable copy of the recent-points reservoir at a trigger position.

    ``version`` is the reservoir's monotonic add-counter — requests captured
    at the same stream position share it, which is what the objective memo
    is keyed on.
    """

    version: int
    points: Tuple[Tuple[float, ...], ...]

    def __len__(self) -> int:
        return len(self.points)

    def to_dict(self) -> dict:
        return {"version": self.version,
                "points": [list(point) for point in self.points]}

    @classmethod
    def from_dict(cls, payload: dict) -> "ReservoirSnapshot":
        return cls(version=int(payload["version"]),
                   points=tuple(tuple(float(v) for v in point)
                                for point in payload["points"]))


@dataclass(frozen=True)
class GrowthRequest:
    """Per-outlier OS-growth search: MOGA targeted at one detected outlier."""

    request_id: str
    position: int
    outlier: Tuple[float, ...]
    seed: int
    top_k: int
    population_size: int
    generations: int
    mutation_rate: float
    crossover_rate: float
    max_dimension: int
    engine: str
    snapshot: ReservoirSnapshot

    kind = GROWTH_KIND

    @property
    def target_points(self) -> Optional[Tuple[Tuple[float, ...], ...]]:
        """The optimisation targets (the outlier itself)."""
        return (self.outlier,)

    @property
    def target_key(self) -> object:
        """Objective-memo key: growth vectors are target-specific."""
        return self.outlier

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "request_id": self.request_id,
            "position": self.position,
            "outlier": list(self.outlier),
            "seed": self.seed,
            "top_k": self.top_k,
            "population_size": self.population_size,
            "generations": self.generations,
            "mutation_rate": self.mutation_rate,
            "crossover_rate": self.crossover_rate,
            "max_dimension": self.max_dimension,
            "engine": self.engine,
            "snapshot": self.snapshot.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "GrowthRequest":
        return cls(
            request_id=str(payload["request_id"]),
            position=int(payload["position"]),
            outlier=tuple(float(v) for v in payload["outlier"]),
            seed=int(payload["seed"]),
            top_k=int(payload["top_k"]),
            population_size=int(payload["population_size"]),
            generations=int(payload["generations"]),
            mutation_rate=float(payload["mutation_rate"]),
            crossover_rate=float(payload["crossover_rate"]),
            max_dimension=int(payload["max_dimension"]),
            engine=str(payload["engine"]),
            snapshot=ReservoirSnapshot.from_dict(payload["snapshot"]),
        )


@dataclass(frozen=True)
class EvolutionRequest:
    """CS self-evolution: re-rank incumbents + pre-drawn GA offspring.

    The offspring are drawn from the component's Mersenne state *at request
    time* (the same state the synchronous path would consume at the same
    position), so the evaluation itself is deterministic data-in/data-out.
    """

    request_id: str
    position: int
    incumbents: Tuple[Subspace, ...]
    candidates: Tuple[Subspace, ...]
    capacity: int
    engine: str
    snapshot: ReservoirSnapshot

    kind = EVOLUTION_KIND

    @property
    def target_points(self) -> Optional[Tuple[Tuple[float, ...], ...]]:
        """Self-evolution scores the whole snapshot (no explicit targets)."""
        return None

    @property
    def target_key(self) -> object:
        return None

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "request_id": self.request_id,
            "position": self.position,
            "incumbents": [list(s.dimensions) for s in self.incumbents],
            "candidates": [list(s.dimensions) for s in self.candidates],
            "capacity": self.capacity,
            "engine": self.engine,
            "snapshot": self.snapshot.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "EvolutionRequest":
        return cls(
            request_id=str(payload["request_id"]),
            position=int(payload["position"]),
            incumbents=tuple(Subspace(dims)
                             for dims in payload["incumbents"]),
            candidates=tuple(Subspace(dims)
                             for dims in payload["candidates"]),
            capacity=int(payload["capacity"]),
            engine=str(payload["engine"]),
            snapshot=ReservoirSnapshot.from_dict(payload["snapshot"]),
        )


@dataclass(frozen=True)
class RelearnRequest:
    """Periodic CS relearn: a fresh MOGA over the reservoir, seeded by CS."""

    request_id: str
    position: int
    incumbents: Tuple[Subspace, ...]
    seed: int
    capacity: int
    population_size: int
    generations: int
    mutation_rate: float
    crossover_rate: float
    max_dimension: int
    engine: str
    snapshot: ReservoirSnapshot

    kind = RELEARN_KIND

    @property
    def target_points(self) -> Optional[Tuple[Tuple[float, ...], ...]]:
        """Relearning scores the whole snapshot (no explicit targets)."""
        return None

    @property
    def target_key(self) -> object:
        return None

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "request_id": self.request_id,
            "position": self.position,
            "incumbents": [list(s.dimensions) for s in self.incumbents],
            "seed": self.seed,
            "capacity": self.capacity,
            "population_size": self.population_size,
            "generations": self.generations,
            "mutation_rate": self.mutation_rate,
            "crossover_rate": self.crossover_rate,
            "max_dimension": self.max_dimension,
            "engine": self.engine,
            "snapshot": self.snapshot.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RelearnRequest":
        return cls(
            request_id=str(payload["request_id"]),
            position=int(payload["position"]),
            incumbents=tuple(Subspace(dims)
                             for dims in payload["incumbents"]),
            seed=int(payload["seed"]),
            capacity=int(payload["capacity"]),
            population_size=int(payload["population_size"]),
            generations=int(payload["generations"]),
            mutation_rate=float(payload["mutation_rate"]),
            crossover_rate=float(payload["crossover_rate"]),
            max_dimension=int(payload["max_dimension"]),
            engine=str(payload["engine"]),
            snapshot=ReservoirSnapshot.from_dict(payload["snapshot"]),
        )


@dataclass(frozen=True)
class LearnPublication:
    """The outcome of one evaluated learn request, ready to apply to an SST."""

    request_id: str
    kind: str
    ranked: Tuple[Tuple[Subspace, float], ...]
    memory: Dict[str, int]


def request_from_dict(payload: dict):
    """Rebuild a learn request of any kind from its ``to_dict`` payload."""
    kinds = {GROWTH_KIND: GrowthRequest, EVOLUTION_KIND: EvolutionRequest,
             RELEARN_KIND: RelearnRequest}
    kind = payload.get("kind")
    if kind not in kinds:
        raise SerializationError(f"unknown learn-request kind {kind!r}")
    return kinds[kind].from_dict(payload)


# --------------------------------------------------------------------- #
# Pure evaluation
# --------------------------------------------------------------------- #
def evaluate_learn_request(request, grid: Grid, *,
                           objectives=None) -> LearnPublication:
    """Run one learn request's search; pure in (request, grid).

    ``objectives`` optionally injects a pre-built sparsity-objectives
    instance (the synchronous path passes its memo-bound one); when omitted
    the evaluator builds a fresh instance from the snapshot, as the learning
    coordinator does.  Either way the published floats are identical —
    objectives only memoise.
    """
    if objectives is None:
        objectives = make_sparsity_objectives(
            request.snapshot.points, grid, engine=request.engine,
            target_points=request.target_points)
    if request.kind == GROWTH_KIND:
        ranked = rank_sparse_subspaces(
            objectives,
            top_k=request.top_k,
            population_size=request.population_size,
            generations=request.generations,
            mutation_rate=request.mutation_rate,
            crossover_rate=request.crossover_rate,
            max_dimension=request.max_dimension,
            seed=request.seed,
        )
    elif request.kind == EVOLUTION_KIND:
        ranked = _rescore_evolution(request, objectives)
    elif request.kind == RELEARN_KIND:
        ranked = rank_sparse_subspaces(
            objectives,
            top_k=request.capacity,
            population_size=request.population_size,
            generations=request.generations,
            mutation_rate=request.mutation_rate,
            crossover_rate=request.crossover_rate,
            max_dimension=request.max_dimension,
            seed=request.seed,
            seeds=list(request.incumbents),
        )
    else:
        raise ConfigurationError(f"unknown learn-request kind {request.kind!r}")
    return LearnPublication(
        request_id=request.request_id,
        kind=request.kind,
        ranked=tuple((subspace, float(score)) for subspace, score in ranked),
        memory={k: int(v) for k, v in objectives.memory_footprint().items()},
    )


def _rescore_evolution(request: EvolutionRequest, objectives
                       ) -> Tuple[Tuple[Subspace, float], ...]:
    """Re-rank incumbents + candidates against the snapshot, keep the best.

    Replays the pre-request ``SelfEvolution.evolve`` arithmetic exactly:
    one population-sized evaluation pass primes the memo, incumbents are
    rescored in order, candidates are deduplicated against incumbents (and
    themselves) in order, and the stable sort keeps ties in that order.
    """
    incumbents = list(request.incumbents)
    seen = set(incumbents)
    # Prime the memo cache with one population-sized evaluation pass — on
    # the vectorized engine the whole incumbent + candidate pool is scored
    # in a few fused array sweeps instead of one dict walk each.
    pool = list(incumbents)
    pool.extend(c for c in request.candidates if c not in seen)
    objectives.evaluate_population(pool)
    rescored = [
        RankedSubspace(subspace=subspace,
                       score=objectives.sparsity_score(subspace))
        for subspace in incumbents
    ]
    new_members = []
    for candidate in request.candidates:
        if candidate in seen:
            continue
        seen.add(candidate)
        new_members.append(
            RankedSubspace(subspace=candidate,
                           score=objectives.sparsity_score(candidate))
        )
    combined = sorted(rescored + new_members, key=lambda item: item.score)
    kept = combined[: request.capacity]
    return tuple((item.subspace, item.score) for item in kept)
