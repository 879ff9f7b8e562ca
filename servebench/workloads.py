"""The benchmark's workloads: what each one serves and how it drives it.

Each workload learns a SPOT template from its training batch (with
supervised OS learning from labelled examples), replicates it over one
thread shard per core with ``DetectionService.from_prototype``, and then
drives the service in-process from one producer thread through the public
API.  Only the options a workload needs are set; everything else keeps the
program's defaults, so a later change to a default is measured.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro import SPOT, SPOTConfig
from repro.obs.slo import SLOObjectives
from repro.service import DetectionService, ServiceConfig
from repro.streams.base import StreamPoint
from repro.streams.tagged import TaggedStreamPoint

from .inputs import Inputs, Shape, make_inputs, poisson_schedule
from .measure import process_cpu_seconds

#: Detector options every workload relies on: the vectorized engine, a
#: sparse template (1-d FS, learned subspaces of at most 2 attributes, like
#: the planted outliers), the 4-cell grid the planted levels are laid out
#: for, and the decision thresholds the quality floors are derived from.
DETECTOR = dict(engine="vectorized", max_dimension=1, moga_max_dimension=2,
                cs_size=10, os_size=10, cells_per_dimension=4, omega=1000,
                rd_threshold=0.02, min_expected_mass=4.0)

#: Set-ups before the measured serve and after its checks; the run
#: reports the median time of all of them.
SETUPS_BEFORE = 3
SETUPS_AFTER = 2
FLOOD_CHUNK = 512
#: The flood serves ``--seconds`` times this many points, in whole chunks:
#: a fixed amount of work, about ``--seconds`` long on a 2-core host, so
#: its memory and CPU figures describe the same work in every run.  The
#: rate is a constant, never measured during the run.
FLOOD_POINTS_PER_SECOND = 11_000
#: Points of the flood workload's pre-built input; a run that serves more
#: cycles through it again.
FLOOD_POOL = 60_000
#: Points of each shard's sub-stream the engine oracle replays.
ORACLE_PREFIX = 1500


def shard_count() -> int:
    """One thread shard per core available to this process."""
    return len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    shape: Shape
    detector: Dict[str, object]
    #: Open-loop Poisson rate in points per second; ``None`` floods.
    rate: Optional[float]
    service: Callable[[int, str], ServiceConfig]
    #: Points of each shard's sub-stream the parity replay covers
    #: (``None``: all of them).
    parity_prefix: Optional[int] = None

    def spot_config(self) -> SPOTConfig:
        return SPOTConfig(**dict(DETECTOR, **self.detector))


def _bare(n_shards: int, checkpoint_dir: str) -> ServiceConfig:
    return ServiceConfig(n_shards=n_shards)


def _production(n_shards: int, checkpoint_dir: str) -> ServiceConfig:
    return ServiceConfig(n_shards=n_shards, learning_mode="async",
                         supervise=True, checkpoint_every=250,
                         checkpoint_dir=checkpoint_dir,
                         evidence=True, flight_recorder=True,
                         slo=SLOObjectives())


TEN_D = Shape(dims=10, tenants=8, planted=3, outlier_rate=0.003,
              training=600, examples_per_subspace=8)
FORTY_D = Shape(dims=40, tenants=8, planted=4, outlier_rate=0.003,
                training=400, examples_per_subspace=4)

WORKLOADS = {
    "open-10d": Workload(
        name="open-10d",
        why="open-loop Poisson arrivals at 10-d on a bare fleet: small "
            "batches, so per-call engine cost, coalescing and GIL "
            "hand-offs set latency",
        shape=TEN_D, detector={}, rate=2500.0, service=_bare),
    "flood-40d": Workload(
        name="flood-40d",
        why="saturating 40-d input through submit_tagged: full batches, so "
            "per-point engine work, ingest and delivery set throughput",
        shape=FORTY_D, detector={}, rate=None, service=_bare),
    "ops-10d": Workload(
        name="ops-10d",
        why="open-loop 10-d Poisson arrivals at 300 pts/s with async online "
            "learning, supervision, periodic checkpoints, evidence, flight "
            "recorder and SLOs on; small batches",
        shape=TEN_D,
        detector=dict(os_growth_enabled=True, self_evolution_period=500),
        rate=300.0, service=_production, parity_prefix=800),
}


def build_inputs(workload: Workload, seed: int, seconds: float):
    """The seeded input and (open loop) the arrival schedule."""
    if workload.rate is None:
        return make_inputs(seed, workload.shape, FLOOD_POOL), None
    due = poisson_schedule(seed, workload.rate, seconds)
    return make_inputs(seed, workload.shape, len(due)), due


def as_rows(X: np.ndarray) -> List[tuple]:
    return [tuple(row) for row in X.tolist()]


@dataclass
class Setup:
    prototype: SPOT
    service: DetectionService
    seconds: float


def set_up(workload: Workload, training: List[tuple],
           examples: List[tuple], checkpoint_dir: str) -> Setup:
    """Learn the template and start a fleet: the timed set-up."""
    config = workload.spot_config()
    started = time.perf_counter()
    prototype = SPOT(config).learn(training, outlier_examples=examples)
    service = DetectionService.from_prototype(
        prototype, workload.service(shard_count(), checkpoint_dir))
    service.start()
    return Setup(prototype, service, time.perf_counter() - started)


@dataclass
class Served:
    """What the producer observed while serving."""

    #: Per submitted point (by seq): its due time and the time submit was
    #: called, on the ``time.monotonic`` clock.
    due: List[float]
    called: List[float]
    #: Stream-pool index of every submitted point (by seq).
    pool_index: List[int]
    first_submit: float
    last_delivery: float
    cpu_seconds: float


@dataclass
class Stream:
    """The producer's pre-built view of the input (built before timing)."""

    streams: List[str]
    rows: List[tuple]
    #: Flood only: whole ``submit_tagged`` chunks, cycled through in order.
    chunks: List[List[TaggedStreamPoint]] = field(default_factory=list)


def prepare_stream(workload: Workload, inputs: Inputs) -> Stream:
    streams = [inputs.tenants[t] for t in inputs.tenant_idx.tolist()]
    rows = as_rows(inputs.points)
    stream = Stream(streams, rows)
    if workload.rate is None:
        tagged = [TaggedStreamPoint(name, StreamPoint(values=row))
                  for name, row in zip(streams, rows)]
        stream.chunks = [tagged[k:k + FLOOD_CHUNK] for k in
                         range(0, len(tagged) - FLOOD_CHUNK + 1, FLOOD_CHUNK)]
    return stream


def drive_open(service: DetectionService, stream: Stream,
               due: np.ndarray) -> Served:
    """Submit each point at its due time; return after the last delivery."""
    streams, rows = stream.streams, stream.rows
    n = len(rows)
    called = [0.0] * n
    submit = service.submit
    monotonic = time.monotonic
    sleep = time.sleep
    cpu0 = process_cpu_seconds()
    start = monotonic() + 0.01
    due_abs = [start + float(d) for d in due]
    for i in range(n):
        target = due_abs[i]
        now = monotonic()
        if now < target:
            sleep(target - now)
            now = monotonic()
        called[i] = now
        submit(streams[i], rows[i])
    service.drain()
    last = monotonic()
    return Served(due=due_abs, called=called, pool_index=list(range(n)),
                  first_submit=called[0] if n else start, last_delivery=last,
                  cpu_seconds=process_cpu_seconds() - cpu0)


def flood_chunks(seconds: float) -> int:
    """Chunks the flood submits in a run of ``seconds``."""
    return max(1, round(seconds * FLOOD_POINTS_PER_SECOND / FLOOD_CHUNK))


def drive_flood(service: DetectionService, stream: Stream,
                n_chunks: int) -> Served:
    """Push ``n_chunks`` whole chunks through ``submit_tagged``.

    A point's due time is the call that submitted its chunk.
    """
    due: List[float] = []
    monotonic = time.monotonic
    submit_tagged = service.submit_tagged
    chunks = stream.chunks
    cpu0 = process_cpu_seconds()
    first = monotonic()
    for k in range(n_chunks):
        chunk = chunks[k % len(chunks)]
        due.extend([monotonic()] * len(chunk))
        submit_tagged(chunk)
    service.drain()
    last = monotonic()
    cycle = len(stream.chunks) * FLOOD_CHUNK
    return Served(due=due, called=list(due),
                  pool_index=[i % cycle for i in range(len(due))],
                  first_submit=first, last_delivery=last,
                  cpu_seconds=process_cpu_seconds() - cpu0)
