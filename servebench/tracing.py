"""Traced mode: spans around the public entry points of every layer.

``Recorder.install`` wraps each entry point below at its class or module
binding.  A wrapper records one span per call: name, start and end on the
``time.monotonic`` clock (the clock the service stamps enqueue and delivery
with), thread CPU, the enclosing span, and a point or batch id (the seq of
the point, or of a batch's first point).  Spans stay in memory and are
written out when the run ends.  Four wrappers also stamp each point as it
moves: ``MicroBatcher.put`` (enqueued), ``MicroBatcher.next_batch`` (taken
by its worker), ``SPOT.process_batch`` (engine start and end) and the
service's delivery callback (the span that delivered it).  With the
producer's due and call times and the service's own delivery latency they
split every point's latency into consecutive stages.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import repro.service.learning as service_learning
import repro.service.service as service_module
from repro import SPOT
from repro.core.fast_store import BatchPlan, VectorizedSynapseStore
from repro.learning.supervised import SupervisedLearner
from repro.learning.unsupervised import UnsupervisedLearner
from repro.obs.recorder import FlightRecorder
from repro.obs.slo import SLOTracker
from repro.service import (
    CheckpointManager,
    DetectionService,
    LearningCoordinator,
    LearnTicket,
    MicroBatcher,
    ShardSupervisor,
)

from .measure import percentile

#: Per-point stages, in order; consecutive stamps bound each one.
STAGES = ("lateness", "submit", "queue_wait", "dispatch", "engine",
          "delivery")

Span = Tuple[int, str, float, float, float, int, int, str, str]
#: Rounding slack of stamp comparisons: enqueue + latency recomputes a
#: ``time.monotonic`` reading (about 1e5 s) to within a few 1e-11 s.
STAMP_SLACK = 1e-9


class Recorder:
    """In-memory span log of one traced run."""

    def __init__(self) -> None:
        self.on = False
        self.phase = "setup"
        self.spans: List[Span] = []
        self.enqueued: Dict[int, float] = {}
        self.taken: Dict[int, float] = {}
        self.engine_start: Dict[int, float] = {}
        self.engine_end: Dict[int, float] = {}
        #: seq -> (start, end) of the delivery call that delivered it.
        self.delivered: Dict[int, Tuple[float, float]] = {}
        self.batchers: List[MicroBatcher] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    def _wrap(self, owner, attr: str, name: str,
              after: Optional[Callable] = None) -> None:
        original = owner.__dict__[attr]
        rec = self
        local = self._local
        monotonic = time.monotonic
        thread_time = time.thread_time

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not rec.on:
                return original(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(rec._ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            c0 = thread_time()
            t0 = monotonic()
            try:
                result = original(*args, **kwargs)
            finally:
                t1 = monotonic()
                c1 = thread_time()
                stack.pop()
            ident = after(args, result, t0, t1) if after is not None else -1
            rec.spans.append((sid, name, t0, t1, c1 - c0, parent, ident,
                              rec.phase, threading.current_thread().name))
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self) -> "Recorder":
        local = self._local
        rec = self

        def on_put(args, result, t0, t1):
            item = args[1]
            rec.enqueued[item.seq] = item.enqueued_at
            return item.seq

        def on_next_batch(args, batch, t0, t1):
            local.batch = batch
            local.offset = 0
            if not batch:
                return -1
            for item in batch:
                rec.taken[item.seq] = t1
            return batch[0].seq

        def on_process_batch(args, results, t0, t1):
            batch = getattr(local, "batch", None)
            if not batch:
                return -1
            scored = batch[local.offset:local.offset + len(results)]
            local.offset += len(results)
            for item in scored:
                rec.engine_start[item.seq] = t0
                rec.engine_end[item.seq] = t1
            return scored[0].seq if scored else -1

        def on_batcher_init(args, result, t0, t1):
            rec.batchers.append(args[0])
            return -1

        def submitted_seq(args, result, t0, t1):
            return int(result)

        def on_deliver(args, result, t0, t1):
            items = args[2]
            for item in items:
                rec.delivered[item.seq] = (t0, t1)
            return items[0].seq if items else -1

        wrap = self._wrap
        wrap(DetectionService, "start", "service.start")
        wrap(DetectionService, "submit", "service.submit", submitted_seq)
        wrap(DetectionService, "submit_tagged", "service.submit_tagged")
        wrap(DetectionService, "_on_results", "service.deliver", on_deliver)
        wrap(DetectionService, "checkpoint", "checkpoint")
        wrap(DetectionService, "drain", "service.drain")
        wrap(service_module, "clone_detector", "persist.clone")
        wrap(MicroBatcher, "__init__", "batcher.init", on_batcher_init)
        wrap(MicroBatcher, "put", "batcher.put", on_put)
        wrap(MicroBatcher, "next_batch", "batcher.next_batch", on_next_batch)
        wrap(SPOT, "learn", "learning.learn")
        wrap(SPOT, "process_batch", "detector.process_batch",
             on_process_batch)
        wrap(SPOT, "export_state", "detector.export_state")
        wrap(UnsupervisedLearner, "learn", "learning.unsupervised")
        wrap(SupervisedLearner, "learn", "learning.supervised")
        wrap(VectorizedSynapseStore, "plan_batch", "fast_store.plan")
        wrap(VectorizedSynapseStore, "prune", "fast_store.prune")
        wrap(BatchPlan, "decide", "fast_store.decide")
        wrap(BatchPlan, "commit", "fast_store.commit")
        wrap(LearningCoordinator, "submit", "service.learning.submit")
        wrap(LearnTicket, "wait", "service.learning.wait")
        wrap(service_learning, "evaluate_learn_request",
             "service.learning.evaluate")
        wrap(CheckpointManager, "save", "checkpoint.save")
        wrap(ShardSupervisor, "record_committed", "supervisor.journal")
        wrap(ShardSupervisor, "install_snapshots", "supervisor.install")
        wrap(FlightRecorder, "record_decision", "obs.recorder")
        wrap(SLOTracker, "observe_delivery", "obs.slo")
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------ #
    def named(self, name: str, phase: str = "serve") -> List[Span]:
        return [s for s in self.spans if s[1] == name and s[7] == phase]

    def write(self, path: Path) -> None:
        """Write every span as one JSON object per line, gzip-compressed
        (a 15 s flood records about 330,000 spans)."""
        keys = ("id", "name", "start", "end", "cpu", "parent", "ident",
                "phase", "thread")
        with gzip.open(path, "wt", encoding="utf-8",
                       compresslevel=1) as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


def point_stages(rec: Recorder, due: List[float], called: List[float],
                 latency: Dict[int, float]
                 ) -> Tuple[Dict[str, List[float]], List[float], List[str]]:
    """Per point: stage durations, traced latency, and stamp problems.

    ``latency[seq]`` is the service's enqueue-to-delivery latency.  The
    traced latency runs from the due time to the delivery stamp
    (enqueue + latency); the stages are the gaps between consecutive
    stamps, so they tile it.  A point's stamps must come in stage order,
    and its delivery stamp, which the service computes from its own
    enqueue time and latency, must fall inside the traced delivery call
    that delivered it.
    """
    stages: Dict[str, List[float]] = {name: [] for name in STAGES}
    totals: List[float] = []
    problems: List[str] = []
    for seq in range(len(due)):
        try:
            enq = rec.enqueued[seq]
            stamps = (due[seq], called[seq], enq, rec.taken[seq],
                      rec.engine_start[seq], rec.engine_end[seq],
                      enq + latency[seq])
            deliver_start, deliver_end = rec.delivered[seq]
        except KeyError:
            problems.append(f"point {seq} misses a stage stamp")
            break
        parts = [b - a for a, b in zip(stamps, stamps[1:])]
        if min(parts) < -STAMP_SLACK:
            problems.append(f"point {seq} has a negative stage "
                            f"{STAGES[parts.index(min(parts))]}")
            break
        if not (deliver_start - STAMP_SLACK <= stamps[-1]
                <= deliver_end + STAMP_SLACK):
            problems.append(f"point {seq}: delivery stamp {stamps[-1]:.6f} "
                            f"outside its delivery call [{deliver_start:.6f},"
                            f" {deliver_end:.6f}]")
            break
        total = stamps[-1] - stamps[0]
        for name, value in zip(STAGES, parts):
            stages[name].append(value)
        totals.append(total)
    return stages, totals, problems


def _p(spans: List[Span], q: float, scale: float = 1e3) -> float:
    return percentile([s[3] - s[2] for s in spans], q) * scale


def _wall(spans: List[Span]) -> float:
    return sum(s[3] - s[2] for s in spans)


def _cpu(spans: List[Span]) -> float:
    return sum(s[4] for s in spans)


#: Every per-layer metric of the traced run, with its unit.
LAYER_UNITS = {
    "harness.points": "count", "harness.late_ms_p99": "ms",
    "service.submit_us_p50": "us", "service.submit_cpu_us_per_pt": "us",
    "service.deliver_ms_p50": "ms", "service.deliver_ms_p99": "ms",
    "service.start_ms": "ms", "service.retained_results": "count",
    "router.busiest_shard_share": "ratio",
    "batcher.queue_wait_ms_p50": "ms", "batcher.queue_wait_ms_p99": "ms",
    "batcher.batch_pts_mean": "count", "batcher.batches": "count",
    "batcher.producer_blocks": "count", "batcher.peak_pending": "count",
    "worker.dispatch_ms_p50": "ms", "worker.busy_share": "ratio",
    "worker.engine_wall_over_cpu": "ratio",
    "detector.calls": "count", "detector.call_ms_p50": "ms",
    "detector.call_ms_p99": "ms", "detector.cpu_us_per_call": "us",
    "detector.cpu_us_per_pt": "us", "detector.result_cpu_us_per_pt": "us",
    "detector.subspaces": "count", "detector.state_mb": "MB",
    "detector.offline_pts_per_s": "1/s",
    "fast_store.plan_cpu_us_per_call": "us",
    "fast_store.decide_cpu_us_per_call": "us",
    "fast_store.commit_cpu_us_per_call": "us",
    "fast_store.plan_cpu_us_per_pt": "us",
    "fast_store.decide_cpu_us_per_pt": "us",
    "fast_store.commit_cpu_us_per_pt": "us",
    "fast_store.prunes": "count", "fast_store.prune_ms_p50": "ms",
    "fast_store.populated_cells": "count",
    "learning.learn_s": "s", "learning.unsupervised_s": "s",
    "learning.supervised_s": "s", "persist.clone_ms": "ms",
    "service.learning.requests": "count",
    "service.learning.evaluate_ms_p50": "ms",
    "service.learning.evaluate_cpu_s": "s",
    "service.learning.wait_ms_p99": "ms",
    "service.learning.memo_hits": "count",
    "service.learning.coalesced_requests": "count",
    "service.learning.context_reuses": "count",
    "service.learning.searches": "count",
    "service.learning.evolutions": "count",
    "checkpoint.count": "count", "checkpoint.ms_p50": "ms",
    "checkpoint.drain_ms_p50": "ms", "checkpoint.export_ms_p50": "ms",
    "checkpoint.save_ms_p50": "ms", "checkpoint.bytes": "bytes",
    "supervisor.journal_us_per_batch": "us",
    "supervisor.install_ms_p50": "ms",
    "obs.recorder_us_per_pt": "us", "obs.slo_us_per_pt": "us",
}


def layer_metrics(rec: Recorder, *, points: int, shards: int,
                  serve_wall: float, stages: Dict[str, List[float]],
                  lateness: List[float], results, service_stats: dict,
                  detectors, retained: int, offline_pts_per_s: float,
                  checkpoint_bytes: int) -> Dict[str, float]:
    """Every per-layer metric of the run (0 where a layer is idle)."""
    n = max(1, points)
    batch = rec.named("detector.process_batch")
    children = defaultdict(float)
    batch_ids = {s[0] for s in batch}
    store_spans = {name: rec.named(f"fast_store.{name}")
                   for name in ("plan", "decide", "commit", "prune")}
    for spans in store_spans.values():
        for s in spans:
            if s[5] in batch_ids:
                children[s[5]] += s[4]
    deliver = rec.named("service.deliver")
    submits = rec.named("service.submit")
    checkpoints = rec.named("checkpoint")
    checkpoint_ids = {s[0] for s in checkpoints}
    export_by_checkpoint = defaultdict(float)
    for s in rec.named("detector.export_state"):
        if s[5] in checkpoint_ids:
            export_by_checkpoint[s[5]] += s[3] - s[2]
    drains = [s for s in rec.named("service.drain") if s[5] in checkpoint_ids]
    evaluate = rec.named("service.learning.evaluate")
    journal = rec.named("supervisor.journal")
    learning = service_stats.get("learning") or {}
    kinds = learning.get("kinds") or {}
    # The measured fleet's queues are the last ones created.
    batchers = [b.stats() for b in rec.batchers[-shards:]]
    per_shard = defaultdict(int)
    for r in results:
        per_shard[r.shard] += 1
    footprints = [d.memory_footprint() for d in detectors]
    state_bytes = 0
    for d in detectors:
        state_bytes += _array_bytes(d.export_state(arrays="view"))
    batch_cpu = _cpu(batch)

    def setup_median(name: str) -> float:
        return percentile([s[3] - s[2] for s in rec.named(name, "setup")], 50)

    m = {
        "harness.points": float(points),
        "harness.late_ms_p99": percentile(lateness, 99) * 1e3,
        "service.submit_us_p50": _p(submits, 50, 1e6),
        "service.submit_cpu_us_per_pt": _cpu(submits) / n * 1e6,
        "service.deliver_ms_p50": _p(deliver, 50),
        "service.deliver_ms_p99": _p(deliver, 99),
        "service.start_ms": setup_median("service.start") * 1e3,
        "service.retained_results": float(retained),
        "router.busiest_shard_share": max(per_shard.values()) / n
        if per_shard else 0.0,
        "batcher.queue_wait_ms_p50":
            percentile(stages["queue_wait"], 50) * 1e3,
        "batcher.queue_wait_ms_p99":
            percentile(stages["queue_wait"], 99) * 1e3,
        "batcher.batch_pts_mean":
            sum(b["points_emitted"] for b in batchers)
            / max(1.0, sum(b["batches_emitted"] for b in batchers)),
        "batcher.batches": sum(b["batches_emitted"] for b in batchers),
        "batcher.producer_blocks": sum(b["producer_blocks"]
                                       for b in batchers),
        "batcher.peak_pending": max([b["peak_pending"] for b in batchers]
                                    or [0.0]),
        "worker.dispatch_ms_p50": percentile(stages["dispatch"], 50) * 1e3,
        "worker.busy_share": (_wall(batch) + _wall(deliver))
        / max(1e-9, shards * serve_wall),
        "worker.engine_wall_over_cpu": _wall(batch) / max(1e-9, batch_cpu),
        "detector.calls": float(len(batch)),
        "detector.call_ms_p50": _p(batch, 50),
        "detector.call_ms_p99": _p(batch, 99),
        "detector.cpu_us_per_call": batch_cpu / max(1, len(batch)) * 1e6,
        "detector.cpu_us_per_pt": batch_cpu / n * 1e6,
        "detector.result_cpu_us_per_pt":
            (batch_cpu - sum(children.values())) / n * 1e6,
        "detector.subspaces": statistics.fmean(
            f["subspaces"] for f in footprints),
        "detector.state_mb": state_bytes / 2 ** 20,
        "detector.offline_pts_per_s": offline_pts_per_s,
        "fast_store.prunes": float(len(store_spans["prune"])),
        "fast_store.prune_ms_p50": _p(store_spans["prune"], 50),
        "fast_store.populated_cells": float(sum(
            f["base_cells"] + f["projected_cells"] for f in footprints)),
        "learning.learn_s": setup_median("learning.learn"),
        "learning.unsupervised_s": setup_median("learning.unsupervised"),
        "learning.supervised_s": setup_median("learning.supervised"),
        "persist.clone_ms": setup_median("persist.clone") * 1e3,
        "service.learning.requests": float(learning.get("requests", 0)),
        "service.learning.evaluate_ms_p50": _p(evaluate, 50),
        "service.learning.evaluate_cpu_s": _cpu(evaluate),
        "service.learning.wait_ms_p99":
            _p(rec.named("service.learning.wait"), 99),
        "service.learning.memo_hits": float(learning.get("memo_hits", 0)),
        "service.learning.coalesced_requests":
            float(learning.get("coalesced_requests", 0)),
        "service.learning.context_reuses":
            float(learning.get("context_reuses", 0)),
        "service.learning.searches": float(kinds.get("os_growth", 0)),
        "service.learning.evolutions": float(kinds.get("self_evolution", 0)),
        "checkpoint.count": float(len(checkpoints)),
        "checkpoint.ms_p50": _p(checkpoints, 50),
        "checkpoint.drain_ms_p50": _p(drains, 50),
        "checkpoint.export_ms_p50":
            percentile(list(export_by_checkpoint.values()), 50) * 1e3,
        "checkpoint.save_ms_p50": _p(rec.named("checkpoint.save"), 50),
        "checkpoint.bytes": float(checkpoint_bytes),
        "supervisor.journal_us_per_batch":
            _wall(journal) / max(1, len(journal)) * 1e6,
        "supervisor.install_ms_p50":
            percentile([s[3] - s[2] for s in rec.spans
                        if s[1] == "supervisor.install"], 50) * 1e3,
        "obs.recorder_us_per_pt": _wall(rec.named("obs.recorder")) / n * 1e6,
        "obs.slo_us_per_pt": _wall(rec.named("obs.slo")) / n * 1e6,
    }
    for name in ("plan", "decide", "commit"):
        spans = store_spans[name]
        m[f"fast_store.{name}_cpu_us_per_call"] = \
            _cpu(spans) / max(1, len(spans)) * 1e6
        m[f"fast_store.{name}_cpu_us_per_pt"] = _cpu(spans) / n * 1e6
    return {key: float(value) for key, value in m.items()}


def _array_bytes(node) -> int:
    """Bytes of the numpy arrays inside an exported detector state."""
    if hasattr(node, "nbytes") and hasattr(node, "dtype"):
        return int(node.nbytes)
    if isinstance(node, dict):
        return sum(_array_bytes(v) for v in node.values())
    if isinstance(node, (list, tuple)):
        return sum(_array_bytes(v) for v in node)
    return 0
