"""One benchmark run: set-ups, one measured serve, checks, report.

A run sets up ``SETUPS_BEFORE`` times (learn the template, start a fleet);
the last fleet then serves the run's input in one continuous measured
window, is stopped, and its output is checked.  ``SETUPS_AFTER`` more
set-ups follow the checks, and the run reports the median time of all of
them, so the figure samples the host's speed across the whole run.
"""

from __future__ import annotations

import gc
import json
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.core.exceptions import SerializationError
from repro.service import CheckpointManager

from . import checks
from .measure import peak_rss_mb, percentile, samples_beyond
from .tracing import (
    LAYER_UNITS,
    STAGES,
    Recorder,
    layer_metrics,
    point_stages,
)
from .workloads import (
    ORACLE_PREFIX,
    SETUPS_AFTER,
    SETUPS_BEFORE,
    Workload,
    as_rows,
    build_inputs,
    drive_flood,
    drive_open,
    flood_chunks,
    prepare_stream,
    set_up,
    shard_count,
)

#: End-to-end metrics of an untraced run, with their units.
UNITS = {"setup_s": "s", "cpu_us_per_pt": "us", "peak_rss_mb": "MB"}
#: End-to-end figures every run prints but that carry no bound, because
#: they follow the host's speed too closely (see the README).
UNBOUNDED_UNITS = {"served_pts_per_s": "1/s", "latency_p50_ms": "ms",
                   "latency_p99_ms": "ms"}
#: A traced run reports its own end-to-end figures beside the per-layer
#: ones, the unbounded ones included.
TRACED_UNITS = dict(UNITS, **UNBOUNDED_UNITS)


@dataclass
class Measured:
    """What the measured serve observed and the checks found."""

    attempted: int
    failed: int
    e2e: Dict[str, float]
    problems: Dict[str, List[str]]
    lines: List[str]
    peak_rss: float
    #: The ``UNBOUNDED_UNITS`` figures, by metric name.
    unbounded: Dict[str, float]
    layers: Optional[Dict[str, float]] = None
    stages: Dict[str, List[float]] = field(default_factory=dict)


def _checkpoint_bytes(directory: Path) -> int:
    """Bytes of the shard files the latest checkpoint manifest names."""
    try:
        manifest = CheckpointManager(directory).manifest()
    except SerializationError:  # this workload takes no checkpoints
        return 0
    return sum((directory / entry["file"]).stat().st_size
               for entry in manifest["shards"])


def run_workload(workload: Workload, *, seed: int, seconds: float,
                 trace: bool, scratch: Path, out: Path) -> Dict[str, object]:
    inputs, due = build_inputs(workload, seed, seconds)
    stream = prepare_stream(workload, inputs)
    training = as_rows(inputs.training)
    examples = as_rows(inputs.examples)
    rec = Recorder().install() if trace else None
    spans_path = out / f"{workload.name}-seed{seed}-spans.jsonl.gz"
    try:
        base_rss = peak_rss_mb()
        setup_times = []
        setup = None
        for k in range(SETUPS_BEFORE):
            if setup is not None:
                # Only the serving fleet stays alive through the serve.
                setup.service.stop()
            if rec is not None:
                rec.on, rec.phase = True, "setup"
            setup = set_up(workload, training, examples,
                           str(scratch / f"checkpoints-{k}"))
            setup_times.append(setup.seconds)
        measured = _serve(workload, seconds, rec, inputs, due, stream, setup,
                          training, scratch)
        del setup
        for k in range(SETUPS_AFTER):  # untraced
            extra = set_up(workload, training, examples,
                           str(scratch / f"checkpoints-after-{k}"))
            extra.service.stop()
            setup_times.append(extra.seconds)
            del extra
        measured.e2e["setup_s"] = statistics.median(setup_times)
        measured.lines.insert(0, "setup_s of each set-up: "
                              + ", ".join(f"{t:.3f}" for t in setup_times))
        measured.e2e["peak_rss_mb"] = measured.peak_rss - base_rss
        if rec is not None:
            rec.write(spans_path)
    finally:
        if rec is not None:
            rec.uninstall()
    return _report(workload, seed, seconds, measured, rec is not None,
                   spans_path, out)


def _serve(workload: Workload, seconds: float, rec: Optional[Recorder],
           inputs, due, stream, setup, training, scratch: Path) -> Measured:
    service, prototype = setup.service, setup.prototype
    checkpoint_dir = scratch / f"checkpoints-{SETUPS_BEFORE - 1}"
    # Serve from a collected heap, so the collector's schedule during the
    # measured window does not depend on set-up garbage.
    gc.collect()
    if rec is not None:
        rec.phase = "serve"
    if workload.rate is None:
        served = drive_flood(service, stream, flood_chunks(seconds))
    else:
        served = drive_open(service, stream, due)
    if rec is not None:
        rec.on = False
    peak_rss = peak_rss_mb()
    results = service.results()
    stats = service.stats()
    detectors = service.shard_detectors()
    taken = service.checkpoints_taken
    max_batch = service.config.max_batch
    checkpoint_every = service.config.checkpoint_every
    service.stop()

    n = len(served.due)
    rows = [stream.rows[i] for i in served.pool_index]
    streams = [stream.streams[i] for i in served.pool_index]
    labels = [bool(inputs.labels[i]) for i in served.pool_index]
    lateness = [served.called[s] - served.due[s] for s in range(n)]
    latency = [lateness[r.seq] + r.latency_seconds for r in results
               if 0 <= r.seq < n]
    complete, failed = checks.check_complete(results, n, streams)
    ok = n - failed
    e2e = {"cpu_us_per_pt": served.cpu_seconds / max(1, ok) * 1e6}

    problems: Dict[str, List[str]] = {}
    problems["complete"] = complete
    parity, replayed, replay_s = checks.check_parity(
        prototype, results, rows, max_batch, workload.parity_prefix)
    problems["parity"] = parity
    problems["oracle"], compared, flagged = checks.check_oracle(
        checks.reference_detector(prototype, training, scratch), results,
        rows, ORACLE_PREFIX)
    quality, recall, share = checks.check_quality(
        results, labels, workload.shape.outlier_rate,
        prototype.config.rd_threshold)
    problems["quality"] = quality
    if checkpoint_every:
        problems["learning"] = checks.check_learning(
            stats.get("learning"), taken,
            checks.expected_checkpoints(n, checkpoint_every))
        problems["restore"] = checks.check_restore(
            checkpoint_dir, results, rows, streams)
    ceiling = checks.flagged_ceiling(workload.shape.outlier_rate,
                                     prototype.config.rd_threshold)
    unbounded = {
        "served_pts_per_s": ok / max(1e-9, served.last_delivery
                                     - served.first_submit),
        "latency_p50_ms": percentile(latency, 50) * 1e3,
        "latency_p99_ms": percentile(latency, 99) * 1e3,
    }
    lines = [
        f"points {n}, ok {ok}; latency samples {len(latency)} "
        f"({samples_beyond(len(latency), 99)} beyond p99); "
        f"latency p50 {unbounded['latency_p50_ms']:.2f} ms, p99 "
        f"{unbounded['latency_p99_ms']:.2f} ms; served "
        f"{unbounded['served_pts_per_s']:.1f} pts/s (reported, not "
        f"bounded: see README)",
        f"planted outliers {sum(labels)}, recall {recall:.3f} "
        f"(floor {checks.RECALL_FLOOR}); flagged share {share:.4f} "
        f"(ceiling {ceiling:.4f})",
        f"parity replay {replayed} points at "
        f"{replayed / max(1e-9, replay_s):.0f} pts/s",
        f"engine oracle compared {compared} served points, {flagged} of "
        f"them flagged",
    ]
    measured = Measured(n, failed, e2e, problems, lines, peak_rss,
                        unbounded)
    if rec is not None:
        latency_by_seq = {r.seq: r.latency_seconds for r in results}
        stages, _, stage_problems = point_stages(
            rec, served.due, served.called, latency_by_seq)
        if workload.rate is not None:
            problems["stages"] = stage_problems
        measured.stages = stages
        measured.layers = layer_metrics(
            rec, points=ok, shards=shard_count(),
            serve_wall=served.last_delivery - served.first_submit,
            stages=stages, lateness=lateness if workload.rate else [],
            results=results, service_stats=stats, detectors=detectors,
            retained=len(results),
            offline_pts_per_s=replayed / max(1e-9, replay_s),
            checkpoint_bytes=_checkpoint_bytes(checkpoint_dir))
    return measured


def _report(workload: Workload, seed: int, seconds: float,
            measured: Measured, traced: bool, spans_path: Path,
            out: Path) -> Dict[str, object]:
    e2e = {name: measured.e2e[name] for name in UNITS}
    problems = measured.problems
    lines = [f"workload {workload.name}  seed {seed}  seconds {seconds:g}  "
             f"trace {int(traced)}  shards {shard_count()}"]
    lines += measured.lines
    for name, found in problems.items():
        lines.append(f"check {name}: "
                     + ("ok" if not found else "FAILED: " + "; ".join(found)))
    prefix = "traced." if traced else ""
    for name, value in e2e.items():
        lines.append(f"{prefix + name:<26} {value:14.4f} {UNITS[name]}")
    record: Dict[str, object] = {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "e2e": e2e, "unbounded": measured.unbounded,
        "problems": problems}
    if traced:
        for name in STAGES:
            values = measured.stages[name]
            lines.append(f"stage {name:<10} p50 "
                         f"{percentile(values, 50) * 1e3:9.3f} ms  p99 "
                         f"{percentile(values, 99) * 1e3:9.3f} ms")
        layers = dict(measured.layers)
        layers.update({f"traced.{name}": value
                       for name, value in e2e.items()})
        layers.update({f"traced.{name}": value
                       for name, value in measured.unbounded.items()})
        for name, value in measured.layers.items():
            lines.append(f"{name:<38} {value:14.4f} {LAYER_UNITS[name]}")
        lines.append(f"spans written to {spans_path}")
        metrics = {name: {"value": value, "unit": _unit_of(name)}
                   for name, value in layers.items()}
        record["layers"] = layers
    else:
        metrics = {name: {"value": value, "unit": UNITS[name]}
                   for name, value in e2e.items()}
    correct = not any(problems.values())
    record["correct"] = correct
    tag = f"{workload.name}-seed{seed}-trace{int(traced)}"
    (out / f"{tag}.json").write_text(json.dumps(record, indent=1))
    return {"lines": lines,
            "result": {"correct": correct, "attempted": measured.attempted,
                       "failed": measured.failed, "metrics": metrics}}


def _unit_of(name: str) -> str:
    """The unit of a per-layer metric (traced end-to-end ones included)."""
    if name.startswith("traced."):
        return TRACED_UNITS[name[len("traced."):]]
    return LAYER_UNITS[name]
