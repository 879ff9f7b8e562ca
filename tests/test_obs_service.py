"""Service-level observability contracts.

Three acceptance properties of the telemetry layer, exercised through the
real serving stack:

* **One source of truth** — ``DetectionService.stats()`` (and its
  robustness block) is built *from* the metrics registry, so a
  ``spot-metrics/v1`` snapshot and the stats dict agree counter-for-counter,
  crash recovery included.
* **Deterministic traces** — serving a recorded workload tail after a
  checkpoint restore emits exactly the span tree the original serve emitted
  over that tail: same IDs, same parents, same identity attributes.
* **Stable schema** — the stats dict is JSON-serialisable with pinned keys,
  and a restored service reports the same shape and configuration-derived
  fields as the service that wrote the checkpoint.
"""

import json

import pytest

from repro import SPOT
from repro.eval.experiments import t1_bench_config
from repro.eval.workloads import multi_tenant_workload
from repro.obs import Tracer
from repro.obs.slo import SLOObjectives
from repro.obs.trace import NULL_TRACER
from repro.service import (
    DetectionService,
    FaultPlan,
    FleetRebalancer,
    ServiceConfig,
)

STATS_KEYS = {
    "n_shards", "points", "wall_seconds", "busy_seconds",
    "aggregate_points_per_second", "mean_batch_size", "producer_blocks",
    "checkpoints_taken", "learning_mode", "learning", "robustness", "shards",
    "slo",
}
ROBUSTNESS_KEYS = {
    "supervised", "restarts", "recovery_ms", "shed_points",
    "degraded_points", "quarantined_points",
    "checkpoint_write_failures", "faults_fired",
}
SHARD_ROW_KEYS = {
    "shard", "points", "batches", "mean_batch_size", "busy_seconds",
    "points_per_second", "latency_p50_ms", "latency_p95_ms",
    "latency_p99_ms", "path_p50_ms", "path_p95_ms", "path_p99_ms",
    "errors", "shed_points", "degraded_points", "quarantined_points",
    "restarts", "recovery_ms",
}

#: Stats fields independent of timing and of how much was served in this
#: process's lifetime — a restored service must agree on all of them.
NON_TIMING_KEYS = ("n_shards", "learning_mode", "checkpoints_taken")


@pytest.fixture(scope="module")
def tenant_workload():
    return multi_tenant_workload(n_tenants=3, dimensions=6,
                                 n_training_per_tenant=50,
                                 n_detection_per_tenant=120, seed=23)


@pytest.fixture(scope="module")
def prototype(tenant_workload):
    config = t1_bench_config(engine="vectorized", omega=200,
                             moga_generations=3, moga_population=10)
    detector = SPOT(config)
    detector.learn(tenant_workload.training_values)
    return detector


def _serve(prototype, points, **config_kwargs):
    service = DetectionService.from_prototype(
        prototype, ServiceConfig(**config_kwargs))
    service.start()
    service.submit_tagged(points)
    service.drain()
    service.stop()
    return service


def _counter_total(snapshot, name):
    prefix = name + "{"
    return sum(value for key, value in snapshot["counters"].items()
               if key == name or key.startswith(prefix))


class TestStatsSchema:
    def test_stats_is_json_serialisable_with_pinned_keys(self, prototype,
                                                         tenant_workload):
        service = _serve(prototype, tenant_workload.detection,
                         n_shards=2, max_batch=64)
        stats = service.stats()
        assert json.loads(json.dumps(stats)) == stats
        assert set(stats) == STATS_KEYS
        assert set(stats["robustness"]) == ROBUSTNESS_KEYS
        for row in stats["shards"]:
            assert set(row) == SHARD_ROW_KEYS
        assert stats["points"] == len(tenant_workload.detection)

    def test_metrics_snapshot_matches_stats_exactly(self, prototype,
                                                    tenant_workload):
        service = _serve(prototype, tenant_workload.detection,
                         n_shards=2, max_batch=64)
        stats = service.stats()
        snapshot = service.metrics_snapshot()
        assert snapshot["schema"] == "spot-metrics/v1"
        assert json.loads(json.dumps(snapshot)) == snapshot
        assert _counter_total(snapshot, "service.points") == stats["points"]
        robustness = stats["robustness"]
        for name, key in (("service.restarts", "restarts"),
                          ("service.shed_points", "shed_points"),
                          ("service.degraded_points", "degraded_points"),
                          ("service.quarantined_points",
                           "quarantined_points")):
            assert _counter_total(snapshot, name) == robustness[key]
        assert snapshot["gauges"]["service.points_completed"] == \
            stats["points"]
        # One latency + one path histogram per shard.
        histograms = snapshot["histograms"]
        assert sum(1 for key in histograms
                   if key.startswith("service.latency_seconds{")) == 2
        assert sum(1 for key in histograms
                   if key.startswith("service.path_seconds{")) == 2

    def test_default_service_has_the_null_tracer(self, prototype,
                                                 tenant_workload):
        service = _serve(prototype, tenant_workload.detection[:60],
                         n_shards=1, max_batch=32)
        assert service.tracer is NULL_TRACER
        assert service.tracer.spans() == []

    def test_restored_service_reports_the_same_shape(self, prototype,
                                                     tenant_workload,
                                                     tmp_path):
        points = tenant_workload.detection
        service = DetectionService.from_prototype(
            prototype, ServiceConfig(n_shards=2, max_batch=64,
                                     checkpoint_dir=str(tmp_path)))
        service.start()
        service.submit_tagged(points[:200])
        service.drain()
        service.checkpoint()
        service.stop()
        before = service.stats()

        restored = DetectionService.restore(str(tmp_path),
                                            config=ServiceConfig(max_batch=64))
        restored.start()
        restored.submit_tagged(points[200:])
        restored.drain()
        restored.stop()
        after = restored.stats()

        assert set(after) == set(before) == STATS_KEYS
        assert set(after["robustness"]) == set(before["robustness"])
        for key in NON_TIMING_KEYS:
            if key == "checkpoints_taken":
                continue  # the restored run has written none
            assert after[key] == before[key], key
        # Between them the two processes served the whole workload.
        assert before["points"] + after["points"] == len(points)


class TestChaosTraceAndCounters:
    @pytest.fixture(scope="class")
    def chaos_run(self, prototype, tenant_workload):
        tracer = Tracer()
        plan = FaultPlan(crash_points=(90,), seed=5)
        service = _serve(prototype, tenant_workload.detection,
                         n_shards=2, max_batch=32, supervise=True,
                         fault_plan=plan, tracer=tracer)
        return tracer, service

    def test_trace_covers_crash_restore_replay(self, chaos_run):
        tracer, _ = chaos_run
        assert tracer.find("shard.crash"), "the injected crash was traced"
        recover, = tracer.find("supervisor.recover")
        assert recover.data["outcome"] == "recovered"
        restores = tracer.find("supervisor.restore")
        replays = tracer.find("supervisor.replay")
        assert restores and replays
        assert all(span.parent_id == recover.span_id
                   for span in restores + replays)
        replayed, = [span for span in replays
                     if span.data.get("outcome") == "replayed"]
        assert replayed.attrs["n"] > 0

    def test_snapshot_counters_match_robustness_block(self, chaos_run):
        _, service = chaos_run
        stats = service.stats()
        snapshot = service.metrics_snapshot()
        robustness = stats["robustness"]
        assert robustness["restarts"] == \
            _counter_total(snapshot, "service.restarts") == 1
        assert robustness["shed_points"] == \
            _counter_total(snapshot, "service.shed_points")
        assert robustness["quarantined_points"] == \
            _counter_total(snapshot, "service.quarantined_points")
        assert robustness["recovery_ms"] == pytest.approx(
            1e3 * _counter_total(snapshot, "service.recovery_seconds"),
            abs=0.06)
        assert stats["points"] == _counter_total(snapshot, "service.points")

    def test_trace_export_is_json_stable(self, chaos_run):
        tracer, _ = chaos_run
        export = tracer.to_dict()
        assert export["schema"] == "spot-trace/v1"
        assert json.loads(json.dumps(export)) == export


class TestFleetMigrationObservability:
    """Migration events in the flight ring + SLO continuity across one."""

    def _serve_with_resize(self, prototype, points, *, fault_plan=None,
                           **config_kwargs):
        service = DetectionService.from_prototype(
            prototype, ServiceConfig(n_shards=2, max_batch=64, router="ring",
                                     flight_recorder=True,
                                     fault_plan=fault_plan, **config_kwargs))
        service.start()
        rebalancer = FleetRebalancer(service)
        half = len(points) // 2
        for index, point in enumerate(points):
            if index == half:
                rebalancer.resize(3)
            service.submit(point.stream_id, point.values)
        service.drain()
        service.stop()
        return service, rebalancer

    def test_migration_records_start_and_commit_events(
            self, prototype, tenant_workload):
        points = tenant_workload.detection
        service, rebalancer = self._serve_with_resize(prototype, points)
        kinds = [record["kind"] for record in service.flight_recorder.records()
                 if record["kind"].startswith("migrate-")]
        assert kinds == ["migrate-start", "migrate-commit"]
        start, commit = [record for record
                         in service.flight_recorder.records()
                         if record["kind"].startswith("migrate-")]
        boundary = rebalancer.history[0].boundary
        for record in (start, commit):
            assert record["data"]["op"] == "grow"
            assert record["data"]["from_shards"] == 2
            assert record["data"]["to_shards"] == 3
            assert record["data"]["boundary"] == boundary
        # The ring is stamp-ordered, so the window is reconstructible.
        assert start["stamp"] < commit["stamp"]

    def test_aborted_migration_records_the_abort(
            self, prototype, tenant_workload):
        points = tenant_workload.detection[:200]
        service, rebalancer = self._serve_with_resize(
            prototype, points,
            fault_plan=FaultPlan(migration_crashes=(1,)))
        assert rebalancer.history[0].committed is False
        kinds = [record["kind"] for record in service.flight_recorder.records()
                 if record["kind"].startswith("migrate-")]
        assert kinds == ["migrate-start", "migrate-abort"]

    def test_slo_window_survives_a_migration(
            self, prototype, tenant_workload):
        # Per-tenant SLO accounting is keyed by stream, not shard: resizing
        # the fleet mid-stream must not reset a tenant's window or degrade
        # its status.
        points = tenant_workload.detection
        objectives = SLOObjectives(latency_p95_ms=60_000.0,
                                   window_points=50)
        service, rebalancer = self._serve_with_resize(
            prototype, points, slo=objectives)
        assert rebalancer.history[0].committed
        report = service.slo_report()
        assert report["schema"] == "spot-slo/v1"
        assert report["status"] == "ok"
        tenants = {point.stream_id for point in points}
        assert set(report["tenants"]) == tenants
        per_tenant = {point.stream_id: 0 for point in points}
        for point in points:
            per_tenant[point.stream_id] += 1
        for stream_id, entry in report["tenants"].items():
            # Every point of every tenant is accounted for across the
            # migration window — nothing reset, shed, or dropped.
            assert entry["total_points"] == per_tenant[stream_id]
            assert entry["status"] == "ok"
        # The stats dict keeps its pinned shape with the report attached.
        stats = service.stats()
        assert set(stats) == STATS_KEYS
        assert stats["slo"] == report


class TestReplayTraceIdentity:
    #: The hot-path span vocabulary whose tail must replay identically.
    REPLAYED_NAMES = {"enqueue", "shard.batch", "shard.score", "shard.commit"}

    @staticmethod
    def _tail(tracer, offset):
        """Hot-path spans covering sequence numbers >= ``offset``."""
        tail = []
        for span in tracer.spans():
            seq = span.attrs.get("seq", span.attrs.get("seq_first"))
            if span.name in TestReplayTraceIdentity.REPLAYED_NAMES and \
                    seq is not None and seq >= offset:
                tail.append((span.span_id, span.parent_id, span.name,
                             tuple(sorted(span.attrs.items()))))
        return tail

    def test_serve_then_replay_emits_identical_span_tree(
            self, prototype, tenant_workload, tmp_path):
        points = tenant_workload.detection[:80]
        offset = 40
        # max_batch=1 pins the batch boundaries, making the whole hot-path
        # span stream (not just per-point events) timing-independent.
        original = Tracer()
        service = DetectionService.from_prototype(
            prototype, ServiceConfig(n_shards=1, max_batch=1, max_delay=0.0,
                                     checkpoint_dir=str(tmp_path),
                                     tracer=original))
        service.start()
        service.submit_tagged(points[:offset])
        service.drain()
        service.checkpoint()
        service.submit_tagged(points[offset:])
        service.drain()
        service.stop()

        replayed = Tracer()
        restored = DetectionService.restore(
            str(tmp_path), config=ServiceConfig(max_batch=1, max_delay=0.0,
                                                tracer=replayed))
        restored.start()
        restored.submit_tagged(points[offset:])
        restored.drain()
        restored.stop()

        original_tail = self._tail(original, offset)
        replay_tail = self._tail(replayed, offset)
        assert original_tail == replay_tail
        names = [entry[2] for entry in replay_tail]
        assert names.count("enqueue") == len(points) - offset
        assert names.count("shard.commit") == len(points) - offset
        # And the replayed load-span announces the restore position.
        load, = replayed.find("checkpoint.load")
        assert load.data["at_point"] == offset
