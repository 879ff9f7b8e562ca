"""Tests for the sharded multi-stream detection service.

The heart of this suite is the two acceptance properties of the serving
layer:

* **Routing parity** — pushing a multiplexed multi-tenant workload through an
  N-shard service yields exactly the per-point decisions of N independent
  detectors fed the router's partitions directly.
* **Checkpoint fidelity** — checkpoint → restore → resume produces decisions
  identical to a service that was never interrupted.
"""

import gc
import threading
import time

import pytest

from repro import SPOT
from repro.core.exceptions import ConfigurationError, SerializationError
from repro.core.results import DetectionResult
from repro.eval.experiments import t1_bench_config
from repro.eval.workloads import multi_tenant_workload
from repro.obs import explain_result
from repro.persist import clone_detector
from repro.service import (
    BatchItem,
    CheckpointManager,
    DetectionService,
    MicroBatcher,
    ServiceConfig,
    ServiceResult,
    ShardRouter,
)
from repro.service.service import MAX_SHARDS


@pytest.fixture(scope="module")
def tenant_workload():
    """A small multiplexed workload: 4 tenants, 8 dimensions."""
    return multi_tenant_workload(n_tenants=4, dimensions=8,
                                 n_training_per_tenant=60,
                                 n_detection_per_tenant=250, seed=19)


@pytest.fixture(scope="module")
def prototype(tenant_workload):
    """One learned prototype detector shared (via cloning) by every test."""
    config = t1_bench_config(engine="vectorized", omega=200,
                             moga_generations=4, moga_population=12)
    detector = SPOT(config)
    detector.learn(tenant_workload.training_values)
    return detector


def _run_service(prototype, points, **config_kwargs):
    service = DetectionService.from_prototype(
        prototype, ServiceConfig(**config_kwargs))
    service.start()
    service.submit_tagged(points)
    service.drain()
    service.stop()
    return service


class TestShardRouter:
    def test_routing_is_stable_and_in_range(self):
        router = ShardRouter(4)
        shards = [router.shard_of(f"tenant-{i}") for i in range(100)]
        assert all(0 <= shard < 4 for shard in shards)
        assert shards == [router.shard_of(f"tenant-{i}") for i in range(100)]

    def test_every_shard_gets_keys_eventually(self):
        router = ShardRouter(4)
        used = {router.shard_of(f"stream-{i}") for i in range(200)}
        assert used == {0, 1, 2, 3}

    def test_salt_rebalances(self):
        keys = [f"tenant-{i}" for i in range(64)]
        plain = [ShardRouter(4).shard_of(key) for key in keys]
        salted = [ShardRouter(4, salt=99).shard_of(key) for key in keys]
        assert plain != salted

    def test_partition_preserves_order(self, tenant_workload):
        router = ShardRouter(3)
        partitions = router.partition(tenant_workload.detection)
        assert sum(len(points) for points in partitions.values()) == \
            len(tenant_workload.detection)
        for points in partitions.values():
            by_tenant = {}
            for point in points:
                by_tenant.setdefault(point.stream_id, []).append(point.values)
            for tenant, values in by_tenant.items():
                expected = [p.values for p in
                            tenant_workload.detection_for(tenant)]
                assert values == expected

    def test_rejects_nonpositive_shard_count(self):
        with pytest.raises(ConfigurationError):
            ShardRouter(0)


def _item(seq, values=(0.0,)):
    return BatchItem(seq=seq, stream_id="s", values=values,
                     enqueued_at=time.monotonic())


class TestMicroBatcher:
    def test_coalesces_queued_points_into_one_batch(self):
        batcher = MicroBatcher(max_batch=8, max_delay=0.0)
        for seq in range(5):
            batcher.put(_item(seq))
        batch = batcher.next_batch()
        assert [item.seq for item in batch] == [0, 1, 2, 3, 4]

    def test_respects_max_batch(self):
        batcher = MicroBatcher(max_batch=3, max_delay=0.0, max_pending=100)
        for seq in range(7):
            batcher.put(_item(seq))
        assert len(batcher.next_batch()) == 3
        assert len(batcher.next_batch()) == 3
        assert len(batcher.next_batch()) == 1

    def test_max_delay_waits_for_more_points(self):
        batcher = MicroBatcher(max_batch=4, max_delay=0.2)
        batcher.put(_item(0))

        def late_producer():
            time.sleep(0.02)
            batcher.put(_item(1))

        thread = threading.Thread(target=late_producer)
        thread.start()
        batch = batcher.next_batch()
        thread.join()
        assert len(batch) == 2  # the delay window caught the second point

    def test_close_drains_then_signals_none(self):
        batcher = MicroBatcher(max_batch=8, max_delay=0.0)
        batcher.put(_item(0))
        batcher.close()
        assert [item.seq for item in batcher.next_batch()] == [0]
        assert batcher.next_batch() is None
        with pytest.raises(ConfigurationError):
            batcher.put(_item(1))

    def test_backpressure_blocks_until_consumed(self):
        batcher = MicroBatcher(max_batch=2, max_delay=0.0, max_pending=2)
        batcher.put(_item(0))
        batcher.put(_item(1))
        released = threading.Event()

        def producer():
            batcher.put(_item(2))  # blocks: queue is at max_pending
            released.set()

        thread = threading.Thread(target=producer, daemon=True)
        thread.start()
        time.sleep(0.05)
        assert not released.is_set()
        batcher.next_batch()
        assert released.wait(timeout=2.0)
        thread.join()
        assert batcher.stats()["producer_blocks"] == 1.0

    def test_validates_parameters(self):
        with pytest.raises(ConfigurationError):
            MicroBatcher(max_batch=0)
        with pytest.raises(ConfigurationError):
            MicroBatcher(max_batch=4, max_delay=-1.0)
        with pytest.raises(ConfigurationError):
            MicroBatcher(max_batch=16, max_pending=8)


class TestDetectionServiceParity:
    def test_sharded_decisions_match_partitioned_reference(
            self, prototype, tenant_workload):
        n_shards = 4
        service = _run_service(prototype, tenant_workload.detection,
                               n_shards=n_shards, max_batch=128)
        results = service.results()
        assert len(results) == len(tenant_workload.detection)

        router = service.router
        partitions = {shard: [] for shard in range(n_shards)}
        for index, point in enumerate(tenant_workload.detection):
            partitions[router.shard_of(point.stream_id)].append((index, point))
        reference = {}
        for shard, items in partitions.items():
            detector = clone_detector(prototype)
            batch = detector.process_batch([p.values for _, p in items])
            for (index, _), result in zip(items, batch):
                reference[index] = result.is_outlier
        assert all(r.is_outlier == reference[r.seq] for r in results)

    def test_results_per_stream_preserve_arrival_order(
            self, prototype, tenant_workload):
        service = _run_service(prototype, tenant_workload.detection,
                               n_shards=2, max_batch=64)
        for tenant in tenant_workload.tenants:
            # The service keeps no unflagged point: look each up by seq.
            delivered = [tenant_workload.detection[r.seq].values for r
                         in service.results_for(tenant)]
            submitted = [p.values for p
                         in tenant_workload.detection_for(tenant)]
            assert delivered == submitted

    def test_single_shard_service_equals_plain_detector(
            self, prototype, tenant_workload):
        points = tenant_workload.detection[:300]
        service = _run_service(prototype, points, n_shards=1, max_batch=64)
        reference = clone_detector(prototype).process_batch(
            [p.values for p in points])
        service_flags = [r.is_outlier for r in service.results()]
        assert service_flags == [r.is_outlier for r in reference]

    def test_stats_report_throughput_and_latency_percentiles(
            self, prototype, tenant_workload):
        service = _run_service(prototype, tenant_workload.detection[:200],
                               n_shards=2, max_batch=64)
        stats = service.stats()
        assert stats["points"] == 200
        assert stats["n_shards"] == 2
        assert stats["aggregate_points_per_second"] > 0
        assert len(stats["shards"]) == 2
        busiest = max(stats["shards"], key=lambda s: s["points"])
        assert busiest["points"] > 0
        assert busiest["latency_p99_ms"] >= busiest["latency_p50_ms"] >= 0.0


class TestServiceCheckpointing:
    def test_checkpoint_restore_resume_is_decision_identical(
            self, prototype, tenant_workload, tmp_path):
        points = list(tenant_workload.detection)
        half = len(points) // 2
        directory = tmp_path / "ckpt"

        uninterrupted = _run_service(prototype, points,
                                     n_shards=4, max_batch=128)
        tail_expected = [r.is_outlier for r in uninterrupted.results()][half:]

        first = DetectionService.from_prototype(
            prototype, ServiceConfig(n_shards=4, max_batch=128))
        first.start()
        first.submit_tagged(points[:half])
        first.checkpoint(directory, extra={"note": "mid-stream"})
        first.stop()

        resumed = DetectionService.restore(directory)
        assert resumed.points_submitted == half
        resumed.start()
        resumed.submit_tagged(points[half:])
        resumed.drain()
        resumed.stop()
        tail_actual = [r.is_outlier for r in resumed.results()]
        assert tail_actual == tail_expected

    def test_manifest_records_topology_and_offset(self, prototype,
                                                  tenant_workload, tmp_path):
        directory = tmp_path / "ckpt"
        service = DetectionService.from_prototype(
            prototype, ServiceConfig(n_shards=3, router_salt=5))
        service.start()
        service.submit_tagged(tenant_workload.detection[:120])
        service.checkpoint(directory, extra={"source": "test"})
        service.stop()

        manifest = CheckpointManager(directory).manifest()
        assert manifest["n_shards"] == 3
        assert manifest["router_salt"] == 5
        assert manifest["points_submitted"] == 120
        assert manifest["extra"] == {"source": "test"}
        assert sum(entry["points_processed"] for entry
                   in manifest["shards"]) >= 120

    def test_periodic_checkpointing_fires_on_threshold(
            self, prototype, tenant_workload, tmp_path):
        directory = tmp_path / "auto"
        service = DetectionService.from_prototype(prototype, ServiceConfig(
            n_shards=2, max_batch=64, checkpoint_every=100,
            checkpoint_dir=str(directory)))
        service.set_checkpoint_extra({"origin": "periodic-test"})
        service.start()
        service.submit_tagged(tenant_workload.detection[:250])
        service.drain()
        service.stop()
        assert service.checkpoints_taken >= 2
        manifest = CheckpointManager(directory).manifest()
        assert manifest["points_submitted"] > 0
        # Periodic checkpoints must carry the persistent metadata — that is
        # what keeps a crash-recovery checkpoint replayable by the CLI.
        assert manifest["extra"] == {"origin": "periodic-test"}

    def test_recheckpoint_into_same_directory_stays_loadable(
            self, prototype, tenant_workload, tmp_path):
        directory = tmp_path / "repeat"
        service = DetectionService.from_prototype(
            prototype, ServiceConfig(n_shards=2))
        service.start()
        service.submit_tagged(tenant_workload.detection[:60])
        service.checkpoint(directory)
        service.submit_tagged(tenant_workload.detection[60:100])
        service.checkpoint(directory)
        service.submit_tagged(tenant_workload.detection[100:140])
        service.checkpoint(directory)
        service.stop()
        manager = CheckpointManager(directory)
        manifest = manager.manifest()
        assert manifest["points_submitted"] == 140
        # Retention keeps exactly the latest generation plus the previous
        # good one (the corruption fallback); older generations are
        # collected.  Here: gen 140 + gen 100 survive, gen 60 is gone.
        shard_files = sorted(p.name for p in directory.glob("shard-*.npz"))
        latest = {entry["file"] for entry in manifest["shards"]}
        previous = {entry["file"]
                    for entry in manager.manifest("manifest-prev.json")["shards"]}
        assert shard_files == sorted(latest | previous)
        assert not any(name.endswith("-60.npz") for name in shard_files)
        restored = DetectionService.restore(directory)
        assert restored.points_submitted == 140

    def test_restore_keeps_manifest_topology_over_overrides(
            self, prototype, tenant_workload, tmp_path):
        directory = tmp_path / "ckpt"
        service = DetectionService.from_prototype(
            prototype, ServiceConfig(n_shards=2))
        service.start()
        service.submit_tagged(tenant_workload.detection[:50])
        service.checkpoint(directory)
        service.stop()
        restored = DetectionService.restore(
            directory, config=ServiceConfig(n_shards=4, max_batch=32))
        assert restored.config.n_shards == 2  # manifest wins
        assert restored.config.max_batch == 32  # serving tunable respected

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(SerializationError):
            CheckpointManager(tmp_path / "nowhere").manifest()

    def test_checkpoint_without_directory_raises(self, prototype):
        service = DetectionService.from_prototype(
            prototype, ServiceConfig(n_shards=1))
        service.start()
        with pytest.raises(ConfigurationError):
            service.checkpoint()
        service.stop()


class TestServiceFailureHandling:
    def test_worker_failure_surfaces_and_quarantines_the_shard(
            self, prototype, tenant_workload):
        service = DetectionService.from_prototype(
            prototype, ServiceConfig(n_shards=1, max_batch=16))
        service.start()
        good = tenant_workload.detection[:10]
        service.submit_tagged(good)
        service.drain()
        # A wrong-dimensionality point makes process_batch raise inside the
        # worker; the error must surface through drain(), and points after
        # the failure must be rejected (quarantine), not silently scored.
        service.submit("tenant-000", (0.0, 1.0))  # phi is 8, not 2
        service.submit_tagged(tenant_workload.detection[10:20])
        with pytest.raises(ConfigurationError, match="shard 0"):
            service.drain()
        healthy = [r for r in service.results()]
        assert len(healthy) == len(good)  # nothing after the failure leaked
        stats = service.stats()
        assert stats["shards"][0]["errors"] >= 1
        with pytest.raises(ConfigurationError):
            service.stop()


def _live(kind):
    return sum(1 for obj in gc.get_objects() if isinstance(obj, kind))


class TestResultLog:
    # The serving tests route with the ring: the static router puts all four
    # tenants on one of two shards.
    def test_service_keeps_no_result_object_per_point(
            self, prototype, tenant_workload):
        points = list(tenant_workload.detection) * 2
        assert len(points) == 2000
        gc.collect()
        before = {kind: _live(kind)
                  for kind in (ServiceResult, DetectionResult)}
        service = DetectionService.from_prototype(
            prototype, ServiceConfig(n_shards=2, max_batch=64,
                                     router="ring")).start()
        service.submit_tagged(points)
        service.drain()
        gc.collect()
        live = {kind: _live(kind) - before[kind]
                for kind in (ServiceResult, DetectionResult)}
        flagged = sum(r.is_outlier for r in service.results())
        service.stop()
        assert live[ServiceResult] == 0
        assert live[DetectionResult] <= flagged + 2

    @pytest.mark.parametrize("evidence", [False, True])
    def test_results_equal_a_per_shard_replay(self, prototype,
                                              tenant_workload, evidence):
        points = tenant_workload.detection[:500]
        # One point per call on both sides: the fast store's scores depend
        # on the chunking in the last bits, and the comparison is bit-exact.
        service = _run_service(prototype, points, n_shards=2, max_batch=1,
                               router="ring", evidence=evidence)
        results = service.results()
        assert [r.seq for r in results] == list(range(len(points)))

        replay = {}
        for shard in range(2):
            detector = clone_detector(prototype)
            detector.set_evidence_enabled(evidence)
            for seq, point in enumerate(points):
                if service.router.shard_of(point.stream_id) == shard:
                    [result] = detector.process_batch([point.values])
                    replay[seq] = (shard, result)
        assert {shard for shard, _ in replay.values()} == {0, 1}
        for served in results:
            shard, expected = replay[served.seq]
            got = served.result
            assert served.stream_id == points[served.seq].stream_id
            assert (served.shard, served.outcome) == (shard, "ok")
            assert (got.index, got.is_outlier) == \
                (expected.index, expected.is_outlier)
            assert got.score.hex() == expected.score.hex()
            assert got.outlying_subspaces == expected.outlying_subspaces
            assert got.decision == expected.decision
            # Flagged results stay whole; the log drops unflagged points.
            assert got.point == (expected.point if expected.is_outlier
                                 else None)
        assert any(r.is_outlier for r in results)
        unflagged = next(r.result for r in results if not r.is_outlier)
        assert explain_result(unflagged)["point"] is None

        for tenant in tenant_workload.tenants:
            assert service.results_for(tenant) == \
                [r for r in results if r.stream_id == tenant]
        assert service.results_for("no-such-stream") == []

    def test_fleet_size_is_bounded_by_the_shard_column(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(n_shards=MAX_SHARDS + 1)


class TestServiceValidation:
    def test_detector_count_must_match_shards(self, prototype):
        with pytest.raises(ConfigurationError):
            DetectionService([clone_detector(prototype)],
                             ServiceConfig(n_shards=2))

    def test_detectors_must_be_fitted(self):
        with pytest.raises(ConfigurationError):
            DetectionService([SPOT()], ServiceConfig(n_shards=1))

    def test_submit_requires_start(self, prototype):
        service = DetectionService.from_prototype(
            prototype, ServiceConfig(n_shards=1))
        with pytest.raises(ConfigurationError):
            service.submit("tenant-000", (0.0,) * 8)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(n_shards=0)
        with pytest.raises(ConfigurationError):
            ServiceConfig(checkpoint_every=10)  # no checkpoint_dir
