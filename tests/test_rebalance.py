"""Tests for live fleet rebalancing.

The acceptance property is **migration parity**: a service resharded
mid-stream (split and merge, live, under traffic) produces exactly the
decisions and SSTs of a single-threaded oracle that reenacts the same
topology changes with reference detectors: clone the donor at the boundary
on a grow, drop the retired detectors on a shrink, route every point with
the same ring.  Zero drift means the drain/export/ship/restore machinery is
lossless.
"""

import pytest

from repro import SPOT
from repro.core.exceptions import ConfigurationError
from repro.eval.experiments import t1_bench_config
from repro.eval.workloads import multi_tenant_workload
from repro.service import (
    DetectionService,
    FleetRebalancer,
    ServiceConfig,
    make_router,
)


def _online_config(**overrides):
    settings = dict(engine="vectorized", omega=200, os_growth_enabled=True,
                    self_evolution_period=150, moga_generations=4,
                    moga_population=12)
    settings.update(overrides)
    return t1_bench_config(**settings)


@pytest.fixture(scope="module")
def tenant_workload():
    """A small multiplexed workload with online learning triggers armed."""
    return multi_tenant_workload(n_tenants=4, dimensions=8,
                                 n_training_per_tenant=60,
                                 n_detection_per_tenant=150, seed=19)


@pytest.fixture(scope="module")
def prototype(tenant_workload):
    detector = SPOT(_online_config())
    detector.learn(tenant_workload.training_values)
    return detector


def _serve_with_resizes(prototype, points, resizes, **config_kwargs):
    """Run a service, resizing the fleet at the given submit indices."""
    config_kwargs.setdefault("n_shards", 2)
    config_kwargs.setdefault("max_batch", 64)
    config_kwargs.setdefault("router", "ring")
    service = DetectionService.from_prototype(
        prototype, ServiceConfig(**config_kwargs))
    service.start()
    rebalancer = FleetRebalancer(service)
    marks = dict(resizes)
    for index, point in enumerate(points):
        if index in marks:
            report = rebalancer.resize(marks[index])
            assert report.committed
        service.submit(point.stream_id, point.values)
    service.drain()
    service.stop()
    return service, rebalancer


def _oracle(prototype, points, resizes, *, n_shards=2, router="ring"):
    """Reenact the same topology changes with reference detectors."""
    refs = [SPOT.from_state(prototype.export_state(arrays="copy"))
            for _ in range(n_shards)]
    route = make_router(router, n_shards)
    marks = dict(resizes)
    flags = []
    for index, point in enumerate(points):
        if index in marks:
            target = marks[index]
            if target > len(refs):
                old_n = len(refs)
                for shard in range(old_n, target):
                    refs.append(SPOT.from_state(
                        refs[shard % old_n].export_state(arrays="copy")))
            else:
                del refs[target:]
            route = make_router(router, target)
        shard = route.shard_of(point.stream_id)
        flags.append(refs[shard].process_batch([point.values])[0].is_outlier)
    return flags, [detector.sst.to_dict() for detector in refs]


def _flags(service):
    return [r.is_outlier for r in service.results()]


def _ssts(service):
    return [d.sst.to_dict() for d in service.shard_detectors()]


class TestMigrationParity:
    def test_mid_stream_split_and_merge_match_the_oracle(
            self, prototype, tenant_workload):
        points = tenant_workload.detection
        resizes = ((200, 3), (420, 2))
        service, rebalancer = _serve_with_resizes(
            prototype, points, resizes)
        oracle_flags, oracle_ssts = _oracle(prototype, points, resizes)
        assert _flags(service) == oracle_flags
        assert _ssts(service) == oracle_ssts
        ops = [report.op for report in rebalancer.history]
        assert ops == ["grow", "shrink"]
        assert [r.boundary for r in rebalancer.history] == [200, 420]

    def test_resize_under_supervision_and_static_router(
            self, prototype, tenant_workload):
        points = tenant_workload.detection
        resizes = ((250, 4),)
        service, _ = _serve_with_resizes(
            prototype, points, resizes, router="static", supervise=True)
        oracle_flags, oracle_ssts = _oracle(
            prototype, points, resizes, router="static")
        assert _flags(service) == oracle_flags
        assert _ssts(service) == oracle_ssts

    def test_noop_resize_commits_nothing(self, prototype, tenant_workload):
        service = DetectionService.from_prototype(
            prototype, ServiceConfig(n_shards=2, router="ring"))
        service.start()
        rebalancer = FleetRebalancer(service)
        report = rebalancer.resize(2)
        assert report.op == "noop"
        assert service.config.n_shards == 2
        service.stop()

    def test_resize_requires_a_running_service(self, prototype):
        service = DetectionService.from_prototype(
            prototype, ServiceConfig(n_shards=2))
        rebalancer = FleetRebalancer(service)
        with pytest.raises(ConfigurationError):
            rebalancer.resize(3)
        with pytest.raises(ConfigurationError):
            FleetRebalancer(service).migrate_tenant("tenant-0", 1)

    def test_status_reports_topology_and_history(
            self, prototype, tenant_workload):
        points = tenant_workload.detection[:300]
        service, rebalancer = _serve_with_resizes(
            prototype, points, ((150, 3),))
        status = rebalancer.status()
        assert status["n_shards"] == 3
        assert status["router"] == "ring"
        assert status["points_submitted"] == len(points)
        assert status["points_completed"] == len(points)
        assert len(status["queued"]) == 3
        assert [m["op"] for m in status["migrations"]] == ["grow"]
        assert status["migrations"][0]["committed"] is True
        assert status["migrations"][0]["stall_ms"] >= 0.0


class TestTenantMigration:
    def test_pin_moves_the_tenant_and_preserves_order(
            self, prototype, tenant_workload):
        points = tenant_workload.detection
        half = len(points) // 2
        service = DetectionService.from_prototype(
            prototype, ServiceConfig(n_shards=3, max_batch=64, router="ring"))
        service.start()
        rebalancer = FleetRebalancer(service)
        tenant = points[0].stream_id
        source = service.router.shard_of(tenant)
        target = (source + 1) % 3
        for point in points[:half]:
            service.submit(point.stream_id, point.values)
        report = rebalancer.migrate_tenant(tenant, target)
        assert report.op == "pin" and report.committed
        assert report.moved_streams == (tenant,)
        for point in points[half:]:
            service.submit(point.stream_id, point.values)
        service.drain()
        service.stop()
        # Oracle: the tenant's pre-boundary points score on the source's
        # reference, post-boundary points on the target's.
        refs = [SPOT.from_state(prototype.export_state(arrays="copy"))
                for _ in range(3)]
        route = make_router("ring", 3)
        flags = []
        for index, point in enumerate(points):
            shard = route.shard_of(point.stream_id)
            if index >= half and point.stream_id == tenant:
                shard = target
            flags.append(
                refs[shard].process_batch([point.values])[0].is_outlier)
        assert _flags(service) == flags
        assert _ssts(service) == [d.sst.to_dict() for d in refs]

    def test_pins_survive_checkpoint_restore(
            self, prototype, tenant_workload, tmp_path):
        points = tenant_workload.detection[:200]
        service = DetectionService.from_prototype(
            prototype, ServiceConfig(n_shards=2, router="ring"))
        service.start()
        service.submit_tagged(points)
        service.drain()
        tenant = points[0].stream_id
        target = (service.router.shard_of(tenant) + 1) % 2
        FleetRebalancer(service).migrate_tenant(tenant, target)
        service.checkpoint(tmp_path)
        service.stop()
        restored = DetectionService.restore(tmp_path)
        assert restored.config.router == "ring"
        assert restored.router.kind == "ring"
        assert restored.router.pins == {tenant: target}
        assert restored.router.shard_of(tenant) == target

    def test_rejects_targets_outside_the_fleet(
            self, prototype):
        service = DetectionService.from_prototype(
            prototype, ServiceConfig(n_shards=2, router="ring"))
        service.start()
        with pytest.raises(ConfigurationError):
            FleetRebalancer(service).migrate_tenant("tenant-0", 2)
        service.stop()

    def test_resize_drops_pins_to_retired_shards(
            self, prototype, tenant_workload):
        service = DetectionService.from_prototype(
            prototype, ServiceConfig(n_shards=3, router="ring"))
        service.start()
        rebalancer = FleetRebalancer(service)
        service.router.pins.update({"keep": 0, "dropped": 2})
        rebalancer.resize(2)
        assert service.router.pins == {"keep": 0}
        service.stop()

