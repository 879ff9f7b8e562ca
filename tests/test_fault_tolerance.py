"""Tests for the fault-tolerance layer of the sharded serving stack.

The acceptance property of this suite: with a seeded :class:`FaultPlan`
injecting worker crashes mid-stream, the *supervised* service recovers
automatically, and the decisions (and final SSTs) of every non-shed point
are identical to a fault-free run.  Around that sit the smaller contracts —
bounded backpressure (timeout / shed put policies), deadline shedding and
degradation, poison-point quarantine, checkpoint corruption fallback, and
injected checkpoint-write failures.
"""

import json
import threading
import time

import pytest

from repro import SPOT
from repro.core.exceptions import (
    BackpressureTimeout,
    CheckpointCorruptionError,
    ConfigurationError,
    SerializationError,
)
from repro.eval.experiments import t1_bench_config
from repro.eval.workloads import multi_tenant_workload
from repro.persist import clone_detector
from repro.service import (
    BatchItem,
    CheckpointManager,
    DetectionService,
    FaultInjector,
    FaultPlan,
    FleetRebalancer,
    MicroBatcher,
    ServiceConfig,
    make_router,
)


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


def _serve(prototype, points, **config_kwargs):
    service = DetectionService.from_prototype(
        prototype, ServiceConfig(**config_kwargs))
    service.start()
    service.submit_tagged(points)
    service.drain()
    service.stop()
    return service


@pytest.fixture(scope="module")
def baseline(prototype, tenant_workload):
    """The fault-free reference run every chaos test compares against."""
    return _serve(prototype, tenant_workload.detection,
                  n_shards=2, max_batch=64)


def _assert_parity(chaos_service, baseline_service, n_points):
    """Full decision + SST parity of a loss-free recovered run."""
    baseline_flags = {r.seq: r.is_outlier
                      for r in baseline_service.results()}
    results = chaos_service.results()
    assert len(results) == n_points
    assert all(r.outcome == "ok" for r in results)
    assert all(r.is_outlier == baseline_flags[r.seq] for r in results)
    for recovered, reference in zip(chaos_service.shard_detectors(),
                                    baseline_service.shard_detectors()):
        assert recovered.sst.to_dict() == reference.sst.to_dict()


# --------------------------------------------------------------------- #
# The fault plan itself
# --------------------------------------------------------------------- #
class TestFaultPlan:
    def test_random_plan_is_deterministic(self):
        plan = FaultPlan.random(seed=7, n_points=500, n_crashes=2,
                                n_stalls=1, n_checkpoint_failures=1)
        again = FaultPlan.random(seed=7, n_points=500, n_crashes=2,
                                 n_stalls=1, n_checkpoint_failures=1)
        assert plan == again
        assert len(plan.crash_points) == 2
        assert all(0 < seq < 499 for seq in plan.crash_points)

    def test_injector_fires_each_fault_once(self):
        injector = FaultInjector(FaultPlan(crash_points=(5,),
                                           stall_points=((9, 0.01),),
                                           checkpoint_failures=(2,)))
        assert injector.crash_consume([3, 4, 5, 6]) == 2
        assert injector.crash_consume([5]) is None  # already fired
        assert injector.stall_seconds([9]) == pytest.approx(0.01)
        assert injector.stall_seconds([9]) == 0.0
        assert not injector.checkpoint_should_fail()  # save 1 passes
        assert injector.checkpoint_should_fail()      # save 2 fails
        assert not injector.checkpoint_should_fail()
        assert injector.stats()["crashes_fired"] == 1


# --------------------------------------------------------------------- #
# Bounded backpressure on the micro-batch queue
# --------------------------------------------------------------------- #
def _item(seq):
    return BatchItem(seq=seq, stream_id=f"s{seq}", values=(0.0,),
                     enqueued_at=time.monotonic())


class TestPutPolicies:
    def test_shed_policy_drops_immediately_when_full(self):
        batcher = MicroBatcher(max_batch=2, max_pending=2,
                               full_policy="shed")
        assert batcher.put(_item(0)) and batcher.put(_item(1))
        started = time.monotonic()
        assert batcher.put(_item(2)) is False
        assert time.monotonic() - started < 0.05
        assert batcher.stats()["shed_points"] == 1.0
        assert len(batcher) == 2

    def test_timeout_policy_raises_typed_backpressure_error(self):
        batcher = MicroBatcher(max_batch=2, max_pending=2,
                               full_policy="timeout", put_timeout=0.05)
        batcher.put(_item(0))
        batcher.put(_item(1))
        with pytest.raises(BackpressureTimeout):
            batcher.put(_item(2))

    def test_per_call_timeout_overrides_blocking_default(self):
        batcher = MicroBatcher(max_batch=2, max_pending=2)
        batcher.put(_item(0))
        batcher.put(_item(1))
        with pytest.raises(BackpressureTimeout):
            batcher.put(_item(2), timeout=0.05)

    def test_timeout_policy_requires_a_bound(self):
        with pytest.raises(ConfigurationError):
            MicroBatcher(full_policy="timeout")

    def test_stop_event_steps_aside_without_consuming(self):
        batcher = MicroBatcher(max_batch=8, max_delay=0.0)
        batcher.put(_item(0))
        stop = threading.Event()
        stop.set()
        assert batcher.next_batch(stop=stop) is None
        assert len(batcher) == 1  # nothing was popped

    def test_requeue_restores_front_of_queue_order(self):
        batcher = MicroBatcher(max_batch=2, max_delay=0.0)
        for seq in range(4):
            batcher.put(_item(seq))
        popped = batcher.next_batch()
        assert [i.seq for i in popped] == [0, 1]
        batcher.requeue(popped)
        assert [i.seq for i in batcher.next_batch()] == [0, 1]
        assert [i.seq for i in batcher.next_batch()] == [2, 3]

    def test_service_timeout_policy_keeps_accounting_consistent(
            self, prototype, tenant_workload):
        # A long injected stall blocks the only shard while the producer
        # fills the tiny queue; the bounded put then times out.  The timed
        # out point must complete as shed so drain() still terminates.
        plan = FaultPlan(stall_points=((0, 0.5),))
        service = DetectionService.from_prototype(prototype, ServiceConfig(
            n_shards=1, max_batch=8, max_pending=8, max_delay=0.0,
            full_policy="timeout", put_timeout=0.05, fault_plan=plan))
        service.start()
        with pytest.raises(BackpressureTimeout):
            for point in tenant_workload.detection[:100]:
                service.submit(point.stream_id, point.values)
        service.drain()
        service.stop()
        stats = service.stats()["robustness"]
        assert stats["shed_points"] >= 1
        assert service.points_completed == service.points_submitted


# --------------------------------------------------------------------- #
# Supervised crash recovery: the loss-free parity contract
# --------------------------------------------------------------------- #
class TestCrashRecovery:
    def test_thread_mode_recovers_decision_identically(
            self, prototype, tenant_workload, baseline):
        plan = FaultPlan.random(seed=7, n_points=len(tenant_workload.detection),
                                n_crashes=2)
        service = _serve(prototype, tenant_workload.detection,
                         n_shards=2, max_batch=64, supervise=True,
                         fault_plan=plan)
        _assert_parity(service, baseline, len(tenant_workload.detection))
        robustness = service.stats()["robustness"]
        assert robustness["restarts"] >= 1
        assert robustness["recovery_ms"] > 0.0
        assert robustness["faults_fired"]["crashes_fired"] == 2

    def test_async_learning_shard_recovers_in_flight_learning(
            self, tenant_workload):
        # A learning-enabled prototype: crashes now tear in-flight learn
        # requests too, which the snapshot/replay path must reconstruct.
        config = t1_bench_config(engine="vectorized", omega=200,
                                 moga_generations=4, moga_population=12,
                                 os_growth_enabled=True,
                                 self_evolution_period=120)
        learner = SPOT(config)
        learner.learn(tenant_workload.training_values)
        reference = _serve(learner, tenant_workload.detection,
                           n_shards=2, max_batch=64, learning_mode="async")
        plan = FaultPlan(crash_points=(180, 420), seed=11)
        chaos = _serve(learner, tenant_workload.detection,
                       n_shards=2, max_batch=64, supervise=True,
                       learning_mode="async", fault_plan=plan)
        _assert_parity(chaos, reference, len(tenant_workload.detection))
        assert chaos.stats()["robustness"]["restarts"] >= 1

    def test_restart_budget_exhaustion_surfaces_a_shard_error(
            self, prototype, tenant_workload):
        # Two scheduled crashes but a budget of one: the second recovery
        # must fail loudly instead of looping.
        plan = FaultPlan(crash_points=(100, 300), seed=5)
        service = DetectionService.from_prototype(prototype, ServiceConfig(
            n_shards=1, max_batch=64, supervise=True,
            max_restarts_per_shard=1, fault_plan=plan))
        service.start()
        service.submit_tagged(tenant_workload.detection)
        with pytest.raises(ConfigurationError, match="restart budget"):
            service.drain()

    def test_unsupervised_injected_crash_stays_fail_stop(
            self, prototype, tenant_workload):
        plan = FaultPlan(crash_points=(100,), seed=5)
        service = DetectionService.from_prototype(prototype, ServiceConfig(
            n_shards=1, max_batch=64, fault_plan=plan))
        service.start()
        service.submit_tagged(tenant_workload.detection[:200])
        with pytest.raises(ConfigurationError, match="InjectedFault"):
            service.drain()


# --------------------------------------------------------------------- #
# Migration-window crashes: the source keeps ownership until commit
# --------------------------------------------------------------------- #
class TestMigrationCrash:
    def test_crash_mid_migration_rolls_back_and_recovers_identically(
            self, prototype, tenant_workload):
        # The first resize crashes inside its migration window (after the
        # donor export, before the commit); the second commits.  The run
        # must match an oracle in which only the committed resize ever
        # happened — proof that the aborted attempt mutated nothing and the
        # source shards kept ownership throughout.
        points = tenant_workload.detection
        plan = FaultPlan(migration_crashes=(1,))
        service = DetectionService.from_prototype(prototype, ServiceConfig(
            n_shards=2, max_batch=64, router="ring", supervise=True,
            fault_plan=plan))
        service.start()
        rebalancer = FleetRebalancer(service)
        for index, point in enumerate(points):
            if index == 200:
                aborted = rebalancer.resize(3)
                assert aborted.committed is False
                assert service.config.n_shards == 2
                assert len(service._workers) == 2
            if index == 420:
                committed = rebalancer.resize(3)
                assert committed.committed is True
                assert service.config.n_shards == 3
            service.submit(point.stream_id, point.values)
        service.drain()
        service.stop()

        refs = [SPOT.from_state(prototype.export_state(arrays="copy"))
                for _ in range(2)]
        router = make_router("ring", 2)
        flags = []
        for index, point in enumerate(points):
            if index == 420:  # only the committed resize changes topology
                refs.append(SPOT.from_state(
                    refs[0].export_state(arrays="copy")))
                router = make_router("ring", 3)
            shard = router.shard_of(point.stream_id)
            flags.append(
                refs[shard].process_batch([point.values])[0].is_outlier)
        assert [r.is_outlier for r in service.results()] == flags
        assert [d.sst.to_dict() for d in service.shard_detectors()] == \
            [d.sst.to_dict() for d in refs]

        faults_fired = service.stats()["robustness"]["faults_fired"]
        assert faults_fired["migration_crashes_fired"] == 1
        assert [r.committed for r in rebalancer.history] == [False, True]

    def test_migration_crash_plan_fires_once(self):
        plan = FaultPlan(migration_crashes=(2,))
        assert not plan.empty
        injector = FaultInjector(plan)
        assert not injector.migration_should_crash()  # attempt 1 passes
        assert injector.migration_should_crash()      # attempt 2 crashes
        assert not injector.migration_should_crash()
        assert injector.stats()["migration_crashes_fired"] == 1
        with pytest.raises(ConfigurationError):
            FaultPlan(migration_crashes=(0,))


# --------------------------------------------------------------------- #
# Poison points: quarantined, not retried forever
# --------------------------------------------------------------------- #
class TestPoisonQuarantine:
    def test_poison_point_is_quarantined_and_the_rest_survive(
            self, prototype, tenant_workload):
        # A wrong-dimensionality point makes scoring raise deterministically
        # on every attempt — the definition of poison.
        service = DetectionService.from_prototype(prototype, ServiceConfig(
            n_shards=2, max_batch=64, supervise=True, poison_threshold=3))
        service.start()
        poison_seq = None
        for index, point in enumerate(tenant_workload.detection[:300]):
            if index == 150:
                poison_seq = service.submit(point.stream_id, (1.0, 2.0))
            service.submit(point.stream_id, point.values)
        service.drain()
        service.stop()

        results = service.results()
        by_seq = {r.seq: r for r in results}
        assert by_seq[poison_seq].outcome == "quarantined"
        assert by_seq[poison_seq].result is None
        assert service.stats()["robustness"]["quarantined_points"] == 1
        scored = [r for r in results if r.scored]
        assert len(scored) == 300
        assert all(r.outcome == "ok" for r in scored)

        # The quarantined point never touched detector state: the scored
        # points' decisions match reference clones fed exactly the scored
        # subsequence of each shard.
        by_shard = {0: [], 1: []}
        for result in scored:
            by_shard[result.shard].append(result)
        points_by_seq = {}
        seq = 0
        for index, point in enumerate(tenant_workload.detection[:300]):
            if index == 150:
                seq += 1  # the poison point's seq
            points_by_seq[seq] = point
            seq += 1
        for shard_results in by_shard.values():
            if not shard_results:
                continue
            reference = clone_detector(prototype)
            expected = reference.process_batch(
                [points_by_seq[r.seq].values for r in shard_results])
            assert [e.is_outlier for e in expected] == \
                [r.is_outlier for r in shard_results]


# --------------------------------------------------------------------- #
# Deadlines: shed and degrade
# --------------------------------------------------------------------- #
class TestDeadlines:
    def test_stall_plus_deadline_sheds_and_survivors_match_reference(
            self, prototype, tenant_workload):
        plan = FaultPlan(stall_points=((120, 0.08),), seed=13)
        service = _serve(prototype, tenant_workload.detection,
                         n_shards=2, max_batch=64, supervise=True,
                         deadline=0.025, deadline_policy="shed",
                         fault_plan=plan)
        results = service.results()
        assert len(results) == len(tenant_workload.detection)
        shed = [r for r in results if r.outcome == "shed"]
        scored = [r for r in results if r.scored]
        assert shed, "the 80ms stall must age points past the 25ms deadline"
        assert all(r.result is None for r in shed)
        assert service.stats()["robustness"]["shed_points"] == len(shed)

        by_shard = {0: [], 1: []}
        for result in scored:
            by_shard[result.shard].append(result)
        for shard_results in by_shard.values():
            if not shard_results:
                continue
            reference = clone_detector(prototype)
            expected = reference.process_batch(
                [tenant_workload.detection[r.seq].values
                 for r in shard_results])
            assert [e.is_outlier for e in expected] == \
                [r.is_outlier for r in shard_results]

    def test_degrade_policy_scores_late_points_and_marks_them(
            self, prototype, tenant_workload, baseline):
        # A deadline no real point can meet, with the degrade policy: every
        # point is still scored (full decision parity) but marked late.
        service = _serve(prototype, tenant_workload.detection,
                         n_shards=2, max_batch=64,
                         deadline=1e-6, deadline_policy="degrade")
        results = service.results()
        baseline_flags = {r.seq: r.is_outlier for r in baseline.results()}
        assert len(results) == len(tenant_workload.detection)
        assert all(r.scored for r in results)
        assert all(r.is_outlier == baseline_flags[r.seq] for r in results)
        degraded = [r for r in results if r.outcome == "degraded"]
        assert len(degraded) == len(results)
        assert service.stats()["robustness"]["degraded_points"] == \
            len(results)

    def test_deadline_config_is_validated(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(deadline=-1.0)
        with pytest.raises(ConfigurationError):
            ServiceConfig(deadline_policy="panic")
        with pytest.raises(ConfigurationError):
            ServiceConfig(full_policy="timeout")  # needs put_timeout


# --------------------------------------------------------------------- #
# Checkpoint corruption fallback + injected write failures
# --------------------------------------------------------------------- #
def _checkpointed_service(prototype, points, directory, *, splits=(100, 200)):
    """Serve ``points`` with a checkpoint at every split position."""
    service = DetectionService.from_prototype(
        prototype, ServiceConfig(n_shards=2, max_batch=64))
    service.start()
    previous = 0
    for split in splits:
        service.submit_tagged(points[previous:split])
        service.checkpoint(directory)
        previous = split
    service.stop()
    return service


class TestCheckpointCorruption:
    def test_truncated_manifest_falls_back_to_previous_generation(
            self, prototype, tenant_workload, tmp_path):
        directory = tmp_path / "ckpt"
        _checkpointed_service(prototype, tenant_workload.detection, directory)
        (directory / "manifest.json").write_text('{"format_version": 1, "n_sh')
        manager = CheckpointManager(directory)
        with pytest.raises(CheckpointCorruptionError):
            manager.manifest()
        manifest, detectors = manager.load_fleet()
        assert manifest["points_submitted"] == 100  # the previous generation
        assert len(detectors) == 2
        restored = DetectionService.restore(directory)
        assert restored.points_submitted == 100

    def test_corrupted_shard_file_falls_back_to_previous_generation(
            self, prototype, tenant_workload, tmp_path):
        directory = tmp_path / "ckpt"
        _checkpointed_service(prototype, tenant_workload.detection, directory)
        manifest = CheckpointManager(directory).manifest()
        victim = directory / manifest["shards"][0]["file"]
        victim.write_bytes(victim.read_bytes()[:40])
        fallback, detectors = CheckpointManager(directory).load_fleet()
        assert fallback["points_submitted"] == 100
        assert all(d.is_fitted for d in detectors)

    def test_both_generations_broken_raises_typed_error(
            self, prototype, tenant_workload, tmp_path):
        directory = tmp_path / "ckpt"
        _checkpointed_service(prototype, tenant_workload.detection, directory)
        (directory / "manifest.json").write_text("not json")
        (directory / "manifest-prev.json").write_text("also not json")
        with pytest.raises(CheckpointCorruptionError, match="latest failed"):
            CheckpointManager(directory).load_fleet()

    def test_corruption_error_is_a_serialization_error(self):
        assert issubclass(CheckpointCorruptionError, SerializationError)

    def test_missing_shard_file_is_reported_as_corruption(
            self, prototype, tenant_workload, tmp_path):
        directory = tmp_path / "ckpt"
        service = DetectionService.from_prototype(
            prototype, ServiceConfig(n_shards=2, max_batch=64))
        service.start()
        service.submit_tagged(tenant_workload.detection[:80])
        service.checkpoint(directory)
        service.stop()
        manifest = CheckpointManager(directory).manifest()
        (directory / manifest["shards"][1]["file"]).unlink()
        with pytest.raises(CheckpointCorruptionError, match="missing"):
            CheckpointManager(directory).load_detectors()

    def test_injected_checkpoint_write_failure_is_absorbed(
            self, prototype, tenant_workload, tmp_path):
        directory = tmp_path / "ckpt"
        plan = FaultPlan(checkpoint_failures=(2,))
        service = DetectionService.from_prototype(prototype, ServiceConfig(
            n_shards=2, max_batch=64, supervise=True, fault_plan=plan))
        service.start()
        service.submit_tagged(tenant_workload.detection[:100])
        assert service.checkpoint(directory) is not None  # save 1 lands
        service.submit_tagged(tenant_workload.detection[100:200])
        assert service.checkpoint(directory) is None      # save 2 torn
        stats = service.stats()["robustness"]
        assert stats["checkpoint_write_failures"] == 1
        # The on-disk checkpoint is still the complete first generation.
        manifest = CheckpointManager(directory).manifest()
        assert manifest["points_submitted"] == 100
        # Serving continues, and the next save lands normally.
        service.submit_tagged(tenant_workload.detection[200:250])
        assert service.checkpoint(directory) is not None
        assert CheckpointManager(directory).manifest()[
            "points_submitted"] == 250
        service.stop()

    def test_crash_after_failed_checkpoint_still_recovers(
            self, prototype, tenant_workload, baseline, tmp_path):
        # The failed save must not advance the supervisor's snapshots: a
        # crash right after it replays from the older snapshot + journal
        # and still reaches decision parity.
        plan = FaultPlan(crash_points=(350,), checkpoint_failures=(1,),
                         seed=9)
        service = DetectionService.from_prototype(prototype, ServiceConfig(
            n_shards=2, max_batch=64, supervise=True, fault_plan=plan))
        service.start()
        service.submit_tagged(tenant_workload.detection[:300])
        assert service.checkpoint(tmp_path / "torn") is None  # injected
        service.submit_tagged(tenant_workload.detection[300:])
        service.drain()
        service.stop()
        _assert_parity(service, baseline, len(tenant_workload.detection))
        robustness = service.stats()["robustness"]
        assert robustness["restarts"] == 1
        assert robustness["checkpoint_write_failures"] == 1


# --------------------------------------------------------------------- #
# Crash recovery composes with periodic checkpointing
# --------------------------------------------------------------------- #
class TestRecoveryWithCheckpoints:
    def test_crash_after_a_checkpoint_replays_only_the_journal(
            self, prototype, tenant_workload, baseline, tmp_path):
        plan = FaultPlan(crash_points=(700,), seed=17)
        service = DetectionService.from_prototype(prototype, ServiceConfig(
            n_shards=2, max_batch=64, supervise=True, fault_plan=plan,
            checkpoint_every=400, checkpoint_dir=str(tmp_path / "auto")))
        service.start()
        service.submit_tagged(tenant_workload.detection)
        service.drain()
        service.stop()
        _assert_parity(service, baseline, len(tenant_workload.detection))
        assert service.checkpoints_taken >= 1
        assert service.stats()["robustness"]["restarts"] == 1

    def test_checkpoint_taken_after_recovery_restores_cleanly(
            self, prototype, tenant_workload, tmp_path):
        directory = tmp_path / "post-crash"
        plan = FaultPlan(crash_points=(300,), seed=23)
        service = DetectionService.from_prototype(prototype, ServiceConfig(
            n_shards=2, max_batch=64, supervise=True, fault_plan=plan))
        service.start()
        service.submit_tagged(tenant_workload.detection[:500])
        service.checkpoint(directory)
        service.stop()
        assert service.stats()["robustness"]["restarts"] == 1
        restored = DetectionService.restore(directory)
        assert restored.points_submitted == 500
        restored.start()
        restored.submit_tagged(tenant_workload.detection[500:])
        restored.drain()
        restored.stop()
        # The resumed run matches an uninterrupted fault-free service.
        reference = _serve(prototype, tenant_workload.detection,
                           n_shards=2, max_batch=64)
        tail_flags = {r.seq: r.is_outlier for r in reference.results()}
        for result in restored.results():
            assert result.is_outlier == tail_flags[result.seq]
