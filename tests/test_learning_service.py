"""Tests for the asynchronous learning service.

The acceptance property of the subsystem is *decision parity*: a service
running ``learning_mode="async"`` — online MOGA searches evaluated on the
coordinator's worker pool and published back at deterministic apply points —
must replay a seeded multi-tenant workload with exactly the decisions and
final SSTs of the synchronous baseline, at any worker count, and across a
checkpoint/restore taken with a learn request still in flight.
"""

import json

import pytest

from repro import SPOT
from repro.core.exceptions import ConfigurationError
from repro.eval.experiments import t1_bench_config
from repro.eval.workloads import multi_tenant_workload
from repro.learning.requests import (
    EvolutionRequest,
    GrowthRequest,
    LearnPublication,
    RelearnRequest,
    ReservoirSnapshot,
    request_from_dict,
)
from repro.moga import (
    BatchSparsityObjectives,
    ObjectiveMemo,
    SparsityObjectives,
)
from repro.core.grid import DomainBounds, Grid
from repro.core.subspace import Subspace
from repro.service import (
    CheckpointManager,
    DetectionService,
    LearningCoordinator,
    ServiceConfig,
)


def _online_config(**overrides):
    settings = dict(engine="vectorized", omega=200, os_growth_enabled=True,
                    self_evolution_period=150, moga_generations=4,
                    moga_population=12)
    settings.update(overrides)
    return t1_bench_config(**settings)


@pytest.fixture(scope="module")
def tenant_workload():
    """A small multiplexed workload with enough outliers to trigger growth."""
    return multi_tenant_workload(n_tenants=4, dimensions=8,
                                 n_training_per_tenant=60,
                                 n_detection_per_tenant=250, seed=19)


@pytest.fixture(scope="module")
def prototype(tenant_workload):
    """One learned prototype with every online learning trigger armed."""
    detector = SPOT(_online_config())
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


def _flags(service):
    return [r.is_outlier for r in service.results()]


def _ssts(service):
    return [d.sst.to_dict() for d in service.shard_detectors()]


# --------------------------------------------------------------------- #
# Request / publication protocol
# --------------------------------------------------------------------- #
class TestRequestProtocol:
    def _snapshot(self):
        return ReservoirSnapshot(version=42,
                                 points=((0.0, 1.0), (2.0, 3.0)) * 6)

    def test_growth_request_round_trips_through_json(self):
        request = GrowthRequest(
            request_id="os_growth-3", position=17, outlier=(1.0, 2.0),
            seed=5003, top_k=2, population_size=10, generations=5,
            mutation_rate=0.05, crossover_rate=0.9, max_dimension=4,
            engine="vectorized", snapshot=self._snapshot())
        rebuilt = request_from_dict(json.loads(json.dumps(request.to_dict())))
        assert rebuilt == request

    def test_evolution_request_round_trips_through_json(self):
        request = EvolutionRequest(
            request_id="self_evolution-1", position=150,
            incumbents=(Subspace((0,)), Subspace((1,))),
            candidates=(Subspace((0, 1)),), capacity=15,
            engine="vectorized", snapshot=self._snapshot())
        rebuilt = request_from_dict(json.loads(json.dumps(request.to_dict())))
        assert rebuilt == request

    def test_relearn_request_round_trips_through_json(self):
        request = RelearnRequest(
            request_id="relearn-2", position=300,
            incumbents=(Subspace((0,)),), seed=9002, capacity=15,
            population_size=20, generations=8, mutation_rate=0.05,
            crossover_rate=0.9, max_dimension=4, engine="python",
            snapshot=self._snapshot())
        rebuilt = request_from_dict(json.loads(json.dumps(request.to_dict())))
        assert rebuilt == request

    def test_unknown_kind_is_rejected(self):
        from repro.core.exceptions import SerializationError

        with pytest.raises(SerializationError):
            request_from_dict({"kind": "mystery"})


# --------------------------------------------------------------------- #
# Objective memo (subspace, reservoir-version) and shared contexts
# --------------------------------------------------------------------- #
def _toy_grid(phi=3, m=4):
    return Grid(bounds=DomainBounds(lows=(0.0,) * phi, highs=(1.0,) * phi),
                cells_per_dimension=m)


def _toy_batch(n=60, phi=3, seed=5):
    import random

    rng = random.Random(seed)
    return [tuple(rng.random() for _ in range(phi)) for _ in range(n)]


class TestObjectiveMemo:
    def test_second_search_on_same_version_hits(self):
        grid, batch = _toy_grid(), _toy_batch()
        memo = ObjectiveMemo()
        subspaces = [Subspace((0,)), Subspace((1, 2)), Subspace((0, 2))]
        first = BatchSparsityObjectives(batch, grid, memo=memo.view(7))
        vectors = first.evaluate_population(subspaces)
        assert memo.stats()["hits"] == 0
        assert memo.stats()["misses"] == len(subspaces)
        second = BatchSparsityObjectives(batch, grid, memo=memo.view(7))
        assert second.evaluate_population(subspaces) == vectors
        assert memo.stats()["hits"] == len(subspaces)
        assert second.evaluations == 0  # nothing was recomputed

    def test_version_change_clears_entries(self):
        grid, batch = _toy_grid(), _toy_batch()
        memo = ObjectiveMemo()
        BatchSparsityObjectives(batch, grid, memo=memo.view(1)).evaluate(
            Subspace((0,)))
        assert len(memo) == 1
        memo.view(2)
        assert len(memo) == 0

    def test_target_keys_partition_the_memo(self):
        grid, batch = _toy_grid(), _toy_batch()
        memo = ObjectiveMemo()
        target = [batch[0]]
        targeted = BatchSparsityObjectives(batch, grid, target_points=target,
                                           memo=memo.view(3, ("t",)))
        untargeted = BatchSparsityObjectives(batch, grid,
                                             memo=memo.view(3, None))
        subspace = Subspace((0, 1))
        assert targeted.evaluate(subspace) != untargeted.evaluate(subspace)
        assert memo.stats()["misses"] == 2  # no cross-target contamination

    def test_memo_values_are_bit_identical_across_engines(self):
        grid, batch = _toy_grid(), _toy_batch()
        memo = ObjectiveMemo()
        subspaces = [Subspace((0,)), Subspace((1, 2))]
        reference = SparsityObjectives(batch, grid)
        BatchSparsityObjectives(batch, grid,
                                memo=memo.view(1)).evaluate_population(
                                    subspaces)
        served_from_memo = SparsityObjectives(batch, grid, memo=memo.view(1))
        for subspace in subspaces:
            assert served_from_memo.evaluate(subspace) == \
                reference.evaluate(subspace)
        assert served_from_memo.evaluations == 0

    def test_detector_reports_memo_counters(self, prototype):
        footprint = prototype.memory_footprint()
        assert "objective_memo_hits" in footprint
        assert "objective_memo_misses" in footprint


# --------------------------------------------------------------------- #
# Deferred learning at the detector level
# --------------------------------------------------------------------- #
class TestDeferredDetector:
    def test_deferred_resolution_matches_inline_learning(self, tenant_workload):
        config = _online_config()
        inline = SPOT(config).learn(tenant_workload.training_values)
        points = [p.values for p in tenant_workload.detection[:500]]
        inline_results = inline.process_batch(points)

        deferred = SPOT(config).learn(tenant_workload.training_values)
        deferred.set_deferred_learning(True)
        results = []
        stops = 0
        while len(results) < len(points):
            chunk = deferred.process_batch(points[len(results):])
            results.extend(chunk)
            if deferred.pending_learn_requests:
                stops += 1
                deferred.resolve_pending_learns()
        assert stops > 0, "the workload never triggered a learn request"
        assert [r.is_outlier for r in results] == \
            [r.is_outlier for r in inline_results]
        assert [r.score for r in results] == \
            [r.score for r in inline_results]
        assert deferred.sst.to_dict() == inline.sst.to_dict()

    def test_processing_past_a_pending_request_is_rejected(self, tenant_workload):
        detector = SPOT(_online_config()).learn(tenant_workload.training_values)
        detector.set_deferred_learning(True)
        points = [p.values for p in tenant_workload.detection[:500]]
        done = 0
        while done < len(points) and not detector.pending_learn_requests:
            done += len(detector.process_batch(points[done:]))
        assert detector.pending_learn_requests
        with pytest.raises(ConfigurationError):
            detector.process(points[0])
        with pytest.raises(ConfigurationError):
            detector.process_batch(points)

    def test_out_of_order_publication_is_rejected(self, tenant_workload):
        detector = SPOT(_online_config()).learn(tenant_workload.training_values)
        detector.set_deferred_learning(True)
        points = [p.values for p in tenant_workload.detection[:500]]
        done = 0
        while done < len(points) and not detector.pending_learn_requests:
            done += len(detector.process_batch(points[done:]))
        request = detector.pending_learn_requests[0]
        wrong = LearnPublication(request_id="not-" + request.request_id,
                                 kind=request.kind, ranked=(), memory={})
        with pytest.raises(ConfigurationError):
            detector.apply_learn_publication(wrong)

    def test_pending_requests_survive_a_json_round_trip(self, tenant_workload):
        detector = SPOT(_online_config()).learn(tenant_workload.training_values)
        detector.set_deferred_learning(True)
        points = [p.values for p in tenant_workload.detection[:500]]
        done = 0
        while done < len(points) and not detector.pending_learn_requests:
            done += len(detector.process_batch(points[done:]))
        assert detector.pending_learn_requests
        state = json.loads(json.dumps(detector.export_state()))
        restored = SPOT.from_state(state)
        assert restored.learning_deferred
        assert restored.pending_learn_requests == \
            detector.pending_learn_requests


# --------------------------------------------------------------------- #
# The coordinator
# --------------------------------------------------------------------- #
class TestLearningCoordinator:
    def test_group_evaluation_matches_inline_evaluation(self, tenant_workload):
        detector = SPOT(_online_config()).learn(tenant_workload.training_values)
        detector.set_deferred_learning(True)
        points = [p.values for p in tenant_workload.detection[:500]]
        done = 0
        while done < len(points) and not detector.pending_learn_requests:
            done += len(detector.process_batch(points[done:]))
        requests = list(detector.pending_learn_requests)
        assert requests
        # A three-request group on the same snapshot, as a worker submits
        # every trigger of one apply point together.
        snapshot = requests[0].snapshot
        growths = [
            GrowthRequest(
                request_id=f"os_growth-group-{n}",
                position=requests[0].position, outlier=outlier,
                seed=7000 + n, top_k=2, population_size=12, generations=4,
                mutation_rate=0.05, crossover_rate=0.9, max_dimension=2,
                engine="vectorized", snapshot=snapshot)
            for n, outlier in enumerate(snapshot.points[:3])
        ]
        groups = [requests, growths]
        with LearningCoordinator(workers=2) as coord:
            tickets = [coord.submit(0, detector.grid, group)
                       for group in groups]
            published = [ticket.wait(timeout=120.0) for ticket in tickets]
        for group, publications in zip(groups, published):
            inline = [detector._learning_component_for(r.kind).evaluate(r)
                      for r in group]
            assert publications == inline

    def test_mixed_snapshot_versions_are_rejected(self):
        grid = _toy_grid(phi=2)
        batch = tuple(_toy_batch(n=12, phi=2))
        def growth(version, n):
            return GrowthRequest(
                request_id=f"os_growth-{n}", position=n,
                outlier=batch[0], seed=5000 + n, top_k=2,
                population_size=10, generations=5, mutation_rate=0.05,
                crossover_rate=0.9, max_dimension=2, engine="vectorized",
                snapshot=ReservoirSnapshot(version=version, points=batch))
        with LearningCoordinator() as coord:
            with pytest.raises(ConfigurationError):
                coord.submit(0, grid, [growth(1, 1), growth(2, 2)])

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            LearningCoordinator(workers=0)
        with pytest.raises(ConfigurationError):
            ServiceConfig(learning_mode="lazy")
        with pytest.raises(ConfigurationError):
            ServiceConfig(router="bogus")
        with pytest.raises(ConfigurationError):
            ServiceConfig(learning_workers=0)


# --------------------------------------------------------------------- #
# Async-vs-sync decision parity through the full service
# --------------------------------------------------------------------- #
class TestServiceLearningParity:
    def test_async_replay_is_decision_and_sst_identical(
            self, prototype, tenant_workload):
        points = tenant_workload.detection
        sync = _run_service(prototype, points, n_shards=4, max_batch=128)
        sync_flags, sync_ssts = _flags(sync), _ssts(sync)
        assert any(d._os_growth.searches or d._self_evolution.rounds
                   for d in sync.shard_detectors()), \
            "the workload never exercised online learning"
        for workers in (1, 4):
            replayed = _run_service(prototype, points, n_shards=4,
                                    max_batch=128, learning_mode="async",
                                    learning_workers=workers)
            assert _flags(replayed) == sync_flags
            assert _ssts(replayed) == sync_ssts

    def test_stats_report_learning_and_path_latency(
            self, prototype, tenant_workload):
        service = _run_service(prototype, tenant_workload.detection[:400],
                               n_shards=2, max_batch=128,
                               learning_mode="async", learning_workers=2)
        stats = service.stats()
        assert stats["learning_mode"] == "async"
        assert stats["learning"]["requests"] > 0
        busiest = max(stats["shards"], key=lambda s: s["points"])
        assert busiest["path_p99_ms"] >= busiest["path_p50_ms"] >= 0.0
        summary = service.latency_summary()
        assert summary["path_p95_ms"] >= 0.0
        assert summary["latency_p95_ms"] >= summary["path_p50_ms"]


# --------------------------------------------------------------------- #
# Checkpoint/restore with a learn request in flight
# --------------------------------------------------------------------- #
class TestMidFlightCheckpoint:
    @pytest.fixture(scope="class")
    def single_stream(self):
        """One tenant, so one shard sees an evolution boundary as its last point."""
        return multi_tenant_workload(n_tenants=1, dimensions=8,
                                     n_training_per_tenant=60,
                                     n_detection_per_tenant=400, seed=23)

    @pytest.fixture(scope="class")
    def stream_prototype(self, single_stream):
        detector = SPOT(_online_config())
        detector.learn(single_stream.training_values)
        return detector

    def test_checkpoint_with_queued_request_resumes_identically(
            self, stream_prototype, single_stream, tmp_path):
        points = list(single_stream.detection)
        period = stream_prototype.config.self_evolution_period
        # Stop exactly on the self-evolution boundary: the round's request is
        # emitted by the last submitted point, so it is queued — not applied —
        # when the service quiesces for the checkpoint.
        directory = tmp_path / "mid-flight"

        uninterrupted = _run_service(stream_prototype, points, n_shards=2,
                                     max_batch=64, learning_mode="async",
                                     learning_workers=2)
        expected_flags = _flags(uninterrupted)
        expected_ssts = _ssts(uninterrupted)

        first = DetectionService.from_prototype(
            stream_prototype, ServiceConfig(n_shards=2, max_batch=64,
                                            learning_mode="async",
                                            learning_workers=2))
        first.start()
        first.submit_tagged(points[:period])
        first.drain()
        pending = [len(d.pending_learn_requests)
                   for d in first.shard_detectors()]
        assert sum(pending) >= 1, "no learn request was in flight"
        first.checkpoint(directory)
        first.stop()

        manifest = CheckpointManager(directory).manifest()
        assert sum(entry["pending_learn_requests"]
                   for entry in manifest["shards"]) >= 1

        resumed = DetectionService.restore(
            directory, config=ServiceConfig(max_batch=64,
                                            learning_mode="async",
                                            learning_workers=2))
        assert any(d.pending_learn_requests
                   for d in resumed.shard_detectors())
        resumed.start()
        resumed.submit_tagged(points[period:])
        resumed.drain()
        resumed.stop()
        assert _flags(resumed) == expected_flags[period:]
        assert _ssts(resumed) == expected_ssts

    def test_async_checkpoint_restores_into_a_sync_service(
            self, stream_prototype, single_stream, tmp_path):
        points = list(single_stream.detection)
        period = stream_prototype.config.self_evolution_period
        directory = tmp_path / "cross-mode"

        uninterrupted = _run_service(stream_prototype, points, n_shards=2,
                                     max_batch=64)
        expected_flags = _flags(uninterrupted)

        first = DetectionService.from_prototype(
            stream_prototype, ServiceConfig(n_shards=2, max_batch=64,
                                            learning_mode="async",
                                            learning_workers=2))
        first.start()
        first.submit_tagged(points[:period])
        first.drain()
        first.checkpoint(directory)
        first.stop()

        # The pending request restored into a *sync* fleet is resolved inline
        # before the next point — the serving mode is operational, never
        # semantic.
        resumed = DetectionService.restore(
            directory, config=ServiceConfig(max_batch=64))
        resumed.start()
        resumed.submit_tagged(points[period:])
        resumed.drain()
        resumed.stop()
        assert _flags(resumed) == expected_flags[period:]
