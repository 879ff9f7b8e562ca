"""Tests of the served-path benchmark itself: inputs, checks and helpers."""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro import SPOT, SPOTConfig
from repro.service import DetectionService, ServiceConfig

from servebench import checks
from servebench.bench import TRACED_UNITS, UNITS
from servebench.inputs import Shape, make_inputs, poisson_schedule
from servebench.measure import (
    peak_rss_mb,
    percentile,
    process_cpu_seconds,
    samples_beyond,
)
from servebench.tracing import LAYER_UNITS, Recorder, point_stages
from servebench.workloads import DETECTOR, WORKLOADS, as_rows

BENCH_DIR = Path(__file__).resolve().parent
TINY = Shape(dims=6, tenants=4, planted=2, outlier_rate=0.004, training=400,
             examples_per_subspace=4)


def _same(a, b) -> bool:
    return all(np.array_equal(getattr(a, f), getattr(b, f))
               for f in ("training", "examples", "points", "tenant_idx",
                         "labels"))


class TestInputs:
    def test_same_seed_same_inputs_and_schedule(self):
        assert _same(make_inputs(3, TINY, 500), make_inputs(3, TINY, 500))
        assert np.array_equal(poisson_schedule(3, 500.0, 2.0),
                              poisson_schedule(3, 500.0, 2.0))

    def test_other_seed_other_inputs_and_schedule(self):
        one, two = make_inputs(3, TINY, 500), make_inputs(4, TINY, 500)
        assert not np.array_equal(one.points, two.points)
        assert not np.array_equal(one.labels, two.labels)
        # The learning stage's history is part of the workload, not the seed.
        assert np.array_equal(one.training, two.training)
        assert not np.array_equal(poisson_schedule(3, 500.0, 2.0)[:50],
                                  poisson_schedule(4, 500.0, 2.0)[:50])

    def test_outliers_sit_in_the_empty_quadrant(self):
        inputs = make_inputs(5, TINY, 4000)
        assert inputs.labels.any()
        for a, b in inputs.subspaces:
            normal = inputs.points[~inputs.labels]
            assert not np.any((normal[:, a] > 0.5) & (normal[:, b] < 0.5))
        planted = inputs.points[inputs.labels]
        assert all(any(p[a] > 0.5 and p[b] < 0.5 for a, b in inputs.subspaces)
                   for p in planted)

    def test_schedule_rate(self):
        due = poisson_schedule(1, 1000.0, 5.0)
        assert abs(len(due) - 5000) < 5 * 5000 ** 0.5
        assert np.all(np.diff(due) > 0) and due[-1] < 5.0


class TestHelpers:
    def test_samples_beyond(self):
        values = list(range(1000))
        p99 = percentile(values, 99)
        assert samples_beyond(1000, 99) == sum(v > p99 for v in values)

    def test_cpu_seconds_match_process_time(self):
        before, direct = process_cpu_seconds(), time.process_time()
        deadline = time.process_time() + 0.3
        while time.process_time() < deadline:
            pass
        # os.times() counts in clock ticks (10 ms).
        assert process_cpu_seconds() - before == pytest.approx(
            time.process_time() - direct, abs=0.03)

    def test_peak_rss_matches_proc(self):
        block = np.ones(32 * 2 ** 20 // 8)
        with open("/proc/self/status", encoding="ascii") as handle:
            hwm = next(int(line.split()[1]) for line in handle
                       if line.startswith("VmHWM:"))
        assert peak_rss_mb() == pytest.approx(hwm / 1024.0, abs=2.0)
        del block

    def test_point_stages(self):
        rec = Recorder()
        rec.enqueued, rec.taken = {0: 1.5}, {0: 2.0}
        rec.engine_start, rec.engine_end = {0: 2.25}, {0: 3.0}
        rec.delivered = {0: (3.5, 4.5)}
        stages, totals, problems = point_stages(rec, [1.0], [1.25], {0: 2.5})
        assert not problems
        assert totals == [3.0]
        assert [v[0] for v in stages.values()] == [0.25, 0.25, 0.5, 0.25,
                                                   0.75, 1.0]

    def test_point_stages_reject_out_of_order_stamps(self):
        rec = Recorder()
        rec.enqueued, rec.taken = {0: 1.5}, {0: 1.0}
        rec.engine_start, rec.engine_end = {0: 2.25}, {0: 3.0}
        rec.delivered = {0: (3.5, 4.5)}
        problems = point_stages(rec, [1.0], [1.25], {0: 2.5})[2]
        assert any("negative stage queue_wait" in p for p in problems)

    def test_point_stages_reject_delivery_outside_its_call(self):
        rec = Recorder()
        rec.enqueued, rec.taken = {0: 1.5}, {0: 2.0}
        rec.engine_start, rec.engine_end = {0: 2.25}, {0: 3.0}
        rec.delivered = {0: (4.25, 4.5)}
        problems = point_stages(rec, [1.0], [1.25], {0: 2.5})[2]
        assert any("outside its delivery call" in p for p in problems)


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """A tiny real run: results of a 2-shard fleet that checkpoints every
    1,000 points, plus what was sent."""
    inputs = make_inputs(11, TINY, 3000)
    config = SPOTConfig(**dict(DETECTOR, moga_population=12,
                               moga_generations=5))
    prototype = SPOT(config).learn(as_rows(inputs.training),
                                   outlier_examples=as_rows(inputs.examples))
    rows = as_rows(inputs.points)
    streams = [inputs.tenants[t] for t in inputs.tenant_idx.tolist()]
    checkpoints = tmp_path_factory.mktemp("checkpoints")
    service = DetectionService.from_prototype(
        prototype, ServiceConfig(n_shards=2, checkpoint_every=1000,
                                 checkpoint_dir=str(checkpoints))).start()
    for stream, row in zip(streams, rows):
        service.submit(stream, row)
    service.drain()
    results = service.results()
    service.stop()
    reference = checks.reference_detector(
        prototype, as_rows(inputs.training),
        tmp_path_factory.mktemp("oracle"))
    return dict(prototype=prototype, reference=reference, rows=rows,
                streams=streams, labels=inputs.labels.tolist(),
                results=results, checkpoints=checkpoints)


def _flip(result):
    return dataclasses.replace(result, result=dataclasses.replace(
        result.result, is_outlier=not result.result.is_outlier))


class TestChecks:
    def test_real_run_passes_every_check(self, served):
        results, rows = served["results"], served["rows"]
        assert checks.check_complete(results, len(rows),
                                     served["streams"]) == ([], 0)
        problems, replayed, _ = checks.check_parity(
            served["prototype"], results, rows, 512)
        assert problems == [] and replayed == len(rows)
        problems, compared, flagged = checks.check_oracle(
            served["reference"], results, rows, len(rows))
        assert problems == [] and compared == len(rows) and flagged > 0
        problems, recall, _ = checks.check_quality(
            results, served["labels"], TINY.outlier_rate, 0.02)
        assert problems == [] and recall >= checks.RECALL_FLOOR

    def test_flipped_flag_is_rejected(self, served):
        results = list(served["results"])
        results[100] = _flip(results[100])
        problems, _, _ = checks.check_parity(
            served["prototype"], results, served["rows"], 512)
        assert any("flag differs" in p for p in problems)

    def test_flipped_flag_is_rejected_by_the_engine_oracle(self, served):
        results = list(served["results"])
        results[100] = _flip(results[100])
        problems, _, _ = checks.check_oracle(
            served["reference"], results, served["rows"], 1000)
        assert any("engine oracle: flag differs" in p for p in problems)

    def test_dropped_result_is_rejected(self, served):
        results = list(served["results"])
        del results[57]
        problems, failed = checks.check_complete(
            results, len(served["rows"]), served["streams"])
        assert problems and failed == 1

    def test_reordered_tenant_is_rejected(self, served):
        results = list(served["results"])
        tenant = results[0].stream_id
        first, second = [k for k, r in enumerate(results)
                         if r.stream_id == tenant][:2]
        a, b = results[first], results[second]
        results[first] = dataclasses.replace(a, seq=b.seq)
        results[second] = dataclasses.replace(b, seq=a.seq)
        problems, _ = checks.check_complete(results, len(served["rows"]),
                                            served["streams"])
        assert any("detector index" in p for p in problems)

    def test_recall_below_floor_is_rejected(self, served):
        results = [_flip(r) if r.is_outlier and served["labels"][r.seq]
                   else r for r in served["results"]]
        problems, recall, _ = checks.check_quality(
            results, served["labels"], TINY.outlier_rate, 0.02)
        assert recall < checks.RECALL_FLOOR and problems

    def test_flagged_share_above_ceiling_is_rejected(self, served):
        results = [r if r.is_outlier else _flip(r)
                   for r in served["results"]]
        problems, _, share = checks.check_quality(
            results, served["labels"], TINY.outlier_rate, 0.02)
        assert share == 1.0 and problems

    def test_restore_replays_the_live_decisions(self, served):
        assert checks.check_restore(served["checkpoints"], served["results"],
                                    served["rows"], served["streams"]) == []

    def test_flipped_flag_after_the_last_checkpoint_is_rejected(self,
                                                              served):
        results = list(served["results"])
        results[-1] = _flip(results[-1])
        problems = checks.check_restore(served["checkpoints"], results,
                                        served["rows"], served["streams"])
        assert any("flag differs" in p for p in problems)

    def test_learning_and_checkpoint_counts(self):
        stats = {"kinds": {"os_growth": 2, "self_evolution": 1}}
        assert checks.check_learning(stats, 3, 3) == []
        assert checks.check_learning({"kinds": {"os_growth": 2}}, 3, 3)
        assert checks.check_learning(stats, 2, 3)
        assert checks.expected_checkpoints(1000, 250) == 3
        assert checks.expected_checkpoints(1001, 250) == 4


class TestCommand:
    def test_exits_without_result_when_sources_are_missing(self, tmp_path):
        shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ)
        env.pop("PYTHONPATH", None)
        done = subprocess.run(
            [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload",
             "open-10d", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp_path, env=env, capture_output=True, text=True,
            timeout=60)
        assert done.returncode != 0
        assert not done.stdout.strip()

    def test_metrics_and_workloads_match_the_benchmark_file(self):
        spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
        assert spec["paths"] == [BENCH_DIR.name]
        # open-10d stays runnable but is left out as unsteady (README).
        assert [w["name"] for w in spec["workloads"]] == [
            name for name in WORKLOADS if name != "open-10d"]
        assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == UNITS
        traced = {f"traced.{name}": unit
                  for name, unit in TRACED_UNITS.items()}
        assert {m["name"]: m["unit"] for m in spec["per_layer"]} == dict(
            LAYER_UNITS, **traced)
