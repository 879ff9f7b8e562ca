"""Benchmark L2 — the learning service (online MOGA off the hot path).

The asynchronous learning service exists to buy one number: the detection
path's tail latency with online learning enabled.  Inline mode charges every
per-outlier OS-growth search and every CS self-evolution round to the
``process_batch`` call that triggered it, so the scoring calls around a
trigger inherit the whole MOGA bill; deferred mode moves those searches to
the coordinator pool and applies the published SSTs at deterministic apply
points.  This benchmark pushes one multi-tenant workload through both modes
and asserts the two properties the subsystem is accountable for:

* **Parity** — decisions and final SSTs are identical across modes and
  worker counts (requests capture the reservoir snapshot and the search
  randomness at the trigger position, so evaluation placement cannot change
  outcomes).
* **Hot-path relief** — detection-path p95 latency under ``async`` is well
  below the inline baseline.  The committed ``BENCH_learning_service.json``
  (regenerated with ``spot-demo bench learning-service``) records the
  full-size numbers; the assertion here uses a 2x floor so single-core CI
  runners cannot flake the suite (observed margins are several times
  wider).

Sizes are trimmed relative to the CLI defaults so the tier-1 run stays fast.
"""

from repro.eval.experiments import experiment_l2_learning_service


def test_bench_l2_learning_service(experiment_runner):
    report = experiment_runner(
        experiment_l2_learning_service,
        n_tenants=4,
        dimensions=8,
        n_detection_per_tenant=300,
        n_shards=2,
        learning_workers=2,
        self_evolution_period=150,
        relearn_period=260,
    )
    rows = {row["variant"]: row for row in report.rows}
    sync_row = rows["sync-inline"]
    async_rows = [rows["async-1"], rows["async-2"]]
    # Online learning actually fired — otherwise the comparison is vacuous.
    assert sync_row["searches"] + sync_row["evolutions"] \
        + sync_row["relearns"] > 0
    for row in async_rows:
        # Moving the searches off the hot path must not change one decision.
        assert row["decisions_match_sync"] is True
        assert row["sst_identical"] is True
        assert row["searches"] == sync_row["searches"]
        assert row["evolutions"] == sync_row["evolutions"]
        assert row["relearns"] == sync_row["relearns"]
        # ...while decisively relieving the detection path's tail.
        assert row["path_p95_speedup"] >= 2.0, (
            f"{row['variant']}: detection-path p95 only "
            f"{row['path_p95_speedup']}x below the inline baseline"
        )
