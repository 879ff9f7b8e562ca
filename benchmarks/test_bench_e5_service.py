"""Benchmark E5 — the sharded multi-tenant detection service.

The serving layer exists to exploit the vectorized engine's batch economics:
arrivals from many tenants are hash-routed to detector shards and coalesced
into large ``process_batch`` calls.  This benchmark pushes one multiplexed
workload through the three serving shapes (offline partitioned reference,
naive per-arrival single shard, sharded micro-batched service) and asserts
the two properties the serving layer is accountable for:

* **Parity** — the sharded service's per-point decisions are identical to
  independent detectors fed the router's partitions directly (stable routing
  + FIFO queues + the prefix-commit batch contract make batching invisible).
* **Speedup** — the micro-batched service beats per-arrival serving
  decisively.  The committed ``BENCH_service.json`` (regenerated with
  ``spot-demo bench service``) records the full-size
  numbers; the assertion here uses a 2x floor so single-core CI runners
  cannot flake the suite (observed margins are an order of magnitude wider).

Sizes are trimmed relative to the ``spot-demo serve`` defaults so the tier-1
run stays fast.
"""

from repro.eval.experiments import experiment_e5_service


def test_bench_e5_service(experiment_runner):
    report = experiment_runner(
        experiment_e5_service,
        n_tenants=4,
        dimensions=8,
        n_detection_per_tenant=400,
        n_shards=4,
        max_batch=256,
    )
    rows = {row["variant"]: row for row in report.rows}
    service_row = rows["sharded-service"]
    naive_row = rows["single-shard-serving"]
    assert service_row["points"] == naive_row["points"]
    # Sharding + micro-batching must not change a single decision...
    assert service_row["decisions_match_reference"] is True
    # ...while beating per-arrival serving decisively.
    assert service_row["speedup"] >= 2.0, (
        f"sharded service only {service_row['speedup']}x faster than "
        f"per-arrival serving"
    )
    # Coalescing actually happened (the speedup must come from batching,
    # not from measurement noise).
    assert service_row["mean_batch_size"] > 4.0
