"""Benchmark L1 — learning-stage throughput of the two objective engines.

PRs 1-2 made detection fast; the learning half of SPOT (whole-batch MOGA,
per-outlier online MOGA, CS self-evolution) used to evaluate every candidate
subspace with per-point Python loops.  This benchmark runs the E4-style
learning workload through the reference objectives and the
population-vectorized batch objectives and asserts that

* both engines build the **identical** SST (learning's analogue of T1's
  ``flags_agree`` — exact objective parity is enforced per float in
  ``tests/test_moga_parity.py``), and
* the vectorized learning path is decisively faster.  The committed
  ``BENCH_learning.json`` (regenerated with ``spot-demo bench learning``)
  records well above the 5x acceptance floor on the full 10-d/20k workload;
  the assertion here uses a 2x floor on trimmed sizes so shared-CI jitter
  cannot flake the suite.
"""

from repro.eval.experiments import experiment_l1_learning


def test_bench_l1_learning(experiment_runner):
    report = experiment_runner(
        experiment_l1_learning,
        n_training=300,
        n_detection=1500,
        n_recent=600,
        n_outlier_searches=6,
        n_evolution_rounds=3,
    )
    rows = {row["engine"]: row for row in report.rows}
    assert set(rows) == {"python", "vectorized"}
    vec = rows["vectorized"]
    # Identical learning decisions out of both engines...
    assert vec["sst_identical"] is True
    assert rows["python"]["objective_memo_entries"] == \
        vec["objective_memo_entries"]
    # ...and a decisive speedup on every learning stage.
    assert vec["learn_speedup"] >= 2.0, (
        f"vectorized learn() only {vec['learn_speedup']}x faster")
    assert vec["online_moga_speedup"] >= 2.0, (
        f"vectorized online MOGA only {vec['online_moga_speedup']}x faster")
    assert vec["combined_speedup"] >= 2.0, (
        f"vectorized learning path only {vec['combined_speedup']}x faster")
