"""Servebench's traced mode still finds every entry point it wraps.

``servebench/tracing.py`` patches the public entry points of each layer by
name (class attributes and the ``repro.service.learning`` module binding of
``evaluate_learn_request``).  A renamed entry point would only surface on
the next ``--trace 1`` run, so this test installs the recorder, drives a
learning coordinator through it, and takes it off again.
"""

from servebench.tracing import Recorder

from repro.core.grid import DomainBounds, Grid
from repro.learning.requests import GrowthRequest, ReservoirSnapshot
from repro.service import LearningCoordinator


def test_recorder_wraps_the_learning_entry_points():
    grid = Grid(bounds=DomainBounds(lows=(0.0, 0.0), highs=(1.0, 1.0)),
                cells_per_dimension=4)
    points = tuple((((7 * i) % 30) / 30.0, ((11 * i) % 30) / 30.0)
                   for i in range(30))
    snapshot = ReservoirSnapshot(version=3, points=points)
    requests = [
        GrowthRequest(
            request_id=f"os_growth-{n}", position=30, outlier=points[n],
            seed=5000 + n, top_k=2, population_size=8, generations=3,
            mutation_rate=0.05, crossover_rate=0.9, max_dimension=2,
            engine="vectorized", snapshot=snapshot)
        for n in range(2)
    ]
    recorder = Recorder()
    try:
        recorder.install()
        patches = list(recorder._patches)
        for owner, attr, original in patches:
            assert vars(owner)[attr] is not original
        recorder.on, recorder.phase = True, "serve"
        with LearningCoordinator(workers=1) as coordinator:
            coordinator.submit(0, grid, requests).wait(timeout=60.0)
    finally:
        recorder.uninstall()
    for owner, attr, original in patches:
        assert vars(owner)[attr] is original
    assert len(recorder.named("service.learning.submit")) == 1
    assert len(recorder.named("service.learning.wait")) == 1
    # The coordinator calls the module binding at call time, so every
    # evaluation shows up as a span.
    assert len(recorder.named("service.learning.evaluate")) == len(requests)
