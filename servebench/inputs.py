"""Seeded inputs of the served-path benchmark.

Every input is a pure function of the seed and the workload's shape, built
with numpy alone: the program under test receives the generated points and
nothing else, so a change to its own stream generators cannot change what
the benchmark measures.

Normal traffic is a mixture of ``N_CLUSTERS`` Gaussian clusters (standard
deviation ``SPREAD``) on the attributes of the planted 2-d subspaces; every
other attribute is uniform noise on [0.05, 0.95], shared by all clusters.
Inside each planted subspace ``(a, b)`` every centre sits on one of two
levels per attribute, and the clusters occupy three of the four level
combinations: ``(LO, LO)``, ``(HI, HI)`` and ``(LO, HI)``.  The fourth
quadrant, ``(HI, LO)``, holds no cluster.  A planted outlier is a normal
point whose ``(a, b)`` coordinates are moved into that quadrant, each drawn
from a populated level, so each of its 1-d marginals looks normal and only
the pair is anomalous: a projected outlier in the paper's sense.  Because the noise attributes are shared by all
clusters, no other 2-d projection of an outlier is empty.  The planted
subspaces use disjoint attributes.

Tenants draw clusters with their own Dirichlet weights, so shards serving
different tenant sets see different mixtures, while the empty quadrant stays
empty for all of them.

The mixture itself (planted subspaces, cluster levels, tenant weights), the
training batch and the labelled examples are fixed by the workload's shape:
every run learns the same template from the same history, so set-up does the
same work and serving meets the same template in every run.  The seed draws
the stream (points, tenants, planted outliers) and its arrival schedule, so
runs with different seeds serve different points from one distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

N_CLUSTERS = 4
SPREAD = 0.04
LO, HI = 0.35, 0.65
#: Level combination of each cluster in every planted subspace; (HI, LO)
#: is left empty for the outliers.
OCCUPIED = ((LO, LO), (HI, HI), (LO, HI), (HI, HI))
OUTLIER_LEVELS = (HI, LO)


@dataclass(frozen=True)
class Shape:
    """What a workload's input looks like (independent of the seed)."""

    dims: int
    tenants: int
    planted: int
    #: Share of stream points turned into planted outliers (all subspaces).
    outlier_rate: float
    training: int
    examples_per_subspace: int


@dataclass(frozen=True)
class Inputs:
    """One workload's generated input."""

    shape: Shape
    tenants: Tuple[str, ...]
    subspaces: Tuple[Tuple[int, int], ...]
    #: Normal training batch of the learning stage.
    training: np.ndarray
    #: Labelled projected outliers for supervised OS learning.
    examples: np.ndarray
    #: Stream points, their tenant index and planted-outlier label.
    points: np.ndarray
    tenant_idx: np.ndarray
    labels: np.ndarray


class _Mixture:
    """Cluster centres, tenant weights and planted subspaces of a shape."""

    def __init__(self, rng: np.random.Generator, shape: Shape) -> None:
        dims = shape.dims
        if 2 * shape.planted > dims:
            raise ValueError("planted subspaces need two attributes each")
        attrs = rng.permutation(dims)[:2 * shape.planted]
        self.subspaces = tuple(
            tuple(sorted((int(attrs[2 * k]), int(attrs[2 * k + 1]))))
            for k in range(shape.planted))
        self.structured = np.sort(attrs)
        self.centers = np.zeros((N_CLUSTERS, dims))
        for a, b in self.subspaces:
            order = rng.permutation(N_CLUSTERS)
            for cluster, combo in zip(order, OCCUPIED):
                self.centers[cluster, a], self.centers[cluster, b] = combo
        self.weights = rng.dirichlet(np.full(N_CLUSTERS, 4.0),
                                     size=shape.tenants)

    def normal(self, rng: np.random.Generator,
               tenant_idx: np.ndarray) -> np.ndarray:
        u = rng.random(len(tenant_idx))
        cdf = np.cumsum(self.weights[tenant_idx], axis=1)
        cluster = np.minimum((u[:, None] > cdf).sum(axis=1), N_CLUSTERS - 1)
        X = rng.uniform(0.05, 0.95,
                        size=(len(tenant_idx), self.centers.shape[1]))
        cols = self.structured
        X[:, cols] = self.centers[cluster][:, cols] + rng.normal(
            0.0, SPREAD, size=(len(tenant_idx), len(cols)))
        return X

    def plant(self, rng: np.random.Generator, X: np.ndarray,
              rows: np.ndarray, which: np.ndarray) -> None:
        """Move ``X[rows[i]]`` into the empty quadrant of planted subspace
        ``which[i]``."""
        noise = rng.normal(0.0, SPREAD, size=(len(rows), 2))
        for k, (a, b) in enumerate(self.subspaces):
            sel = which == k
            X[rows[sel], a] = OUTLIER_LEVELS[0] + noise[sel, 0]
            X[rows[sel], b] = OUTLIER_LEVELS[1] + noise[sel, 1]


def make_inputs(seed: int, shape: Shape, n_points: int) -> Inputs:
    """The workload input for ``seed``: same seed, same arrays.

    Only the stream depends on the seed (see the module docstring).
    """
    mix_rng, train_rng, example_rng = (
        np.random.default_rng(s) for s in np.random.SeedSequence(
            [shape.dims, shape.planted, shape.tenants]).spawn(3))
    mixture = _Mixture(mix_rng, shape)
    stream_rng = np.random.default_rng(
        np.random.SeedSequence([seed, shape.dims]))

    train_tenants = np.arange(shape.training) % shape.tenants
    training = mixture.normal(train_rng, train_tenants)

    n_examples = shape.examples_per_subspace * shape.planted
    example_tenants = example_rng.integers(0, shape.tenants, size=n_examples)
    examples = mixture.normal(example_rng, example_tenants)
    # Examples cover every planted subspace equally.
    mixture.plant(example_rng, examples, np.arange(n_examples),
                  np.repeat(np.arange(shape.planted),
                            shape.examples_per_subspace))

    tenant_idx = stream_rng.integers(0, shape.tenants, size=n_points)
    points = mixture.normal(stream_rng, tenant_idx)
    labels = stream_rng.random(n_points) < shape.outlier_rate
    rows = np.flatnonzero(labels)
    mixture.plant(stream_rng, points, rows,
                  stream_rng.integers(0, shape.planted, size=len(rows)))

    return Inputs(
        shape=shape,
        tenants=tuple(f"tenant-{i:02d}" for i in range(shape.tenants)),
        subspaces=mixture.subspaces,
        training=training,
        examples=examples,
        points=points,
        tenant_idx=tenant_idx,
        labels=labels,
    )


def poisson_schedule(seed: int, rate: float, seconds: float) -> np.ndarray:
    """Due offsets (seconds from the start) of Poisson arrivals at ``rate``.

    Every arrival due before ``seconds`` is included, so the count itself is
    seeded.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5CED]))
    expected = int(rate * seconds)
    gaps = rng.exponential(1.0 / rate,
                           size=expected + 10 * int(expected ** 0.5) + 100)
    due = np.cumsum(gaps)
    return due[due < seconds]
