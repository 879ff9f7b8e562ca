"""Synthetic high-dimensional streams with planted projected outliers.

The generator reproduces the data characteristic the paper builds on: in a
high-dimensional stream the *full-space* distribution looks unremarkable, but
a small fraction of points is anomalous when restricted to a low-dimensional
subspace.  Normal points are drawn from a mixture of Gaussian clusters that
fill the unit hypercube; projected outliers are normal points whose
coordinates in a designated low-dimensional subspace are moved into a region
that is empty in that projection (while every other coordinate stays
cluster-like, so the point does not stand out in the full space).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from ..core.exceptions import ConfigurationError
from ..core.subspace import Subspace
from .base import DataStream, StreamPoint


@dataclass(frozen=True)
class ClusterSpec:
    """One Gaussian cluster of the normal-traffic mixture."""

    center: Tuple[float, ...]
    spread: float
    weight: float


class GaussianStreamGenerator(DataStream):
    """Stream of Gaussian-mixture normal points with planted projected outliers.

    Parameters
    ----------
    dimensions:
        Dimensionality ``phi`` of the stream.
    n_points:
        Number of points the stream yields (finite stream).
    n_clusters:
        Number of Gaussian clusters forming the normal data.
    outlier_rate:
        Fraction of points turned into projected outliers.
    outlier_subspaces:
        The subspaces in which outliers are planted.  When ``None``, a set of
        ``n_outlier_subspaces`` random subspaces of dimension
        ``outlier_subspace_dim`` is drawn from the seed.
    outlier_subspace_dim:
        Dimension of the auto-generated outlier subspaces.
    n_outlier_subspaces:
        How many distinct outlying subspaces are used.
    cluster_spread:
        Standard deviation of each cluster along every attribute.
    outlier_margin:
        Minimum distance (in domain units) between an outlier's projected
        coordinates and every cluster centre's projection, guaranteeing the
        outlier lands in an empty region of the subspace.
    outlier_mode:
        How outliers are planted:

        * ``"combination"`` (default) — each outlying coordinate is borrowed
          from a *different* cluster's marginal distribution, so every 1-d
          marginal of the outlier looks perfectly normal and only the joint
          combination within the outlying subspace is anomalous.  This is the
          canonical projected-outlier construction: full-space distance-based
          detectors and single-attribute monitors both miss these points.
        * ``"margin"`` — each outlying coordinate is moved into a region that
          is empty in its own 1-d marginal (at least ``outlier_margin`` away
          from every cluster centre).  Easier to detect; useful as a sanity
          workload.
    seed:
        Seed for the generator's private RNG; identical seeds give identical
        streams.
    """

    def __init__(self,
                 dimensions: int,
                 n_points: int,
                 *,
                 n_clusters: int = 4,
                 outlier_rate: float = 0.03,
                 outlier_subspaces: Optional[Sequence[Subspace]] = None,
                 outlier_subspace_dim: int = 2,
                 n_outlier_subspaces: int = 2,
                 cluster_spread: float = 0.05,
                 outlier_margin: float = 0.25,
                 outlier_mode: str = "combination",
                 seed: int = 0) -> None:
        if dimensions < 2:
            raise ConfigurationError("dimensions must be at least 2")
        if n_points <= 0:
            raise ConfigurationError("n_points must be positive")
        if not 0.0 <= outlier_rate < 1.0:
            raise ConfigurationError("outlier_rate must lie in [0, 1)")
        if n_clusters < 1:
            raise ConfigurationError("n_clusters must be at least 1")
        if outlier_subspace_dim < 1 or outlier_subspace_dim > dimensions:
            raise ConfigurationError(
                "outlier_subspace_dim must lie in [1, dimensions]"
            )
        if outlier_mode not in ("combination", "margin"):
            raise ConfigurationError(
                f"outlier_mode must be 'combination' or 'margin', got {outlier_mode!r}"
            )

        self._outlier_mode = outlier_mode
        self._phi = dimensions
        self._n_points = n_points
        self._outlier_rate = outlier_rate
        self._cluster_spread = cluster_spread
        self._outlier_margin = outlier_margin
        self._seed = seed

        rng = random.Random(seed)
        self._clusters = self._make_clusters(rng, n_clusters)
        if outlier_subspaces is not None:
            subspaces = list(outlier_subspaces)
            for subspace in subspaces:
                subspace.validate_against(dimensions)
            if not subspaces:
                raise ConfigurationError("outlier_subspaces must not be empty")
            self._outlier_subspaces = subspaces
        else:
            self._outlier_subspaces = self._make_outlier_subspaces(
                rng, n_outlier_subspaces, outlier_subspace_dim
            )

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    def _make_clusters(self, rng: random.Random,
                       n_clusters: int) -> List[ClusterSpec]:
        clusters = []
        weights = [rng.uniform(0.5, 1.5) for _ in range(n_clusters)]
        total = sum(weights)
        for i in range(n_clusters):
            center = tuple(rng.uniform(0.2, 0.8) for _ in range(self._phi))
            clusters.append(ClusterSpec(center=center,
                                        spread=self._cluster_spread,
                                        weight=weights[i] / total))
        return clusters

    def _make_outlier_subspaces(self, rng: random.Random, count: int,
                                dim: int) -> List[Subspace]:
        subspaces: List[Subspace] = []
        attempts = 0
        while len(subspaces) < count and attempts < 100 * count:
            attempts += 1
            dims = rng.sample(range(self._phi), dim)
            candidate = Subspace(dims)
            if candidate not in subspaces:
                subspaces.append(candidate)
        if not subspaces:
            raise ConfigurationError("failed to generate outlier subspaces")
        return subspaces

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def dimensionality(self) -> int:
        return self._phi

    @property
    def outlier_subspaces(self) -> Tuple[Subspace, ...]:
        """The ground-truth subspaces in which outliers are planted."""
        return tuple(self._outlier_subspaces)

    @property
    def clusters(self) -> Tuple[ClusterSpec, ...]:
        """The Gaussian clusters generating the normal traffic."""
        return tuple(self._clusters)

    def __len__(self) -> int:
        return self._n_points

    # ------------------------------------------------------------------ #
    # Generation
    # ------------------------------------------------------------------ #
    def _sample_normal_point(self, rng: random.Random) -> Tuple[Tuple[float, ...], str]:
        pick = rng.random()
        cumulative = 0.0
        cluster = self._clusters[-1]
        cluster_id = len(self._clusters) - 1
        for i, candidate in enumerate(self._clusters):
            cumulative += candidate.weight
            if pick <= cumulative:
                cluster = candidate
                cluster_id = i
                break
        values = tuple(
            min(0.999, max(0.001, rng.gauss(mu, cluster.spread)))
            for mu in cluster.center
        )
        return values, f"cluster-{cluster_id}"

    def _combination_coordinates(self, rng: random.Random,
                                 subspace: Subspace) -> Optional[List[float]]:
        """Outlying coordinates whose 1-d marginals each look cluster-like.

        Each dimension of ``subspace`` borrows its value from some cluster's
        marginal distribution, and the joint assignment is accepted only when
        it is at least ``outlier_margin`` away from *every* cluster centre in
        at least one of the subspace's dimensions — i.e. the combination falls
        into a region of the subspace no cluster occupies.  Returns ``None``
        when no such assignment is found (e.g. a single-cluster mixture).
        """
        if len(self._clusters) < 2:
            return None
        dims = list(subspace)
        for _ in range(60):
            donors = [rng.choice(self._clusters) for _ in dims]
            candidate = [
                min(0.999, max(0.001, rng.gauss(donor.center[d], donor.spread)))
                for donor, d in zip(donors, dims)
            ]
            empty_for_all_clusters = all(
                max(abs(candidate[i] - cluster.center[d]) for i, d in enumerate(dims))
                >= self._outlier_margin
                for cluster in self._clusters
            )
            if empty_for_all_clusters:
                return candidate
        return None

    def _outlying_coordinate(self, rng: random.Random, dimension: int) -> float:
        """Sample a coordinate far from every cluster centre along ``dimension``."""
        for _ in range(200):
            candidate = rng.uniform(0.001, 0.999)
            if all(abs(candidate - cluster.center[dimension]) >= self._outlier_margin
                   for cluster in self._clusters):
                return candidate
        # Degenerate domains (many clusters, large margin): fall back to the
        # coordinate farthest from every centre.
        best, best_gap = 0.001, -1.0
        for step in range(100):
            candidate = 0.001 + step * 0.998 / 99
            gap = min(abs(candidate - cluster.center[dimension])
                      for cluster in self._clusters)
            if gap > best_gap:
                best, best_gap = candidate, gap
        return best

    def __iter__(self) -> Iterator[StreamPoint]:
        rng = random.Random(self._seed + 1)
        for _ in range(self._n_points):
            values, category = self._sample_normal_point(rng)
            if rng.random() < self._outlier_rate:
                subspace = rng.choice(self._outlier_subspaces)
                mutated = list(values)
                combination: Optional[List[float]] = None
                if self._outlier_mode == "combination":
                    combination = self._combination_coordinates(rng, subspace)
                if combination is not None:
                    for i, d in enumerate(subspace):
                        mutated[d] = combination[i]
                else:
                    for d in subspace:
                        mutated[d] = self._outlying_coordinate(rng, d)
                yield StreamPoint(values=tuple(mutated), is_outlier=True,
                                  outlying_subspace=subspace,
                                  category="projected-outlier")
            else:
                yield StreamPoint(values=values, is_outlier=False,
                                  category=category)


class UniformNoiseStream(DataStream):
    """A purely uniform stream with no structure at all.

    Used by tests and the time-model benchmark as a worst case in which every
    cell should look equally (non-)sparse.
    """

    def __init__(self, dimensions: int, n_points: int, *, seed: int = 0) -> None:
        if dimensions < 1:
            raise ConfigurationError("dimensions must be at least 1")
        if n_points <= 0:
            raise ConfigurationError("n_points must be positive")
        self._phi = dimensions
        self._n_points = n_points
        self._seed = seed

    @property
    def dimensionality(self) -> int:
        return self._phi

    def __len__(self) -> int:
        return self._n_points

    def __iter__(self) -> Iterator[StreamPoint]:
        rng = random.Random(self._seed)
        for _ in range(self._n_points):
            values = tuple(rng.random() for _ in range(self._phi))
            yield StreamPoint(values=values, is_outlier=False, category="uniform")
