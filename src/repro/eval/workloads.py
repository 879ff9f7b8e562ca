"""Named evaluation workloads.

A :class:`Workload` bundles everything one experiment run needs: a training
prefix, a labelled detection segment, and the ground-truth outlying subspaces
(when the generator knows them).  The constructors below build the workloads
referenced by the experiment index in DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..core.exceptions import ConfigurationError
from ..core.subspace import Subspace
from ..streams import (
    DataStream,
    GaussianStreamGenerator,
    GradualDriftStream,
    KDDCup99Simulator,
    ListStream,
    MultiplexedStream,
    SensorFieldStream,
    StreamPoint,
    TaggedStreamPoint,
    abrupt_drift_stream,
)


@dataclass(frozen=True)
class Workload:
    """One evaluation workload: training batch + labelled detection segment.

    Attributes
    ----------
    name:
        Identifier used in reports.
    training:
        Points available to the learning stage (labels are *not* exposed to
        unsupervised detectors; supervised runs may look at them).
    detection:
        The labelled stream segment the detector is scored on.
    true_subspaces:
        Ground-truth outlying subspaces planted by the generator, when known.
    """

    name: str
    training: Tuple[StreamPoint, ...]
    detection: Tuple[StreamPoint, ...]
    true_subspaces: Tuple[Subspace, ...] = ()

    @property
    def dimensionality(self) -> int:
        """Attribute count of the workload's points."""
        return self.training[0].dimensionality if self.training else 0

    @property
    def training_values(self) -> List[Tuple[float, ...]]:
        """Raw attribute vectors of the training batch."""
        return [point.values for point in self.training]

    @property
    def detection_values(self) -> List[Tuple[float, ...]]:
        """Raw attribute vectors of the detection segment."""
        return [point.values for point in self.detection]

    @property
    def detection_labels(self) -> List[bool]:
        """Ground-truth outlier labels of the detection segment."""
        return [point.is_outlier for point in self.detection]

    @property
    def outlier_examples(self) -> List[Tuple[float, ...]]:
        """The labelled outliers of the training batch (for supervised learning)."""
        return [point.values for point in self.training if point.is_outlier]

    def outlier_rate(self) -> float:
        """Fraction of the detection segment that is labelled as outliers."""
        labels = self.detection_labels
        if not labels:
            return 0.0
        return sum(labels) / len(labels)


def _split(stream: DataStream, n_training: int, n_detection: int,
           name: str, true_subspaces: Sequence[Subspace] = ()) -> Workload:
    training, detection = stream.split(n_training, n_detection)
    return Workload(name=name,
                    training=tuple(training),
                    detection=tuple(detection),
                    true_subspaces=tuple(true_subspaces))


def synthetic_workload(*, dimensions: int = 20, n_training: int = 800,
                       n_detection: int = 1200, outlier_rate: float = 0.03,
                       outlier_subspace_dim: int = 2,
                       n_outlier_subspaces: int = 2, n_clusters: int = 4,
                       seed: int = 11) -> Workload:
    """Gaussian-mixture stream with planted projected outliers (E1, E3, E4, A1)."""
    generator = GaussianStreamGenerator(
        dimensions=dimensions,
        n_points=n_training + n_detection,
        n_clusters=n_clusters,
        outlier_rate=outlier_rate,
        outlier_subspace_dim=outlier_subspace_dim,
        n_outlier_subspaces=n_outlier_subspaces,
        seed=seed,
    )
    return _split(generator, n_training, n_detection,
                  name=f"synthetic-{dimensions}d",
                  true_subspaces=generator.outlier_subspaces)


def kddcup_workload(*, n_training: int = 1000, n_detection: int = 2000,
                    attack_rate_scale: float = 1.0,
                    seed: int = 23) -> Workload:
    """KDD-Cup-99-style intrusion stream (E2)."""
    simulator = KDDCup99Simulator(
        n_points=n_training + n_detection,
        attack_rate_scale=attack_rate_scale,
        seed=seed,
    )
    return _split(simulator, n_training, n_detection, name="kddcup99-sim",
                  true_subspaces=tuple(simulator.attack_subspaces().values()))


def sensor_workload(*, n_channels: int = 16, n_training: int = 800,
                    n_detection: int = 1500, seed: int = 31) -> Workload:
    """Sensor-field monitoring stream with projected faults (examples, E2 variant)."""
    stream = SensorFieldStream(n_channels=n_channels,
                               n_points=n_training + n_detection,
                               seed=seed)
    return _split(stream, n_training, n_detection,
                  name=f"sensors-{n_channels}ch",
                  true_subspaces=tuple(stream.fault_subspaces().values()))


def drift_workload(*, dimensions: int = 16, n_training: int = 800,
                   n_before: int = 800, n_after: int = 800,
                   gradual: bool = False, n_transition: int = 200,
                   outlier_rate: float = 0.04,
                   seed: int = 47) -> Workload:
    """Drifting workload whose outlying subspaces change mid-stream (A2).

    The training batch and the first detection segment plant outliers in one
    pair of subspaces; after the drift point the outliers move to a different
    pair of subspaces (and the normal clusters move as well), so a frozen SST
    keeps looking in the wrong projections.
    """
    before = GaussianStreamGenerator(
        dimensions=dimensions,
        n_points=n_training + n_before,
        outlier_rate=outlier_rate,
        outlier_subspace_dim=2,
        n_outlier_subspaces=2,
        seed=seed,
    )
    after = GaussianStreamGenerator(
        dimensions=dimensions,
        n_points=n_after + n_transition,
        outlier_rate=outlier_rate,
        outlier_subspace_dim=2,
        n_outlier_subspaces=2,
        seed=seed + 1000,
    )
    shared = set(before.outlier_subspaces) & set(after.outlier_subspaces)
    if shared:
        # Regenerate with a different seed so the drift actually changes the
        # outlying subspaces; with phi >= 8 a collision is already unlikely.
        after = GaussianStreamGenerator(
            dimensions=dimensions,
            n_points=n_after + n_transition,
            outlier_rate=outlier_rate,
            outlier_subspace_dim=2,
            n_outlier_subspaces=2,
            seed=seed + 2000,
        )

    before_points = list(before)
    training = before_points[:n_training]
    before_detection = ListStream(before_points[n_training:])
    if gradual:
        drifting: DataStream = GradualDriftStream(
            before_detection, after,
            n_before=n_before, n_transition=n_transition, n_after=n_after,
            seed=seed,
        )
    else:
        drifting = abrupt_drift_stream(before_detection, after)
    detection = drifting.take(n_before + n_after + (n_transition if gradual else 0))
    return Workload(
        name=f"drift-{dimensions}d" + ("-gradual" if gradual else "-abrupt"),
        training=tuple(training),
        detection=tuple(detection),
        true_subspaces=tuple(set(before.outlier_subspaces)
                             | set(after.outlier_subspaces)),
    )


def throughput_workload(*, dimensions: int = 10, n_training: int = 500,
                        n_detection: int = 20000, outlier_rate: float = 0.02,
                        seed: int = 19) -> Workload:
    """Long synthetic stream used by the engine throughput benchmark (T1).

    Shaped like the E4 stream-length study — a modest training prefix
    followed by a detection segment long enough that per-point maintenance
    cost, not learning, dominates the wall clock.
    """
    generator = GaussianStreamGenerator(
        dimensions=dimensions,
        n_points=n_training + n_detection,
        outlier_rate=outlier_rate,
        outlier_subspace_dim=2,
        n_outlier_subspaces=2,
        seed=seed,
    )
    return _split(generator, n_training, n_detection,
                  name=f"throughput-{dimensions}d",
                  true_subspaces=generator.outlier_subspaces)


@dataclass(frozen=True)
class MultiTenantWorkload:
    """A multiplexed serving workload: shared training + tagged detection.

    The detection segment interleaves the streams of ``tenants`` independent
    tenants (deterministically, given the seed); each point carries its
    tenant id so the sharded service can route it.  The training prefix
    interleaves a slice of every tenant so one learned prototype detector is
    meaningful for all of them.
    """

    name: str
    training: Tuple[StreamPoint, ...]
    detection: Tuple[TaggedStreamPoint, ...]
    tenants: Tuple[str, ...]

    @property
    def dimensionality(self) -> int:
        """Attribute count of the workload's points."""
        return self.training[0].dimensionality if self.training else 0

    @property
    def training_values(self) -> List[Tuple[float, ...]]:
        """Raw attribute vectors of the shared training batch."""
        return [point.values for point in self.training]

    @property
    def detection_values(self) -> List[Tuple[float, ...]]:
        """Raw attribute vectors of the tagged detection segment, in order."""
        return [point.values for point in self.detection]

    def detection_for(self, tenant: str) -> List[TaggedStreamPoint]:
        """The detection points of one tenant, in arrival order."""
        return [point for point in self.detection if point.stream_id == tenant]


def multi_tenant_workload(*, n_tenants: int = 8, dimensions: int = 10,
                          n_training_per_tenant: int = 80,
                          n_detection_per_tenant: int = 1500,
                          outlier_rate: float = 0.02,
                          seed: int = 19) -> MultiTenantWorkload:
    """E4-style synthetic streams for ``n_tenants`` tenants, multiplexed.

    Every tenant is an independent :class:`GaussianStreamGenerator` (same
    shape as :func:`throughput_workload`, different seed per tenant), so the
    aggregate is the serving-layer version of the E4 stream-length study:
    long, modestly dimensioned, outlier-bearing streams whose per-point
    maintenance cost dominates.
    """
    if n_tenants < 1:
        raise ConfigurationError(f"n_tenants must be positive, got {n_tenants}")
    tenants = [f"tenant-{i:03d}" for i in range(n_tenants)]
    generators = {
        tenant: GaussianStreamGenerator(
            dimensions=dimensions,
            n_points=n_training_per_tenant + n_detection_per_tenant,
            outlier_rate=outlier_rate,
            outlier_subspace_dim=2,
            n_outlier_subspaces=2,
            seed=seed + 101 * index,
        )
        for index, tenant in enumerate(tenants)
    }
    training: List[StreamPoint] = []
    detection_streams: List[Tuple[str, DataStream]] = []
    for tenant in tenants:
        head, tail = generators[tenant].split(n_training_per_tenant,
                                              n_detection_per_tenant)
        training.extend(head)
        detection_streams.append((tenant, ListStream(tail)))
    # Round-robin the training slices so no tenant dominates any prefix of
    # the training batch, then shuffle-interleave the detection segments.
    interleaved_training: List[StreamPoint] = []
    for i in range(n_training_per_tenant):
        for tenant_index in range(n_tenants):
            interleaved_training.append(
                training[tenant_index * n_training_per_tenant + i])
    multiplexed = MultiplexedStream(detection_streams, seed=seed,
                                    mode="shuffled")
    detection = multiplexed.take(n_tenants * n_detection_per_tenant)
    return MultiTenantWorkload(
        name=f"multitenant-{n_tenants}x{dimensions}d",
        training=tuple(interleaved_training),
        detection=tuple(detection),
        tenants=tuple(tenants),
    )


#: Registry of the named workload constructors, for the CLI and the harness.
WORKLOAD_BUILDERS = {
    "synthetic": synthetic_workload,
    "kddcup": kddcup_workload,
    "sensors": sensor_workload,
    "drift": drift_workload,
    "throughput": throughput_workload,
}


def build_workload(name: str, **overrides) -> Workload:
    """Build a registered workload by name with keyword overrides."""
    try:
        builder = WORKLOAD_BUILDERS[name]
    except KeyError as exc:
        raise ConfigurationError(
            f"unknown workload {name!r}; available: {sorted(WORKLOAD_BUILDERS)}"
        ) from exc
    return builder(**overrides)
