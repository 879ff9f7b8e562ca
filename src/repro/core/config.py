"""Configuration for the SPOT detector.

All tunables of the system live in one frozen dataclass so that experiments
can be described declaratively (and serialised alongside their results).  The
defaults are chosen to work out of the box on the synthetic workloads shipped
with the library; every benchmark overrides what it sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from typing import Dict, Optional

from .exceptions import ConfigurationError


@dataclass(frozen=True)
class SPOTConfig:
    """Every knob of the SPOT detector in one place.

    Grid / time model
    -----------------
    cells_per_dimension:
        Number of equi-width intervals each attribute is split into.
    omega:
        Window size (in arrivals) approximated by the time model.
    epsilon:
        Approximation factor of the (omega, epsilon) time model.

    Sparse Subspace Template
    ------------------------
    max_dimension:
        ``MaxDimension`` of the Fixed SST Subspaces: FS contains every
        subspace of dimension 1..max_dimension.
    cs_size / os_size:
        Maximum number of subspaces kept in the Clustering-based (CS) and
        Outlier-driven (OS) components.
    top_outlying_fraction:
        Fraction of the training batch (by outlying degree) whose sparse
        subspaces are searched to build CS.

    Outlier decision
    ----------------
    decision_rule:
        ``"rd"`` (default) flags a point in a subspace when the Relative
        Density of its cell is at or below ``rd_threshold`` (with the
        ``min_expected_mass`` support requirement).  ``"poisson"`` instead
        tests multi-dimensional cells against the independence null with a
        Bonferroni-corrected Poisson tail at level ``significance`` (1-d
        cells keep the RD rule); it trades precision for recall and is
        compared against the default in the S1 sensitivity benchmark.
    significance:
        Per-point significance level of the Poisson decision rule.
    rd_threshold:
        Threshold of the ``"rd"`` rule: a point is flagged in a subspace when
        the Relative Density of its projected cell is at or below this value.
        RD = 1 means the cell holds exactly the mass the null model expects,
        so 0.05 flags cells holding less than 5 % of their expected mass
        (after excluding the arriving point's own weight).
    irsd_threshold:
        Optional additional IRSD threshold; ``None`` disables the check.
    min_expected_mass:
        A cell can only be flagged when the mass it was *expected* to hold
        (under the density reference's null model) reaches this value —
        "emptier than expected" is only meaningful where the expectation is
        itself substantial.
    density_reference:
        Null model of the Relative Density ("hybrid", "marginal",
        "populated" or "lattice"); see
        :class:`~repro.core.synapse_store.SynapseStore`.
    engine:
        Detection substrate: ``"vectorized"`` (default) runs the NumPy
        array-backed store
        (:class:`~repro.core.fast_store.VectorizedSynapseStore`) and the
        :meth:`~repro.core.detector.SPOT.process_batch` fast path, while
        ``"python"`` keeps the pure-Python reference store — the parity
        oracle.  Both engines produce the same flags and (within float
        tolerance) the same scores.

    Learning / MOGA
    ---------------
    moga_population / moga_generations:
        Population size and number of generations of the NSGA-II search.
    moga_mutation_rate / moga_crossover_rate:
        Standard GA operator rates.
    clustering_runs:
        Number of lead-clustering passes (under different data orders) used
        when computing outlying degrees.
    clustering_distance_fraction:
        Lead-clustering distance threshold, as a fraction of the domain
        diagonal in the full space.

    Online adaptation
    -----------------
    self_evolution_period:
        Detection-stage points between two self-evolution rounds of CS
        (0 disables self-evolution).
    relearn_period:
        Detection-stage points between two wholesale CS relearn rounds — a
        fresh MOGA search over the recent-points reservoir replacing CS
        (0, the default, disables relearning).  When a relearn boundary
        coincides with a self-evolution boundary only self-evolution runs;
        pick coprime-ish periods to get both.
    os_growth_enabled:
        Whether the sparse subspaces of detected outliers are added to OS.
    os_growth_moga_budget:
        Cap on how many detected outliers trigger a MOGA search per window
        (keeps the online cost bounded).
    prune_period / prune_min_count:
        How often stale cell summaries are pruned and the mass below which a
        summary is dropped.

    random_seed:
        Seed for every stochastic component (MOGA, clustering orders,
        self-evolution), making runs reproducible.
    """

    # Grid / time model
    cells_per_dimension: int = 5
    omega: int = 1000
    epsilon: float = 0.01

    # SST composition
    max_dimension: int = 2
    cs_size: int = 20
    os_size: int = 20
    top_outlying_fraction: float = 0.05

    # Outlier decision
    decision_rule: str = "rd"
    significance: float = 0.01
    rd_threshold: float = 0.05
    irsd_threshold: Optional[float] = None
    min_expected_mass: float = 3.0
    density_reference: str = "hybrid"

    # Detection substrate
    engine: str = "vectorized"

    # Learning / MOGA
    moga_population: int = 40
    moga_generations: int = 25
    moga_mutation_rate: float = 0.05
    moga_crossover_rate: float = 0.9
    moga_max_dimension: int = 4
    clustering_runs: int = 3
    clustering_distance_fraction: float = 0.25

    # Online adaptation
    self_evolution_period: int = 0
    relearn_period: int = 0
    os_growth_enabled: bool = False
    os_growth_moga_budget: int = 5
    prune_period: int = 2000
    prune_min_count: float = 1e-6

    random_seed: int = 7

    def __post_init__(self) -> None:
        if self.cells_per_dimension < 2:
            raise ConfigurationError("cells_per_dimension must be at least 2")
        if self.omega <= 0:
            raise ConfigurationError("omega must be positive")
        if not 0.0 < self.epsilon < 1.0:
            raise ConfigurationError("epsilon must lie strictly in (0, 1)")
        if self.max_dimension < 1:
            raise ConfigurationError("max_dimension must be at least 1")
        if self.rd_threshold <= 0.0:
            raise ConfigurationError("rd_threshold must be positive")
        if self.decision_rule not in ("poisson", "rd"):
            raise ConfigurationError(
                f"decision_rule must be 'poisson' or 'rd', got {self.decision_rule!r}"
            )
        if not 0.0 < self.significance < 1.0:
            raise ConfigurationError("significance must lie strictly in (0, 1)")
        if self.irsd_threshold is not None and self.irsd_threshold <= 0.0:
            raise ConfigurationError("irsd_threshold must be positive when set")
        if self.min_expected_mass < 0.0:
            raise ConfigurationError("min_expected_mass must be non-negative")
        if self.density_reference not in ("hybrid", "marginal", "populated",
                                          "lattice"):
            raise ConfigurationError(
                "density_reference must be 'hybrid', 'marginal', 'populated' "
                f"or 'lattice', got {self.density_reference!r}"
            )
        if self.engine not in ("python", "vectorized"):
            raise ConfigurationError(
                f"engine must be 'python' or 'vectorized', got {self.engine!r}"
            )
        if not 0.0 < self.top_outlying_fraction <= 1.0:
            raise ConfigurationError("top_outlying_fraction must lie in (0, 1]")
        if self.moga_population < 4:
            raise ConfigurationError("moga_population must be at least 4")
        if self.moga_generations < 1:
            raise ConfigurationError("moga_generations must be at least 1")
        if not 0.0 <= self.moga_mutation_rate <= 1.0:
            raise ConfigurationError("moga_mutation_rate must lie in [0, 1]")
        if not 0.0 <= self.moga_crossover_rate <= 1.0:
            raise ConfigurationError("moga_crossover_rate must lie in [0, 1]")
        if self.moga_max_dimension < 1:
            raise ConfigurationError("moga_max_dimension must be at least 1")
        if self.clustering_runs < 1:
            raise ConfigurationError("clustering_runs must be at least 1")
        if not 0.0 < self.clustering_distance_fraction <= 1.0:
            raise ConfigurationError(
                "clustering_distance_fraction must lie in (0, 1]"
            )
        if self.self_evolution_period < 0:
            raise ConfigurationError("self_evolution_period must be >= 0")
        if self.relearn_period < 0:
            raise ConfigurationError("relearn_period must be >= 0")
        if self.os_growth_moga_budget < 0:
            raise ConfigurationError("os_growth_moga_budget must be >= 0")
        if self.prune_period < 0:
            raise ConfigurationError("prune_period must be >= 0")
        if self.cs_size < 0 or self.os_size < 0:
            raise ConfigurationError("cs_size and os_size must be >= 0")

    def replace(self, **changes: object) -> "SPOTConfig":
        """Return a copy of this configuration with the given fields changed."""
        values: Dict[str, object] = asdict(self)
        values.update(changes)
        return SPOTConfig(**values)  # type: ignore[arg-type]

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict view, suitable for JSON serialisation."""
        return asdict(self)

    @classmethod
    def from_dict(cls, values: Dict[str, object]) -> "SPOTConfig":
        """Rebuild a configuration from :meth:`to_dict` output."""
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416
        unknown = set(values) - known
        if unknown:
            raise ConfigurationError(
                f"unknown configuration fields: {sorted(unknown)}"
            )
        return cls(**values)  # type: ignore[arg-type]
