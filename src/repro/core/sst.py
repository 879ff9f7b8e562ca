"""The Sparse Subspace Template (SST).

The SST is the small set of subspaces SPOT actually evaluates every arriving
point in.  It is the union of three mutually supplementing components:

* **FS** — Fixed SST Subspaces: every subspace of dimension 1..MaxDimension.
  Needs no learning; guarantees baseline coverage of all low-dimensional
  projections.
* **CS** — Clustering-based SST Subspaces: the top sparse subspaces of the
  most outlying training points, produced by the unsupervised learning stage
  (lead clustering + MOGA).  Subject to periodic online self-evolution.
* **OS** — Outlier-driven SST Subspaces: the top sparse subspaces of
  expert-supplied outlier examples (supervised learning) and, when enabled,
  of every outlier detected at run time.

The template keeps the components separate (so ablations and self-evolution
can manipulate them independently) but exposes a deduplicated union for the
detector's hot loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from .exceptions import ConfigurationError, SubspaceError
from .subspace import Subspace, enumerate_subspaces


@dataclass
class RankedSubspace:
    """A subspace together with the sparsity score it was selected for.

    Lower scores mean sparser (more promising for projected outliers); the CS
    and OS components keep their members ranked so that self-evolution and
    capacity eviction can drop the weakest ones first.
    """

    subspace: Subspace
    score: float

    def __iter__(self) -> Iterator[object]:
        return iter((self.subspace, self.score))


class SparseSubspaceTemplate:
    """Container for the FS, CS and OS subspace components.

    Parameters
    ----------
    phi:
        Dimensionality of the data space; every member subspace is validated
        against it.
    cs_capacity / os_capacity:
        Maximum number of subspaces retained in CS and OS.  When a component
        overflows, the members with the worst (highest) scores are evicted.
    """

    def __init__(self, phi: int, *, cs_capacity: int = 20,
                 os_capacity: int = 20) -> None:
        if phi <= 0:
            raise ConfigurationError(f"phi must be positive, got {phi}")
        if cs_capacity < 0 or os_capacity < 0:
            raise ConfigurationError("capacities must be non-negative")
        self.phi = phi
        self.cs_capacity = cs_capacity
        self.os_capacity = os_capacity
        self._fixed: List[Subspace] = []
        self._clustering: List[RankedSubspace] = []
        self._outlier_driven: List[RankedSubspace] = []
        self._version = 0

    @property
    def version(self) -> int:
        """Monotonic counter bumped on every mutation of the template.

        Consumers that derive anything from the member subspaces (the
        detector's cached subspace union, the store's per-subspace caches)
        compare this counter instead of re-walking the components per point.
        """
        return self._version

    # ------------------------------------------------------------------ #
    # Component views
    # ------------------------------------------------------------------ #
    @property
    def fixed_subspaces(self) -> Tuple[Subspace, ...]:
        """The FS component (all subspaces up to MaxDimension)."""
        return tuple(self._fixed)

    @property
    def clustering_subspaces(self) -> Tuple[Subspace, ...]:
        """The CS component, best (sparsest) first."""
        return tuple(item.subspace for item in self._clustering)

    @property
    def outlier_driven_subspaces(self) -> Tuple[Subspace, ...]:
        """The OS component, best (sparsest) first."""
        return tuple(item.subspace for item in self._outlier_driven)

    @property
    def clustering_ranked(self) -> Tuple[RankedSubspace, ...]:
        """CS members with their selection scores (used by self-evolution)."""
        return tuple(self._clustering)

    @property
    def outlier_driven_ranked(self) -> Tuple[RankedSubspace, ...]:
        """OS members with their selection scores."""
        return tuple(self._outlier_driven)

    def all_subspaces(self) -> Tuple[Subspace, ...]:
        """Deduplicated union of FS, CS and OS, FS first.

        The detector iterates this tuple for every arriving point, so the
        union is materialised here rather than recomputed per point.
        """
        seen: Dict[Subspace, None] = {}
        for subspace in self._fixed:
            seen.setdefault(subspace, None)
        for item in self._clustering:
            seen.setdefault(item.subspace, None)
        for item in self._outlier_driven:
            seen.setdefault(item.subspace, None)
        return tuple(seen)

    def __len__(self) -> int:
        return len(self.all_subspaces())

    def __contains__(self, subspace: Subspace) -> bool:
        return subspace in set(self.all_subspaces())

    def component_sizes(self) -> Dict[str, int]:
        """Sizes of the three components (before deduplication)."""
        return {
            "FS": len(self._fixed),
            "CS": len(self._clustering),
            "OS": len(self._outlier_driven),
        }

    # ------------------------------------------------------------------ #
    # FS
    # ------------------------------------------------------------------ #
    def build_fixed(self, max_dimension: int) -> int:
        """Populate FS with every subspace of dimension 1..``max_dimension``.

        Returns the number of subspaces FS now contains.  Calling it again
        replaces the previous FS.
        """
        if max_dimension < 1:
            raise ConfigurationError("max_dimension must be at least 1")
        self._fixed = list(enumerate_subspaces(self.phi, max_dimension))
        self._version += 1
        return len(self._fixed)

    def set_fixed(self, subspaces: Iterable[Subspace]) -> None:
        """Explicitly set the FS component (used by ablation experiments)."""
        validated = []
        for subspace in subspaces:
            subspace.validate_against(self.phi)
            validated.append(subspace)
        self._fixed = validated
        self._version += 1

    # ------------------------------------------------------------------ #
    # CS / OS
    # ------------------------------------------------------------------ #
    def _insert_ranked(self, component: List[RankedSubspace],
                       capacity: int, subspace: Subspace,
                       score: float) -> bool:
        subspace.validate_against(self.phi)
        self._version += 1
        for existing in component:
            if existing.subspace == subspace:
                if score < existing.score:
                    existing.score = score
                    component.sort(key=lambda item: item.score)
                return False
        component.append(RankedSubspace(subspace=subspace, score=score))
        component.sort(key=lambda item: item.score)
        while len(component) > capacity:
            component.pop()
        return subspace in {item.subspace for item in component}

    def add_clustering_subspace(self, subspace: Subspace,
                                score: float) -> bool:
        """Add one subspace to CS; returns ``True`` if it was retained."""
        return self._insert_ranked(self._clustering, self.cs_capacity,
                                   subspace, score)

    def add_outlier_driven_subspace(self, subspace: Subspace,
                                    score: float) -> bool:
        """Add one subspace to OS; returns ``True`` if it was retained."""
        return self._insert_ranked(self._outlier_driven, self.os_capacity,
                                   subspace, score)

    def set_clustering(self, ranked: Iterable[Tuple[Subspace, float]]) -> None:
        """Replace CS with the given (subspace, score) pairs."""
        self._clustering = []
        self._version += 1
        for subspace, score in ranked:
            self.add_clustering_subspace(subspace, score)

    def set_outlier_driven(self, ranked: Iterable[Tuple[Subspace, float]]) -> None:
        """Replace OS with the given (subspace, score) pairs."""
        self._outlier_driven = []
        self._version += 1
        for subspace, score in ranked:
            self.add_outlier_driven_subspace(subspace, score)

    def replace_clustering_ranked(self,
                                  ranked: Sequence[RankedSubspace]) -> None:
        """Replace CS wholesale with pre-ranked members (self-evolution)."""
        self._clustering = []
        self._version += 1
        for item in ranked:
            self.add_clustering_subspace(item.subspace, item.score)

    def clear_clustering(self) -> None:
        """Drop every CS member (used by the FS-only ablation)."""
        self._clustering = []
        self._version += 1

    def clear_outlier_driven(self) -> None:
        """Drop every OS member (used by ablations)."""
        self._outlier_driven = []
        self._version += 1

    # ------------------------------------------------------------------ #
    # Serialisation helpers
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable view of the template."""
        return {
            "phi": self.phi,
            # The mutation counter rides along (additively) so decision
            # provenance captured after a snapshot-restore names the same
            # SST version as before it; older payloads restore with the
            # counter the rebuild accumulated.
            "version": self._version,
            "cs_capacity": self.cs_capacity,
            "os_capacity": self.os_capacity,
            "fixed": [list(s.dimensions) for s in self._fixed],
            "clustering": [
                {"dims": list(item.subspace.dimensions), "score": item.score}
                for item in self._clustering
            ],
            "outlier_driven": [
                {"dims": list(item.subspace.dimensions), "score": item.score}
                for item in self._outlier_driven
            ],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "SparseSubspaceTemplate":
        """Rebuild a template from :meth:`to_dict` output."""
        try:
            template = cls(
                int(payload["phi"]),
                cs_capacity=int(payload.get("cs_capacity", 20)),
                os_capacity=int(payload.get("os_capacity", 20)),
            )
            template.set_fixed(Subspace(dims) for dims in payload.get("fixed", []))
            template.set_clustering(
                (Subspace(entry["dims"]), float(entry["score"]))
                for entry in payload.get("clustering", [])
            )
            template.set_outlier_driven(
                (Subspace(entry["dims"]), float(entry["score"]))
                for entry in payload.get("outlier_driven", [])
            )
            if "version" in payload:
                template._version = int(payload["version"])
        except (KeyError, TypeError, ValueError) as exc:
            raise SubspaceError(f"malformed SST payload: {exc}") from exc
        return template
