"""Result objects returned by the detection stage.

The problem statement of the paper asks for two things per stream point: a
projected-outlier / regular label, and — when the point is an outlier — the
subspace(s) in which it stands out.  :class:`DetectionResult` carries exactly
that, plus the per-subspace PCS evidence so that callers (and the experiment
harness) can rank points by outlier strength instead of only thresholding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from .cell_summary import ProjectedCellSummary
from .subspace import Subspace


@dataclass(frozen=True)
class SubspaceEvidence:
    """The PCS observed for one point in one SST subspace."""

    subspace: Subspace
    pcs: ProjectedCellSummary
    flagged: bool

    @property
    def rd(self) -> float:
        """Relative Density of the point's cell in this subspace."""
        return self.pcs.rd

    @property
    def irsd(self) -> float:
        """Inverse Relative Standard Deviation of the point's cell."""
        return self.pcs.irsd


@dataclass(frozen=True)
class SubspaceDecision:
    """Why one SST subspace flagged a point — the full decision inputs.

    Unlike :class:`SubspaceEvidence` (which carries the raw PCS object for
    in-process consumers), this is a provenance record: it names the
    projected *cell* the point landed in, the decayed density statistics the
    rule saw, which rule fired (``"rd"`` for the relative-density threshold,
    ``"poisson"`` for the Poisson-tail significance test on multi-d
    subspaces), the threshold the rule compared against, and the margin by
    which the comparison passed (``threshold - observed``; always >= 0 for a
    flagged subspace).  Everything here is engine-independent: the fast
    batch path must produce byte-identical cells/rules and float-identical
    statistics to the sequential oracle.
    """

    subspace: Tuple[int, ...]
    cell: Tuple[int, ...]
    rule: str
    rd: float
    irsd: float
    count: float
    expected: float
    tail_probability: float
    threshold: float
    margin: float


@dataclass(frozen=True)
class DecisionEvidence:
    """Provenance for one scored point: SST version + per-subspace decisions.

    ``sst_version`` pins which learned Sparse Subspace Template produced the
    decision, so an ``explain`` long after a relearn can say *which* model
    flagged the point.  ``subspaces`` holds one :class:`SubspaceDecision`
    per flagged subspace, in SST iteration order.
    """

    sst_version: int
    subspaces: Tuple[SubspaceDecision, ...] = ()


@dataclass(frozen=True)
class DetectionResult:
    """Outcome of checking one stream point against the SST.

    Attributes
    ----------
    index:
        Zero-based position of the point in the processed stream.
    point:
        The point itself (kept so downstream consumers such as the online OS
        growth can re-analyse detected outliers).  ``None`` on an unflagged
        result that a detection service rebuilt from its result log: the
        service keeps no unflagged point, and the caller looks it up by the
        seq that ``submit`` returned.
    is_outlier:
        ``True`` when at least one SST subspace flagged the point.
    outlying_subspaces:
        The subspaces whose PCS fell below the configured thresholds,
        ordered from strongest (lowest RD) to weakest.
    evidence:
        PCS evidence for every subspace that was checked (outlying or not),
        capped by the detector to keep results lightweight.
    score:
        A continuous outlier score in [0, 1]: ``1 - min RD`` over the checked
        subspaces (clipped), so higher means more outlying.  Useful for
        ranking-based evaluation (precision@k, AUC).
    """

    index: int
    point: Optional[Tuple[float, ...]]
    is_outlier: bool
    outlying_subspaces: Tuple[Subspace, ...]
    evidence: Tuple[SubspaceEvidence, ...] = ()
    score: float = 0.0
    decision: Optional[DecisionEvidence] = None

    @property
    def strongest_subspace(self) -> Optional[Subspace]:
        """The outlying subspace with the lowest Relative Density, if any."""
        if not self.outlying_subspaces:
            return None
        return self.outlying_subspaces[0]

    def evidence_for(self, subspace: Subspace) -> Optional[SubspaceEvidence]:
        """Return the evidence recorded for ``subspace``, if it was checked."""
        for item in self.evidence:
            if item.subspace == subspace:
                return item
        return None


@dataclass
class StreamSummary:
    """Aggregate statistics over a processed stream segment."""

    points_processed: int = 0
    outliers_detected: int = 0
    subspace_hit_counts: Dict[Subspace, int] = field(default_factory=dict)

    def record(self, result: DetectionResult) -> None:
        """Fold one detection result into the running totals."""
        self.points_processed += 1
        if result.is_outlier:
            self.outliers_detected += 1
            for subspace in result.outlying_subspaces:
                self.subspace_hit_counts[subspace] = (
                    self.subspace_hit_counts.get(subspace, 0) + 1
                )

    def record_chunk(self, n_points: int,
                     flagged: Iterable[DetectionResult]) -> None:
        """Fold a whole chunk's results in at once.

        Equivalent to calling :meth:`record` for every result of the chunk:
        ``n_points`` covers all of them, ``flagged`` carries only the
        outliers (the unflagged majority contributes nothing beyond the
        point count, so the batch path skips per-point calls).
        """
        self.points_processed += n_points
        for result in flagged:
            self.outliers_detected += 1
            for subspace in result.outlying_subspaces:
                self.subspace_hit_counts[subspace] = (
                    self.subspace_hit_counts.get(subspace, 0) + 1
                )

    @property
    def outlier_rate(self) -> float:
        """Fraction of processed points that were flagged."""
        if self.points_processed == 0:
            return 0.0
        return self.outliers_detected / self.points_processed

    def top_subspaces(self, k: int = 5) -> List[Tuple[Subspace, int]]:
        """The ``k`` subspaces that flagged the most points."""
        ranked = sorted(self.subspace_hit_counts.items(),
                        key=lambda item: item[1], reverse=True)
        return ranked[:k]

    def state_to_dict(self) -> Dict[str, object]:
        """Snapshot for detector checkpointing."""
        return {
            "points_processed": self.points_processed,
            "outliers_detected": self.outliers_detected,
            "subspace_hits": [[list(subspace.dimensions), count]
                              for subspace, count
                              in self.subspace_hit_counts.items()],
        }

    @classmethod
    def from_state(cls, payload: Dict[str, object]) -> "StreamSummary":
        """Rebuild a summary from :meth:`state_to_dict` output."""
        summary = cls(
            points_processed=int(payload["points_processed"]),
            outliers_detected=int(payload["outliers_detected"]),
        )
        for dims, count in payload["subspace_hits"]:
            summary.subspace_hit_counts[Subspace(dims)] = int(count)
        return summary
