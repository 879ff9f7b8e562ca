"""Decision provenance: serialise and render ``DecisionEvidence``.

The paper's central claim is that projected outliers are caught *in specific
sparse subspaces*; this module is what lets an operator ask "**why** was this
point flagged?" after the fact.  The detector (both engines — the sequential
oracle and the fused batch path) attaches a typed
:class:`~repro.core.results.DecisionEvidence` to every flagged result when
evidence capture is enabled: the active SST version plus, per flagged
subspace, the projected cell key, the decayed density statistics, which rule
fired and by what margin.  Here we give that record a stable JSON shape
(``spot-explain/v1``) for CLI output, flight-recorder spill and diagnostics
bundles, plus round-trip parsing so tests can compare evidence across
engines and across a checkpoint/restore.

Engine parity is contractual: cells, rules, SST versions and subspace sets
are exactly equal between engines; densities/margins agree to 1e-9 (the
batch path evaluates the Poisson tail through ``gammaincc`` when SciPy is
present, the oracle through the series form).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.results import DecisionEvidence, DetectionResult, SubspaceDecision

#: Schema tag of every serialised evidence record.
EXPLAIN_SCHEMA = "spot-explain/v1"

#: Decision rules a subspace decision can name.
RULES = ("rd", "poisson")


def decision_to_dict(decision: DecisionEvidence) -> Dict[str, object]:
    """Stable ``spot-explain/v1`` JSON shape for one evidence record."""
    return {
        "schema": EXPLAIN_SCHEMA,
        "sst_version": decision.sst_version,
        "subspaces": [
            {
                "subspace": list(item.subspace),
                "cell": list(item.cell),
                "rule": item.rule,
                "rd": item.rd,
                "irsd": item.irsd,
                "count": item.count,
                "expected": item.expected,
                "tail_probability": item.tail_probability,
                "threshold": item.threshold,
                "margin": item.margin,
            }
            for item in decision.subspaces
        ],
    }


def decision_from_dict(payload: Dict[str, object]) -> DecisionEvidence:
    """Rebuild a :class:`DecisionEvidence` from :func:`decision_to_dict`."""
    if payload.get("schema") != EXPLAIN_SCHEMA:
        raise ValueError(
            f"expected schema {EXPLAIN_SCHEMA!r}, got {payload.get('schema')!r}")
    subspaces = []
    for item in payload.get("subspaces", []):
        rule = str(item["rule"])
        if rule not in RULES:
            raise ValueError(f"unknown decision rule {rule!r}")
        subspaces.append(SubspaceDecision(
            subspace=tuple(int(d) for d in item["subspace"]),
            cell=tuple(int(c) for c in item["cell"]),
            rule=rule,
            rd=float(item["rd"]),
            irsd=float(item["irsd"]),
            count=float(item["count"]),
            expected=float(item["expected"]),
            tail_probability=float(item["tail_probability"]),
            threshold=float(item["threshold"]),
            margin=float(item["margin"]),
        ))
    return DecisionEvidence(sst_version=int(payload["sst_version"]),
                            subspaces=tuple(subspaces))


def explain_result(result: DetectionResult) -> Dict[str, object]:
    """One scored point as a self-contained explanation payload.

    ``"point"`` is ``None`` for a result that carries no point (an unflagged
    result rebuilt from a service's result log).
    """
    record: Dict[str, object] = {
        "schema": EXPLAIN_SCHEMA,
        "index": result.index,
        "point": None if result.point is None else list(result.point),
        "is_outlier": result.is_outlier,
        "score": result.score,
        "outlying_subspaces": [list(s.dimensions)
                               for s in result.outlying_subspaces],
    }
    if result.decision is not None:
        record["decision"] = decision_to_dict(result.decision)
    return record


def format_explanation(payload: Dict[str, object]) -> str:
    """Human-readable rendering of :func:`explain_result` output."""
    lines: List[str] = []
    verdict = "OUTLIER" if payload.get("is_outlier") else "regular"
    lines.append(f"point #{payload.get('index')}: {verdict} "
                 f"(score={payload.get('score', 0.0):.4f})")
    decision: Optional[Dict[str, object]] = payload.get("decision")
    if decision is None:
        lines.append("  (no decision evidence recorded — "
                     "enable evidence capture to see why)")
        return "\n".join(lines)
    lines.append(f"  SST version {decision.get('sst_version')}")
    for item in decision.get("subspaces", []):
        dims = ",".join(str(d) for d in item["subspace"])
        cell = ",".join(str(c) for c in item["cell"])
        lines.append(
            f"  subspace ({dims}) cell ({cell}): rule={item['rule']} "
            f"rd={item['rd']:.6f} irsd={item['irsd']:.6f} "
            f"count={item['count']:.3f} expected={item['expected']:.3f} "
            f"margin={item['margin']:.3e}")
    return "\n".join(lines)
