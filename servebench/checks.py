"""Correctness checks of one benchmark run, made after the measured window.

Each check returns a list of problems (empty when it passes), so a run can
report every failed check at once and the tests can feed each check a
deliberately corrupted output.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro import SPOT
from repro.persist.serialization import (
    clone_detector,
    detector_state_to_dict,
    load_detector,
)
from repro.service import CheckpointManager, DetectionService, ServiceResult

#: Largest score difference accepted between the served decision and a
#: replay of the same sub-stream (see the README for the derivation).
SCORE_TOLERANCE = 1e-9
#: Recall of the planted outliers a run must reach (README derives it).
RECALL_FLOOR = 0.5


def flagged_ceiling(outlier_rate: float, rd_threshold: float) -> float:
    """Largest share of the stream a run may flag (README derives it)."""
    return outlier_rate + rd_threshold


def check_complete(results: Sequence[ServiceResult], n_submitted: int,
                   tenant_of: Sequence[str]) -> Tuple[List[str], int]:
    """One ``ok`` result per submitted point; tenants stay on one shard;
    each shard's detector index rises in submission order.

    Returns the problems and the failed points: submitted points without
    exactly one ``ok`` result.
    """
    problems: List[str] = []
    seen: Dict[int, int] = defaultdict(int)
    good: Dict[int, int] = defaultdict(int)
    for r in results:
        seen[r.seq] += 1
        if r.outcome == "ok" and r.result is not None:
            good[r.seq] += 1
    failed = sum(1 for s in range(n_submitted) if good.get(s) != 1)
    missing = [s for s in range(n_submitted) if seen.get(s, 0) == 0]
    doubled = sorted(s for s, k in seen.items() if k > 1)
    stray = sorted(s for s in seen if not 0 <= s < n_submitted)
    if missing:
        problems.append(f"{len(missing)} submitted points have no result "
                        f"(first seq {missing[0]})")
    if doubled:
        problems.append(f"{len(doubled)} points have several results "
                        f"(first seq {doubled[0]})")
    if stray:
        problems.append(f"results for unsubmitted seqs (first {stray[0]})")
    not_ok = [r.seq for r in results if r.outcome != "ok" or r.result is None]
    if not_ok:
        problems.append(f"{len(not_ok)} results are not 'ok' "
                        f"(first seq {not_ok[0]})")
    shards_of: Dict[str, set] = defaultdict(set)
    for r in results:
        if 0 <= r.seq < n_submitted and r.stream_id != tenant_of[r.seq]:
            problems.append(f"seq {r.seq} delivered for stream "
                            f"{r.stream_id!r}, submitted for "
                            f"{tenant_of[r.seq]!r}")
            break
        shards_of[r.stream_id].add(r.shard)
    split = sorted(t for t, shards in shards_of.items() if len(shards) > 1)
    if split:
        problems.append(f"tenants served by several shards: {split}")
    for shard, items in _by_shard(results).items():
        indices = [r.result.index for r in items if r.result is not None]
        for before, after in zip(indices, indices[1:]):
            if after != before + 1:
                problems.append(f"shard {shard}: detector index {after} "
                                f"follows {before} in submission order")
                break
    return problems, failed


def _by_shard(results: Sequence[ServiceResult]
              ) -> Dict[int, List[ServiceResult]]:
    shards: Dict[int, List[ServiceResult]] = defaultdict(list)
    for r in sorted(results, key=lambda r: r.seq):
        shards[r.shard].append(r)
    return dict(shards)


def _compare(label: str, expected, got) -> List[str]:
    """Flags identical and scores within tolerance, point by point."""
    for k, (a, b) in enumerate(zip(expected, got)):
        if a.is_outlier != b.is_outlier:
            return [f"{label}: flag differs at point {k} "
                    f"({a.is_outlier} vs {b.is_outlier})"]
        if abs(a.score - b.score) > SCORE_TOLERANCE:
            return [f"{label}: score differs at point {k} by "
                    f"{abs(a.score - b.score):.3g}"]
    if len(expected) != len(got):
        return [f"{label}: {len(got)} results for {len(expected)} points"]
    return []


def check_parity(prototype: SPOT, results: Sequence[ServiceResult],
                 rows: Sequence[tuple], max_batch: int,
                 prefix: Optional[int] = None) -> Tuple[List[str], int, float]:
    """Replay each shard's sub-stream through a fresh clone of the prototype.

    ``rows[seq]`` is the point submitted as ``seq``.  The replay feeds
    chunks of at most ``max_batch`` points (a clone runs any online learning
    inline) and compares each chunk as it goes, keeping no replayed results.
    Returns the problems, the points replayed and the replay's wall time.
    """
    problems: List[str] = []
    replayed = 0
    seconds = 0.0
    for shard, items in _by_shard(results).items():
        items = [r for r in items if r.result is not None]
        if prefix is not None:
            items = items[:prefix]
        detector = clone_detector(prototype)
        for k in range(0, len(items), max_batch):
            chunk = items[k:k + max_batch]
            started = time.perf_counter()
            replay = detector.process_batch([rows[r.seq] for r in chunk])
            seconds += time.perf_counter() - started
            replayed += len(chunk)
            found = _compare(f"shard {shard} replay from point {k}",
                             [r.result for r in chunk], replay)
            found += [f"shard {shard}: served index {r.result.index} "
                      f"replays as {again.index}"
                      for r, again in zip(chunk, replay)
                      if r.result.index != again.index][:1]
            if found:
                problems += found
                break
    return problems, replayed, seconds


def reference_detector(prototype: SPOT, training: Sequence[tuple],
                       scratch: Path) -> SPOT:
    """The served template on the reference ``"python"`` engine.

    The template (configuration, SST and grid bounds) goes into a fresh
    ``"python"``-engine detector through ``save_detector`` and
    ``load_detector``, with online adaptation off, and the training set is
    folded into its store as ``SPOT.learn`` does after its search, so it
    starts from the summaries the served fleet started from.
    """
    state = detector_state_to_dict(prototype)
    state["config"].update(engine="python", os_growth_enabled=False,
                           self_evolution_period=0, relearn_period=0)
    path = scratch / "reference-detector.json"
    path.write_text(json.dumps(state))
    reference = load_detector(path)
    reference.store.ingest(training)
    return reference


def check_oracle(reference: SPOT, results: Sequence[ServiceResult],
                 rows: Sequence[tuple], prefix: int
                 ) -> Tuple[List[str], int, int]:
    """The reference engine makes the served decisions.

    A clone of ``reference`` (see :func:`reference_detector`) runs each
    shard's sub-stream prefix through ``process``, point by point, and must
    give the served flags, with scores within ``SCORE_TOLERANCE``.  Where
    the served results carry decision evidence, the prefix ends at the
    first point decided by a template that online learning had changed.
    Returns the problems, the points compared and the flagged points among
    them.
    """
    problems: List[str] = []
    compared = flagged = 0
    for shard, items in _by_shard(results).items():
        items = [r for r in items if r.result is not None][:prefix]
        first = items[0].result.decision if items else None
        if first is not None:
            items = items[:next(
                (k for k, r in enumerate(items) if r.result.decision is None
                 or r.result.decision.sst_version != first.sst_version),
                len(items))]
        detector = clone_detector(reference)
        expected = [detector.process(rows[r.seq]) for r in items]
        problems += _compare(f"shard {shard} engine oracle", expected,
                             [r.result for r in items])
        compared += len(items)
        flagged += sum(r.is_outlier for r in items)
    return problems, compared, flagged


def check_quality(results: Sequence[ServiceResult], labels: Sequence[bool],
                  outlier_rate: float, rd_threshold: float
                  ) -> Tuple[List[str], float, float]:
    """Recall of the planted outliers and the flagged share of the stream.

    ``labels[seq]`` says whether the point submitted as ``seq`` is a
    planted outlier.  Returns the problems, the recall and the share.
    """
    scored = [r for r in results if r.result is not None]
    flags = [r.is_outlier for r in scored]
    planted = [r.is_outlier for r in scored if labels[r.seq]]
    recall = sum(planted) / len(planted) if planted else 1.0
    share = sum(flags) / len(flags) if flags else 0.0
    problems = []
    if recall < RECALL_FLOOR:
        problems.append(f"recall {recall:.3f} of {len(planted)} planted "
                        f"outliers is below the floor {RECALL_FLOOR}")
    ceiling = flagged_ceiling(outlier_rate, rd_threshold)
    if share > ceiling:
        problems.append(f"flagged share {share:.4f} exceeds the ceiling "
                        f"{ceiling:.4f}")
    return problems, recall, share


def expected_checkpoints(n_submitted: int, every: int) -> int:
    """Periodic checkpoints a service takes while ``n_submitted`` points
    are submitted: one whenever ``every`` points have gone in since the
    last, checked before each submit."""
    return (n_submitted - 1) // every if n_submitted > 0 else 0


def check_learning(learning_stats: Optional[Mapping[str, object]],
                   taken: int, expected: int) -> List[str]:
    """Online learning fired and the periodic checkpoints were all taken."""
    problems = []
    kinds = dict((learning_stats or {}).get("kinds") or {})
    if kinds.get("os_growth", 0) <= 0:
        problems.append("no outlier-driven OS growth search ran")
    if kinds.get("self_evolution", 0) <= 0:
        problems.append("no CS self-evolution ran")
    if taken != expected:
        problems.append(f"{taken} checkpoints taken, {expected} expected")
    return problems


def check_restore(checkpoint_dir: Path, results: Sequence[ServiceResult],
                  rows: Sequence[tuple], streams: Sequence[str]
                  ) -> List[str]:
    """The last checkpoint restores into a fleet that makes the live
    fleet's decisions on every point submitted after it."""
    at = int(CheckpointManager(checkpoint_dir).manifest()["points_submitted"])
    live = {r.seq: r for r in results}
    restored = DetectionService.restore(checkpoint_dir).start()
    try:
        for seq in range(at, len(rows)):
            restored.submit(streams[seq], rows[seq])
        restored.drain()
        again = restored.results()
    finally:
        restored.stop()
    pairs = [(live[r.seq].result, r.result) for r in again if r.seq in live]
    problems = _compare(f"restore from point {at}",
                        [p[0] for p in pairs], [p[1] for p in pairs])
    if len(again) != len(rows) - at:
        problems.append(f"restored fleet delivered {len(again)} results "
                        f"for {len(rows) - at} points")
    return problems
