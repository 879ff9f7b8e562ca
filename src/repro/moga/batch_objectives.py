"""Population-vectorized sparsity objectives for the learning stack.

:class:`BatchSparsityObjectives` is the NumPy twin of
:class:`~repro.moga.objectives.SparsityObjectives`, built on the same
engine-agnostic kernels (:mod:`repro.core.kernels`) that power the vectorized
detection store.  Instead of re-quantising the training batch and walking a
Python dict of accumulators for every candidate subspace, it

* quantises the training batch (and the target points) **once** at
  construction into an ``(n, phi)`` integer index matrix,
* scores an **entire MOGA population** of same-width subspaces in one fused
  pass: every subspace's cell keys are mixed-radix packed into a disjoint
  ``int64`` range (:func:`~repro.core.kernels.pack_with_offsets`), a single
  ``np.unique`` groups the cells of all of them, and 2k+1 ``np.bincount``
  scatter-adds produce every cell's (count, linear-sum, squared-sum) moments,
* derives the per-target RD / IRSD vectors and the dimension penalty from
  those moments with the shared :func:`~repro.core.kernels.batch_irsd` kernel,
* memoises the objective vector per subspace, exactly like the reference.

**Exact decision parity** is the contract, not a best-effort goal: given the
same training batch, targets and grid, ``evaluate`` returns bit-identical
objective tuples to the reference oracle, so a seeded MOGA run produces the
identical Pareto front, archive order and sparsity scores on either engine.
That holds because every float reduction here replays the reference's
accumulation order — ``np.bincount`` folds weights in input (stream) order,
``np.cumsum`` sums targets left to right, and the per-dimension expectation
product multiplies in subspace-dimension order.  ``tests/test_moga_parity.py``
enforces the contract on randomized instances.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.exceptions import ConfigurationError
from ..core.grid import Grid
from ..core.kernels import (
    batch_irsd,
    group_moments,
    marginal_histograms,
    pack_with_offsets,
    quantize_batch,
    sequential_row_sums,
)
from ..core.subspace import Subspace
from .objectives import (
    ObjectiveMemoView,
    SparsityObjectives,
    memo_cache_bytes,
    score_objective_vector,
)

_INT64_MAX = np.iinfo(np.int64).max


class BatchSparsityObjectives:
    """Multi-objective sparsity evaluation, vectorized over whole populations.

    Drop-in replacement for :class:`SparsityObjectives` (same constructor
    contract, same ``evaluate`` / ``sparsity_score`` / ``evaluated_subspaces``
    surface, bit-identical objective vectors) plus
    :meth:`evaluate_population`, which the MOGA engine feeds whole
    generations to.  Selected via ``SPOTConfig.engine == "vectorized"``.
    """

    #: Number of objective components returned by :meth:`evaluate`.
    N_OBJECTIVES = 3

    def __init__(self,
                 training_data: Sequence[Sequence[float]],
                 grid: Grid,
                 *,
                 target_points: Optional[Sequence[Sequence[float]]] = None,
                 irsd_cap: float = 100.0,
                 density_reference: str = "hybrid",
                 memo: Optional[ObjectiveMemoView] = None) -> None:
        self._X = self._as_matrix(training_data, grid.phi, "training")
        if self._X.shape[0] == 0:
            raise ConfigurationError("training_data must not be empty")
        if density_reference not in ("hybrid", "marginal", "populated", "lattice"):
            raise ConfigurationError(
                "density_reference must be 'hybrid', 'marginal', 'populated' "
                f"or 'lattice', got {density_reference!r}"
            )
        self._density_reference = density_reference
        self._grid = grid
        self._irsd_cap = irsd_cap
        self._memo = memo
        m = grid.cells_per_dimension
        lows = np.asarray(grid.bounds.lows, dtype=np.float64)
        widths = np.asarray(grid.cell_widths, dtype=np.float64)
        self._idx = quantize_batch(self._X, lows, widths, m)
        # Per-dimension marginal histograms of the batch, used by the
        # independence expectation (hybrid / marginal references).
        self._marginals = marginal_histograms(self._idx, m)
        if target_points is None:
            self._tidx = self._idx
        else:
            T = self._as_matrix(target_points, grid.phi, "target")
            if T.shape[0] == 0:
                raise ConfigurationError("target_points must not be empty")
            self._tidx = quantize_batch(T, lows, widths, m)
        self._total = float(self._X.shape[0])
        self._ustd = np.array([grid.uniform_cell_std(d)
                               for d in range(grid.phi)], dtype=np.float64)
        self._cache: Dict[Subspace, Tuple[float, ...]] = {}
        self._evaluations = 0

    @staticmethod
    def _as_matrix(points, phi: int, what: str) -> np.ndarray:
        if isinstance(points, np.ndarray):
            # Snapshot, never alias: the reference oracle copies the batch
            # into tuples at construction, so callers may reuse their buffer
            # without invalidating memoised objective vectors.
            X = np.array(points, dtype=np.float64)
            if X.ndim == 1:
                X = X.reshape(-1, phi) if X.size else X.reshape(0, phi)
        else:
            try:
                X = np.array([tuple(float(v) for v in point)
                              for point in points], dtype=np.float64)
            except ValueError as exc:  # ragged rows
                raise ConfigurationError(
                    f"{what} points disagree in dimensionality: {exc}"
                ) from None
            if X.ndim == 1:  # empty input collapses to 1-d
                X = X.reshape(0, phi)
        if X.shape[0] and X.shape[1] != phi:
            raise ConfigurationError(
                f"{what} point of length {X.shape[1]} does not match "
                f"the {phi}-dimensional grid"
            )
        return X

    # ------------------------------------------------------------------ #
    @property
    def phi(self) -> int:
        """Dimensionality of the data space."""
        return self._grid.phi

    @property
    def evaluations(self) -> int:
        """Number of distinct subspaces evaluated so far (cache misses)."""
        return self._evaluations

    @property
    def grid(self) -> Grid:
        """The grid geometry used for the sparsity computation."""
        return self._grid

    # ------------------------------------------------------------------ #
    def evaluate(self, subspace: Subspace) -> Tuple[float, ...]:
        """Objective vector (lower is sparser/better) of ``subspace``."""
        cached = self._cache.get(subspace)
        if cached is not None:
            return cached
        return self.evaluate_population([subspace])[0]

    def evaluate_population(self, subspaces: Sequence[Subspace]
                            ) -> List[Tuple[float, ...]]:
        """Objective vectors of a whole population, in a few fused passes.

        Uncached subspaces are grouped by width and each group is scored in
        one ``np.unique`` + ``np.bincount`` sweep over the training batch;
        results land in the memo cache in first-occurrence order — the same
        order a sequential ``evaluate`` loop would produce, so the archive
        (:meth:`evaluated_subspaces`) is identical across engines.
        """
        pending: List[Subspace] = []
        seen = set()
        for subspace in subspaces:
            if subspace not in self._cache and subspace not in seen:
                seen.add(subspace)
                pending.append(subspace)
        if pending:
            # Cross-search memo hits are collected into `results` (not the
            # local cache directly) so the archive below still fills in
            # first-occurrence order, identical to a sequential evaluate loop.
            results: Dict[Subspace, Tuple[float, ...]] = {}
            if self._memo is not None:
                for subspace in pending:
                    memoised = self._memo.lookup(subspace)
                    if memoised is not None:
                        results[subspace] = memoised
            by_width: Dict[int, List[Subspace]] = {}
            for subspace in pending:
                if subspace in results:
                    continue
                subspace.validate_against(self.phi)
                by_width.setdefault(len(subspace), []).append(subspace)
            for width, group in by_width.items():
                self._evaluate_width_group(width, group, results)
            for subspace in pending:
                self._cache[subspace] = results[subspace]
            for width_group in by_width.values():
                for subspace in width_group:
                    self._evaluations += 1
                    if self._memo is not None:
                        self._memo.store(subspace, results[subspace])
        return [self._cache[subspace] for subspace in subspaces]

    # ------------------------------------------------------------------ #
    def _evaluate_width_group(self, k: int, group: List[Subspace],
                              results: Dict[Subspace, Tuple[float, ...]]
                              ) -> None:
        m = self._grid.cells_per_dimension
        span = m ** k  # exact Python int — no overflow
        dims_mat = np.array([s.dimensions for s in group], dtype=np.int64)
        if span - 1 > _INT64_MAX:
            # Keys of even a single subspace overflow int64: group on raw
            # index rows instead of packed scalars, one subspace at a time.
            for i, subspace in enumerate(group):
                self._evaluate_rows(subspace, dims_mat[i:i + 1], k, results)
            return
        # One fused pass per chunk of subspaces whose offset key ranges all
        # fit in int64 side by side.
        max_s = max(1, _INT64_MAX // span)
        for start in range(0, len(group), max_s):
            chunk = group[start:start + max_s]
            self._evaluate_packed(chunk, dims_mat[start:start + len(chunk)],
                                  k, results)

    def _evaluate_packed(self, group: List[Subspace], dims_mat: np.ndarray,
                         k: int, results: Dict[Subspace, Tuple[float, ...]]
                         ) -> None:
        """Fused scoring of ``S`` same-width subspaces via offset-packed keys."""
        S = len(group)
        m = self._grid.cells_per_dimension
        span = m ** k
        n = self._idx.shape[0]
        t = self._tidx.shape[0]
        data_keys = pack_with_offsets(self._idx, dims_mat, m)
        assert data_keys is not None  # chunking above guarantees packability
        flat_data = data_keys.ravel(order="F")
        if self._tidx is self._idx:
            uniq, inv = np.unique(flat_data, return_inverse=True)
            inv = inv.reshape(-1)
            data_inv = inv
            target_inv = inv.reshape(S, t)
        else:
            flat_targets = pack_with_offsets(
                self._tidx, dims_mat, m).ravel(order="F")
            uniq, inv = np.unique(np.concatenate([flat_data, flat_targets]),
                                  return_inverse=True)
            inv = inv.reshape(-1)
            data_inv = inv[:S * n]
            target_inv = inv[S * n:].reshape(S, t)

        # Per-cell moments over the *data* rows only; column j of the value
        # matrix holds attribute dims_mat[s, j] of every point, per-subspace
        # blocks stacked in stream order (bincount therefore accumulates each
        # cell's sums in exactly the reference accumulator's order).
        values = np.empty((S * n, k), dtype=np.float64)
        for j in range(k):
            values[:, j] = self._X[:, dims_mat[:, j]].ravel(order="F")
        count, lin, sq = group_moments(data_inv, len(uniq), values)

        # Populated-cell count per subspace (target-only groups hold no mass).
        group_sub = uniq // span
        populated = np.bincount(group_sub[count > 0.0], minlength=S)
        self._finish(group, dims_mat, k, count, lin, sq, populated,
                     target_inv, results)

    def _evaluate_rows(self, subspace: Subspace, dims_mat: np.ndarray,
                       k: int, results: Dict[Subspace, Tuple[float, ...]]
                       ) -> None:
        """Fallback for subspaces whose packed key range overflows int64."""
        dims = dims_mat[0]
        n = self._idx.shape[0]
        rows = self._idx[:, dims]
        if self._tidx is self._idx:
            all_rows = rows
        else:
            all_rows = np.concatenate([rows, self._tidx[:, dims]], axis=0)
        uniq, inv = np.unique(all_rows, axis=0, return_inverse=True)
        inv = inv.reshape(-1)
        data_inv = inv[:n]
        target_inv = (data_inv if self._tidx is self._idx
                      else inv[n:]).reshape(1, -1)
        count, lin, sq = group_moments(data_inv, uniq.shape[0],
                                       self._X[:, dims])
        populated = np.array([int(np.count_nonzero(count > 0.0))])
        self._finish([subspace], dims_mat, k, count, lin, sq, populated,
                     target_inv, results)

    def _finish(self, group: List[Subspace], dims_mat: np.ndarray, k: int,
                count: np.ndarray, lin: np.ndarray, sq: np.ndarray,
                populated: np.ndarray, target_inv: np.ndarray,
                results: Dict[Subspace, Tuple[float, ...]]) -> None:
        """Per-target RD/IRSD vectors and objective means from cell moments."""
        S, t = target_inv.shape
        total = self._total
        tc = count[target_inv]          # (S, t) target-cell masses
        tlin = lin[target_inv]          # (S, t, k)
        tsq = sq[target_inv]
        # A target in a cell no training point populates is skipped by the
        # reference (no accumulator to score) — it contributes zero.
        exists = tc > 0.0

        reference = self._density_reference
        if reference == "lattice":
            expected = np.full((S, t), total / self._grid.cell_count(group[0]))
        elif reference == "populated" or (reference == "hybrid" and k == 1):
            per_sub = np.array([total / max(1, int(c)) for c in populated])
            expected = np.broadcast_to(per_sub[:, None], (S, t)).copy()
        else:  # marginal, or hybrid with k > 1: independence expectation
            expected = np.full((S, t), total)
            for j in range(k):
                d = dims_mat[:, j]                       # (S,)
                tcols = self._tidx[:, d].T               # (S, t)
                mvals = np.take_along_axis(self._marginals[d], tcols, axis=1)
                expected *= mvals / total
        supported = expected > 0.0
        live = exists & supported

        # Exclude the target's own unit contribution so a point does not mask
        # its own sparsity (the detection stage does the same).
        count_excl = np.maximum(0.0, tc - 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            rd = np.where(live, count_excl / expected, 0.0)
        ustd = self._ustd[dims_mat][:, None, :]          # (S, 1, k)
        irsd = np.where(live, batch_irsd(tc, tlin, tsq, ustd, self._irsd_cap),
                        0.0)

        rd_mean = sequential_row_sums(rd) / t
        irsd_mean = sequential_row_sums(irsd) / t
        phi = self.phi
        for i, subspace in enumerate(group):
            results[subspace] = (float(rd_mean[i]), float(irsd_mean[i]),
                                 len(subspace) / phi)

    # ------------------------------------------------------------------ #
    def evaluated_subspaces(self) -> List[Subspace]:
        """Every distinct subspace evaluated so far (the search's archive)."""
        return list(self._cache)

    def sparsity_score(self, subspace: Subspace) -> float:
        """Scalar summary used for ranking outside the GA (lower = sparser).

        The shared :func:`~repro.moga.objectives.score_objective_vector`
        formula over this engine's (bit-identical) objective vector.
        """
        return score_objective_vector(self.evaluate(subspace), self._irsd_cap)

    def memory_footprint(self) -> Dict[str, int]:
        """Learning-side memory: memo cache and resident training arrays."""
        memo_bytes = memo_cache_bytes(self._cache)
        batch_bytes = self._X.nbytes + self._idx.nbytes + self._marginals.nbytes
        if self._tidx is not self._idx:
            batch_bytes += self._tidx.nbytes
        return {
            "memo_entries": len(self._cache),
            "memo_bytes": memo_bytes,
            "training_batch_bytes": batch_bytes,
        }


def make_sparsity_objectives(training_data, grid, *,
                             engine: str = "vectorized",
                             target_points=None,
                             irsd_cap: float = 100.0,
                             density_reference: str = "hybrid",
                             memo: Optional[ObjectiveMemoView] = None):
    """Build the sparsity objectives matching a ``SPOTConfig.engine`` value.

    ``"python"`` returns the reference :class:`SparsityObjectives` (the parity
    oracle); ``"vectorized"`` returns :class:`BatchSparsityObjectives`.  Both
    produce bit-identical objective vectors — the switch only trades
    interpreter loops for fused array passes.  ``memo`` shares evaluations
    across searches on one reservoir version.
    """
    if engine not in ("python", "vectorized"):
        raise ConfigurationError(
            f"engine must be 'python' or 'vectorized', got {engine!r}"
        )
    if engine == "vectorized":
        return BatchSparsityObjectives(
            training_data, grid, target_points=target_points,
            irsd_cap=irsd_cap, density_reference=density_reference, memo=memo)
    return SparsityObjectives(training_data, grid, target_points=target_points,
                              irsd_cap=irsd_cap,
                              density_reference=density_reference, memo=memo)
