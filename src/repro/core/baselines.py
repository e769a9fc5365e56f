"""Baselines the paper compares against (§4).

- :class:`StaticBaseline` — the "traditional method": one error bound
  for the whole dataset, every partition compressed identically.
- :class:`TrialAndErrorSearch` — the Foresight-style broad-spectrum
  search: try bounds from a grid, run the *actual* post-hoc analysis on
  the decompressed data, keep the largest bound that passes.  This is
  the expensive empirical procedure (§4.3: compression + decompression
  + analysis per trial) the models make unnecessary; every trial is
  exact (model screening is :func:`~repro.foresight.sweep.run_sweep`).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.compression.api import Compressor, CompressorSpec, resolve_compressor
from repro.core.pipeline import SnapshotResult
from repro.parallel.decomposition import BlockDecomposition
from repro.util.timer import TimingBreakdown

__all__ = ["StaticBaseline", "TrialAndErrorSearch", "TrialRecord"]


class StaticBaseline:
    """Traditional static configuration: one bound for every partition.

    Accepts any registry-resolvable compressor (instance, spec, spec
    string or ``None`` for the SZ default).  Fixed-rate families are
    permitted here — the baseline just calls ``compress_many`` with one
    bound for every view and such codecs ignore it — which is exactly how
    :func:`~repro.core.selection.select_compressor` measures their
    error-bound violation.
    """

    def __init__(
        self, compressor: "Compressor | CompressorSpec | str | None" = None
    ) -> None:
        self.compressor = resolve_compressor(compressor)

    def run(
        self, data: np.ndarray, decomposition: BlockDecomposition, eb: float
    ) -> SnapshotResult:
        """The same result type the adaptive path returns, with a
        uniform ``ebs`` vector, no features and no optimization."""
        if eb <= 0:
            raise ValueError(f"error bound must be positive, got {eb}")
        timings = TimingBreakdown()
        views = decomposition.partition_views(data)
        with timings.phase("compress"):
            blocks = self.compressor.compress_many(views, [eb] * len(views))
        return SnapshotResult(
            ebs=np.full(len(blocks), float(eb)),
            blocks=blocks,
            features=[],
            optimization=None,
            timings=timings,
        )


@dataclass
class TrialRecord:
    """One trial of the empirical search."""

    eb: float
    passed: bool
    ratio: float
    quality_metric: float


class TrialAndErrorSearch:
    """Foresight-style empirical bound selection.

    Every trial is exact: compress, decompress, analyse.  Screening
    candidates with the ratio-quality model before measuring them is
    :func:`~repro.foresight.sweep.run_sweep`'s ``probe_mode="model"``.

    Parameters
    ----------
    quality_check:
        Callable ``(original, reconstructed) -> (passed, metric)`` — e.g.
        :func:`repro.analysis.spectrum.check_spectrum_quality` or a halo
        criterion.
    compressor:
        Error-bounded compressor to trial.
    """

    def __init__(
        self,
        quality_check: Callable[[np.ndarray, np.ndarray], tuple[bool, float]],
        compressor: "Compressor | CompressorSpec | str | None" = None,
    ) -> None:
        self.quality_check = quality_check
        self.compressor = resolve_compressor(compressor)
        self.trials: list[TrialRecord] = []

    def search(
        self,
        data: np.ndarray,
        decomposition: BlockDecomposition,
        candidate_ebs: Sequence[float],
    ) -> SnapshotResult:
        """Return the static result at the largest passing candidate bound.

        Candidates are tried in descending order; each trial costs a full
        compress + decompress + analysis pass (the expense the paper's
        models eliminate).  ``trials`` restarts on every call.  Raises if
        no candidate passes.
        """
        candidates = sorted(set(float(e) for e in candidate_ebs), reverse=True)
        if not candidates:
            raise ValueError("need at least one candidate error bound")
        if any(e <= 0 for e in candidates):
            raise ValueError("candidate error bounds must be positive")
        baseline = StaticBaseline(self.compressor)
        original = np.asarray(data, dtype=np.float64)
        self.trials = []
        for eb in candidates:
            result = baseline.run(data, decomposition, eb)
            passed, metric = self.quality_check(
                original, result.reconstruct(decomposition)
            )
            self.trials.append(
                TrialRecord(
                    eb=eb, passed=passed, ratio=result.overall_ratio,
                    quality_metric=metric,
                )
            )
            if passed:
                return result
        raise ValueError(
            "no candidate error bound satisfied the quality check; smallest "
            f"tried was {candidates[-1]}"
        )

    @property
    def n_trials(self) -> int:
        return len(self.trials)
