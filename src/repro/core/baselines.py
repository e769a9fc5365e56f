"""Baselines the paper compares against (§4).

- :class:`StaticBaseline` — the "traditional method": one error bound
  for the whole dataset, every partition compressed identically.
- :class:`TrialAndErrorSearch` — the Foresight-style broad-spectrum
  search: try bounds from a grid, run the *actual* post-hoc analysis on
  the decompressed data, keep the largest bound that passes.  This is
  the expensive empirical procedure (§4.3: compression + decompression
  + analysis per trial) the models make unnecessary.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.foresight.quality import QualityCriteria

from repro.compression.api import (
    Compressor,
    CompressorSpec,
    capabilities_of,
    decompress_many,
    resolve_compressor,
)
from repro.compression.stats import CompressionStats
from repro.compression.sz import CompressedBlock
from repro.models.calibration import check_probe_mode
from repro.parallel.decomposition import BlockDecomposition
from repro.util.timer import TimingBreakdown

__all__ = ["StaticBaseline", "StaticResult", "TrialAndErrorSearch", "TrialRecord"]


@dataclass
class StaticResult:
    """Outcome of compressing every partition at one bound."""

    eb: float
    blocks: list[CompressedBlock]
    timings: TimingBreakdown

    @property
    def stats(self) -> CompressionStats:
        return CompressionStats.from_blocks(self.blocks)

    @property
    def overall_ratio(self) -> float:
        return self.stats.overall_ratio

    @property
    def overall_bit_rate(self) -> float:
        return self.stats.overall_bit_rate

    def reconstruct(
        self, decomposition: BlockDecomposition, dtype=np.float64, threads: int | None = None
    ) -> np.ndarray:
        return decomposition.assemble(decompress_many(self.blocks, threads), dtype=dtype)


class StaticBaseline:
    """Traditional static configuration: one bound for every partition.

    Accepts any registry-resolvable compressor (instance, spec, spec
    string or ``None`` for the SZ default).  Fixed-rate families are
    permitted here — the baseline just calls ``compress(view, eb)`` and
    such codecs ignore the bound — which is exactly how
    :func:`~repro.core.selection.select_compressor` measures their
    error-bound violation.
    """

    def __init__(
        self, compressor: "Compressor | CompressorSpec | str | None" = None
    ) -> None:
        self.compressor = resolve_compressor(compressor)

    def run(
        self, data: np.ndarray, decomposition: BlockDecomposition, eb: float
    ) -> StaticResult:
        if eb <= 0:
            raise ValueError(f"error bound must be positive, got {eb}")
        timings = TimingBreakdown()
        blocks = []
        with timings.phase("compress"):
            for view in decomposition.partition_views(data):
                blocks.append(self.compressor.compress(view, eb))
        return StaticResult(eb=float(eb), blocks=blocks, timings=timings)


@dataclass
class TrialRecord:
    """One trial of the empirical search."""

    eb: float
    passed: bool
    ratio: float
    quality_metric: float


class TrialAndErrorSearch:
    """Foresight-style empirical bound selection.

    Parameters
    ----------
    quality_check:
        Callable ``(original, reconstructed) -> (passed, metric)`` — e.g.
        :func:`repro.analysis.spectrum.check_spectrum_quality` or a halo
        criterion.  Mutually exclusive with ``criteria``.
    compressor:
        Error-bounded compressor to trial.
    criteria:
        A :class:`~repro.foresight.quality.QualityCriteria` instead of a
        callable: the search then builds one reference-cached
        :class:`~repro.foresight.evaluator.QualityEvaluator` per
        :meth:`search` call, so the original field's spectrum/halo
        analyses are computed once instead of once per trial.  A trial
        passes when the full report does; the recorded metric is the
        worst spectrum deviation.
    probe_mode:
        ``"exact"`` (default) runs the full compress→decompress→analyze
        pass per trial.  ``"model"`` screens candidates with the
        closed-form ratio-quality engine (:mod:`repro.models.rq_model`)
        — one batched quantization probe per candidate, no codec, no
        decompression — and only ever *compresses* the predicted winner.
        Requires ``criteria`` (the engine predicts criteria verdicts,
        not arbitrary callables) and a compressor with the
        ``supports_estimate`` capability.
    confirm:
        Exact-confirmation policy for ``probe_mode="model"``:
        ``"always"`` (default) runs one real trial on the predicted
        winner and falls through to the next candidate if it fails —
        the result is then *verified*, with the whole grid still probed
        analytically; ``"never"`` trusts the prediction outright (the
        returned result is compressed but its quality never measured).
    """

    def __init__(
        self,
        quality_check: Callable[[np.ndarray, np.ndarray], tuple[bool, float]] | None = None,
        compressor: "Compressor | CompressorSpec | str | None" = None,
        criteria: "QualityCriteria | None" = None,
        probe_mode: str = "exact",
        confirm: str = "always",
    ) -> None:
        if (quality_check is None) == (criteria is None):
            raise ValueError("provide exactly one of quality_check or criteria")
        check_probe_mode(probe_mode, allowed=("exact", "model"))
        if confirm not in ("always", "never"):
            raise ValueError(f"confirm must be 'always' or 'never', got {confirm!r}")
        if probe_mode == "model" and criteria is None:
            raise ValueError(
                'probe_mode="model" needs criteria (the ratio-quality engine '
                "predicts criteria verdicts, not arbitrary quality callables)"
            )
        self.quality_check = quality_check
        self.criteria = criteria
        self.compressor = resolve_compressor(compressor)
        self.probe_mode = probe_mode
        self.confirm = confirm
        if probe_mode == "model":
            capabilities_of(self.compressor).require(
                "supports_estimate",
                'probe_mode="model" (closed-form ratio-quality prediction)',
                who=self.compressor,
            )
        self.trials: list[TrialRecord] = []

    def search(
        self,
        data: np.ndarray,
        decomposition: BlockDecomposition,
        candidate_ebs: Sequence[float],
    ) -> StaticResult:
        """Return the static result at the largest passing candidate bound.

        Candidates are tried in descending order; every trial costs a
        full compress + decompress + analysis pass (the expense the
        paper's models eliminate).  Raises if no candidate passes.
        """
        candidates = sorted(set(float(e) for e in candidate_ebs), reverse=True)
        if not candidates:
            raise ValueError("need at least one candidate error bound")
        if any(e <= 0 for e in candidates):
            raise ValueError("candidate error bounds must be positive")
        baseline = StaticBaseline(self.compressor)
        if self.probe_mode == "model":
            return self._model_search(data, decomposition, candidates, baseline)
        evaluator = None
        if self.criteria is not None:
            from repro.foresight.evaluator import QualityEvaluator

            evaluator = QualityEvaluator(data, self.criteria)
        self.trials = []
        for eb in candidates:
            result = baseline.run(data, decomposition, eb)
            recon = result.reconstruct(decomposition)
            if evaluator is not None:
                report = evaluator.evaluate(recon)
                passed, metric = report.passed, report.spectrum_worst_deviation
            else:
                assert self.quality_check is not None
                passed, metric = self.quality_check(
                    np.asarray(data, dtype=np.float64), recon
                )
            self.trials.append(
                TrialRecord(eb=eb, passed=passed, ratio=result.overall_ratio, quality_metric=metric)
            )
            if passed:
                return result
        raise ValueError(
            "no candidate error bound satisfied the quality check; smallest "
            f"tried was {candidates[-1]}"
        )

    def _model_search(
        self,
        data: np.ndarray,
        decomposition: BlockDecomposition,
        candidates: list[float],
        baseline: StaticBaseline,
    ) -> StaticResult:
        """The predicted-quality fast path: probe the whole grid
        analytically, compress only (predicted) winners.

        Failing candidates are recorded with their *predicted* ratio and
        metric — nothing was compressed for them, which is the point.
        """
        from repro.foresight.evaluator import FieldReference, QualityEvaluator
        from repro.models.rq_model import RQModel

        ref = FieldReference(data)
        rq = RQModel(ref, self.criteria)
        views = decomposition.partition_views(data)
        evaluator: QualityEvaluator | None = None
        for eb in candidates:
            pred = rq.probe(self.compressor, views, eb)
            if not pred.passed:
                self.trials.append(
                    TrialRecord(
                        eb=eb,
                        passed=False,
                        ratio=pred.predicted_ratio,
                        quality_metric=pred.spectrum_worst_deviation,
                    )
                )
                continue
            result = baseline.run(data, decomposition, eb)
            if self.confirm == "never":
                self.trials.append(
                    TrialRecord(
                        eb=eb,
                        passed=True,
                        ratio=result.overall_ratio,
                        quality_metric=pred.spectrum_worst_deviation,
                    )
                )
                return result
            recon = result.reconstruct(decomposition)
            if evaluator is None:
                evaluator = QualityEvaluator(data, self.criteria, reference=ref)
            report = evaluator.evaluate(recon)
            self.trials.append(
                TrialRecord(
                    eb=eb,
                    passed=report.passed,
                    ratio=result.overall_ratio,
                    quality_metric=report.spectrum_worst_deviation,
                )
            )
            if report.passed:
                return result
        raise ValueError(
            "no candidate error bound satisfied the quality check; smallest "
            f"tried was {candidates[-1]}"
        )

    @property
    def n_trials(self) -> int:
        return len(self.trials)
