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

from repro.compression.api import Compressor, CompressorSpec, resolve_compressor
from repro.models.calibration import check_probe_mode
from repro.parallel.backends import SnapshotResult
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
        not arbitrary callables) and a compressor that can be probed
        codec-free (:func:`~repro.models.calibration.check_probe_mode`).
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
        self.compressor = resolve_compressor(compressor)
        self.probe_mode = check_probe_mode(probe_mode, self.compressor)
        if confirm not in ("always", "never"):
            raise ValueError(f"confirm must be 'always' or 'never', got {confirm!r}")
        if probe_mode == "model" and criteria is None:
            raise ValueError(
                'probe_mode="model" needs criteria (the ratio-quality engine '
                "predicts criteria verdicts, not arbitrary quality callables)"
            )
        self.quality_check = quality_check
        self.criteria = criteria
        self.confirm = confirm
        self.trials: list[TrialRecord] = []

    def search(
        self,
        data: np.ndarray,
        decomposition: BlockDecomposition,
        candidate_ebs: Sequence[float],
    ) -> SnapshotResult:
        """Return the static result at the largest passing candidate bound.

        Candidates are tried in descending order, one loop for both
        modes: probe (``"model"`` only) → decide whether to measure →
        measure.  A measured trial costs a full compress + decompress +
        analysis pass (the expense the paper's models eliminate); a
        candidate the model predicts to fail is recorded with its
        *predicted* ratio and metric — nothing was compressed for it,
        which is the point.  ``trials`` restarts on every call.  Raises
        if no candidate passes.
        """
        from repro.foresight.evaluator import FieldReference, QualityEvaluator
        from repro.models.rq_model import RQModel

        candidates = sorted(set(float(e) for e in candidate_ebs), reverse=True)
        if not candidates:
            raise ValueError("need at least one candidate error bound")
        if any(e <= 0 for e in candidates):
            raise ValueError("candidate error bounds must be positive")
        baseline = StaticBaseline(self.compressor)
        ref = FieldReference(data)
        rq = RQModel(ref, self.criteria) if self.probe_mode == "model" else None
        views = decomposition.partition_views(data)
        evaluator: QualityEvaluator | None = None
        self.trials = []
        for eb in candidates:
            pred = None if rq is None else rq.probe(self.compressor, views, eb)
            result = None
            if pred is not None and not pred.passed:
                passed, ratio = False, pred.predicted_ratio
                metric = pred.spectrum_worst_deviation
            else:
                result = baseline.run(data, decomposition, eb)
                ratio = result.overall_ratio
                if pred is not None and self.confirm == "never":
                    passed, metric = True, pred.spectrum_worst_deviation
                elif self.criteria is not None:
                    if evaluator is None:
                        evaluator = QualityEvaluator(criteria=self.criteria, reference=ref)
                    report = evaluator.evaluate(result.reconstruct(decomposition))
                    passed, metric = report.passed, report.spectrum_worst_deviation
                else:
                    passed, metric = self.quality_check(
                        ref.f64, result.reconstruct(decomposition)
                    )
            self.trials.append(
                TrialRecord(eb=eb, passed=passed, ratio=ratio, quality_metric=metric)
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
