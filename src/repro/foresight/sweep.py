"""Configuration sweeps: compress -> decompress -> analyze over a grid.

This is the broad-spectrum empirical methodology (Foresight) the paper
uses for ground truth and baselines.  Each record carries rate *and*
quality, so downstream code can pick operating points or validate the
models' predictions.

Rate-curve studies don't need the quality half: ``rate_only=True``
skips decompression and quality evaluation.  ``probe_mode="model"``
skips the entropy codec too: each ``(field, eb)`` cell is sized from
the quantization-code histogram (:mod:`repro.compression.estimator`)
and gets a *predicted* quality report from the closed-form
ratio-quality engine (:mod:`repro.models.rq_model`) — one batched
quantization probe, no compression, no decompression, no
reconstruction analysis — with an exact-confirmation knob
(``confirm=``) that re-runs borderline cells through the real
pipeline.  The two compose: a ``"model"`` sweep with ``rate_only=True``
reads rates off the probe and never builds a field reference.

Quality sweeps share one :class:`~repro.foresight.evaluator.QualityEvaluator`
per field, so the original-side analyses (``rfftn`` power spectrum, halo
catalog, metric moments) run exactly once per field no matter how many
error bounds are trialed.  Each bound is evaluated as soon as it is
compressed, so peak memory holds one bound's blocks, not the ladder's.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.compression.api import (
    Compressor,
    CompressorSpec,
    decompress_any,
    decompress_many,
    resolve_compressor,
)
from repro.foresight.evaluator import FieldReference, QualityEvaluator
from repro.foresight.quality import QualityCriteria, QualityReport
from repro.models.calibration import check_probe_mode
from repro.models.rq_model import RQModel
from repro.parallel.decomposition import BlockDecomposition

__all__ = ["SweepRecord", "run_sweep"]


@dataclass
class SweepRecord:
    """One (field, eb[, compressor]) evaluation.

    ``quality`` is ``None`` for rate-only records (no reconstruction was
    produced), in which case :attr:`passed` is ``None`` as well.
    ``spec`` names the compressor configuration behind the record when
    the sweep fanned over multiple families (``compressors=``); plain
    single-compressor sweeps leave it ``None``, keeping their records
    (and rendered tables/CSV) identical to the historical output.
    """

    field: str
    eb: float
    bit_rate: float
    ratio: float
    quality: QualityReport | None
    spec: CompressorSpec | None = None

    @property
    def passed(self) -> bool | None:
        return self.quality.passed if self.quality is not None else None


def _reconstruct(blocks: list, decomposition: BlockDecomposition | None) -> np.ndarray:
    """One bound's reconstruction: the partitions decoded and reassembled,
    or the one whole-field block decoded."""
    if decomposition is not None:
        return decomposition.assemble(decompress_many(blocks))
    return decompress_any(blocks[0])


def run_sweep(
    fields: dict[str, np.ndarray],
    ebs: Sequence[float],
    criteria: dict[str, QualityCriteria],
    decomposition: BlockDecomposition | None = None,
    compressor: "Compressor | CompressorSpec | str | None" = None,
    rate_only: bool = False,
    probe_mode: str = "exact",
    compressors: "Sequence[Compressor | CompressorSpec | str] | None" = None,
    confirm: str = "never",
) -> list[SweepRecord]:
    """Evaluate every (field, eb) — or (compressor, field, eb) — combination.

    Parameters
    ----------
    fields:
        Field name -> 3-D array.
    ebs:
        Error bounds to trial (absolute).  Fixed-rate families ignore
        them (their records repeat the configured rate per bound) but
        their *quality* still varies per field — which is the point of
        sweeping them.
    criteria:
        Field name -> acceptance criteria (fields without an entry use
        spectrum-only defaults).  Ignored when rates alone are swept.
    decomposition:
        If given, fields are compressed partition-wise (matching the in
        situ layout); otherwise whole-field.
    compressor:
        A single registry-resolvable compressor (instance, spec, spec
        string or ``None`` for the SZ default).
    rate_only:
        Skip decompression and quality evaluation; records carry
        ``quality=None``.
    probe_mode:
        ``"exact"`` (default) runs the full compressor; ``"model"``
        predicts rate *and* quality without running the entropy codec —
        each record's ``quality`` is the ratio-quality engine's
        predicted :class:`QualityReport` (predicted PSNR/NRMSE,
        predicted spectrum and halo verdicts), from one batched
        quantization probe per ``(field, eb)``; with ``rate_only=True``
        only the rate half of the probe is read.  Every swept
        compressor must be able to serve the probe
        (:func:`~repro.models.calibration.check_probe_mode`;
        :class:`~repro.compression.api.UnsupportedCapabilityError`
        otherwise).
    compressors:
        Fan the whole sweep over several compressor configurations (the
        family-ablation mode); any iterable, read once.  Mutually
        exclusive with ``compressor``; each record then carries the
        originating :class:`~repro.compression.api.CompressorSpec` in
        ``record.spec``.
    confirm:
        Exact-confirmation policy for ``probe_mode="model"``:
        ``"never"`` (default) trusts every prediction, ``"boundary"``
        re-runs cells whose predicted verdicts sit within
        :data:`~repro.models.rq_model.BOUNDARY_BAND_FACTOR` of a
        threshold through the real compress→decompress→analyze pipeline
        (replacing both the rate and the quality of that record with
        measurements), ``"always"`` confirms every cell (predictions
        become a cross-check only).
    """
    if not fields:
        raise ValueError("need at least one field")
    if len(ebs) == 0:
        raise ValueError("need at least one error bound")
    if compressors is not None and compressor is not None:
        raise ValueError("pass either compressor or compressors, not both")
    multi = compressors is not None
    if multi:
        # Materialized once: the emptiness check must not spend a generator.
        compressors = list(compressors)
        if not compressors:
            raise ValueError("compressors must name at least one configuration")
    comps = (
        [resolve_compressor(c) for c in compressors]
        if multi
        else [resolve_compressor(compressor)]
    )
    check_probe_mode(probe_mode, *comps)
    if confirm not in ("never", "boundary", "always"):
        raise ValueError(
            f"confirm must be 'never', 'boundary' or 'always', got {confirm!r}"
        )
    if confirm != "never" and probe_mode != "model":
        raise ValueError(
            'confirm applies only to probe_mode="model" '
            f"(got confirm={confirm!r} with probe_mode={probe_mode!r})"
        )
    records: list[SweepRecord] = []
    # One lazily-built FieldReference per field, shared across every
    # compressor (and with the R-Q models), so the original-side
    # analyses run at most once per field per sweep — and not at all on
    # rate-only paths, which never touch a reference.
    refs: dict[str, FieldReference] = {}

    def field_ref(name: str, data: np.ndarray) -> FieldReference:
        if name not in refs:
            refs[name] = FieldReference(data)
        return refs[name]

    for comp in comps:
        # Tag records with the spec only in multi-compressor mode, so
        # single-compressor sweeps keep their historical record shape.
        tag = comp.spec if multi else None
        for name, data in fields.items():
            crit = criteria.get(name, QualityCriteria())
            views = (
                decomposition.partition_views(data)
                if decomposition is not None
                else [data]
            )
            evaluator: QualityEvaluator | None = None
            rq: RQModel | None = None
            for eb in ebs:
                eb = float(eb)
                quality: QualityReport | None = None
                measure = probe_mode == "exact"
                if not measure:
                    sized = comp.estimate_many(views, [eb] * len(views))
                    nbytes = sum(e.est_nbytes for e in sized)
                    if not rate_only:
                        if rq is None:
                            rq = RQModel(field_ref(name, data), crit, field=name)
                        pred = rq.predict(eb, sized)
                        quality = pred.to_quality_report()
                        measure = confirm == "always" or (
                            confirm == "boundary" and pred.near_boundary(crit)
                        )
                if measure:
                    sized = blocks = comp.compress_many(views, [eb] * len(views))
                    nbytes = sum(b.nbytes for b in blocks)
                    if not rate_only:
                        if evaluator is None:
                            evaluator = QualityEvaluator(
                                data, crit, reference=field_ref(name, data)
                            )
                        quality = evaluator.evaluate(_reconstruct(blocks, decomposition))
                n = sum(x.n_elements for x in sized)
                records.append(
                    SweepRecord(
                        field=name,
                        eb=eb,
                        bit_rate=8.0 * nbytes / n,
                        ratio=sized[0].source_itemsize * n / nbytes,
                        quality=quality,
                        spec=tag,
                    )
                )
    return records
