"""Configuration sweeps: compress -> analyze the reconstruction over a grid.

This is the broad-spectrum empirical methodology (Foresight) the paper
uses for ground truth and baselines.  Each record carries rate *and*
quality, so downstream code can pick operating points or validate the
models' predictions.

Rate-curve studies don't need the quality half: ``rate_only=True``
skips the reconstruction and its evaluation.  ``probe_mode="model"``
skips the entropy codec too: each ``(field, eb)`` cell is sized from
the quantization-code histogram (:mod:`repro.compression.estimator`)
and gets a *predicted* quality report from the closed-form
ratio-quality engine (:mod:`repro.models.rq_model`) — one quantization
probe per bound, no compression, no reconstruction analysis — with an
exact-confirmation knob (``confirm="boundary"``) that re-runs the cells
whose predicted verdicts sit near a threshold through the real
pipeline.  The two compose: a ``"model"`` sweep with ``rate_only=True``
reads rates off the probe and never builds a field reference.

Quality sweeps share one :class:`~repro.foresight.evaluator.QualityEvaluator`
per field, so the original-side analyses (binned power spectrum, halo
catalog, metric moments) run exactly once per field no matter how many
error bounds are trialed.

A field's bounds are independent, so they are trialed side by side
through :func:`~repro.util.fanout.thread_map`.  In model mode, phase 1
runs the ladder probe (``estimate_ladder``: each chunk of the field
mapped once, then one probe pass per bound) beside the build of the
:class:`~repro.foresight.evaluator.FieldReference` analyses the
:class:`~repro.models.rq_model.RQModel` predictions read; the
predictions then only read them, side by side, so the reference-cache
counters do not depend on the CPU count.  Phase 2 runs every cell that
must be measured: compress with ``compress_many(..., out=partition
views)``, which writes the encoder's own reconstruction — bit for bit
the decoder's — into a float64 field buffer, and evaluate that buffer;
no cell decodes what it has just encoded.  There is one buffer per cell
in flight, reused from cell to cell, and a cell holds its blocks only
until it is scored; its error pass runs in its buffer, and the field's
reference keeps no transform.  Peak memory is a few bounds' worth
(sweep-128: ~262 MB resident, its 128^3 synthesis included), never
the ladder's.
Records come back in bound order, the same whatever the CPU count.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.compression.api import Compressor, CompressorSpec, resolve_compressor
from repro.foresight.evaluator import FieldReference, QualityEvaluator
from repro.foresight.quality import QualityCriteria, QualityReport
from repro.models.calibration import check_probe_mode
from repro.models.rq_model import RQModel
from repro.parallel.decomposition import BlockDecomposition
from repro.util.fanout import thread_map

__all__ = ["SweepRecord", "run_sweep"]

#: A predicted verdict counts as *near the acceptance boundary* when its
#: worst spectrum deviation, or its predicted halo mass-error fraction,
#: lies within this factor of its threshold (either side).
#: ``confirm="boundary"`` measures only those cells, where the model's
#: few-percent bias could flip a verdict; far from the boundary the
#: prediction is decisive.
BOUNDARY_BAND_FACTOR = 3.0


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
        Skip the reconstruction and its quality evaluation; records
        carry ``quality=None``.
    probe_mode:
        ``"exact"`` (default) runs the full compressor; ``"model"``
        predicts rate *and* quality without running the entropy codec —
        each record's ``quality`` is the ratio-quality engine's
        predicted :class:`QualityReport` (predicted PSNR/NRMSE,
        predicted spectrum and halo verdicts), from one quantization
        probe of each field's bound ladder (``estimate_ladder``: one
        pass per ``(field, eb)``); with ``rate_only=True``
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
        :data:`BOUNDARY_BAND_FACTOR` of a threshold through the real
        compress→analyze pipeline (replacing both the rate and the
        quality of that record with measurements).  With
        ``rate_only=True``, ``"boundary"`` is a ``ValueError``: there
        is no verdict to be near.  A sweep that measures every cell is
        the exact one (``probe_mode="exact"``).
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
    if confirm not in ("never", "boundary"):
        raise ValueError(f"confirm must be 'never' or 'boundary', got {confirm!r}")
    if confirm != "never" and probe_mode != "model":
        raise ValueError(
            'confirm applies only to probe_mode="model" '
            f"(got confirm={confirm!r} with probe_mode={probe_mode!r})"
        )
    if confirm == "boundary" and rate_only:
        raise ValueError(
            'confirm="boundary" needs quality verdicts to be near, and '
            "rate_only=True sweeps none: use confirm='never'"
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

    bounds = [float(eb) for eb in ebs]
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
            cells = len(bounds)
            sizes: list = [None] * cells  # (stored bytes, elements, itemsize)
            quality: list[QualityReport | None] = [None] * cells
            measure = [probe_mode == "exact"] * cells
            if probe_mode == "model":
                # Phase 1, side by side: the probe of every bound and,
                # unless rates alone are read, the reference analyses the
                # model's predictions read (so the predictions only read
                # them, in any order, on any thread).
                rq = None if rate_only else RQModel(field_ref(name, data), crit)
                jobs = [lambda: comp.estimate_ladder(views, bounds)]
                if rq is not None:
                    jobs.append(rq.analyze)
                probes = thread_map(lambda job: job(), jobs)[0]
                sizes = [_size(estimates, measured=False) for estimates in probes]
                if rq is not None:
                    quality = thread_map(lambda i: rq.predict(bounds[i], probes[i]), range(cells))
                    if confirm == "boundary":
                        measure = [_near_boundary(report, crit) for report in quality]
            todo = [i for i in range(cells) if measure[i]]
            if todo:
                # Phase 2: every cell to measure, side by side.
                evaluator = (
                    None
                    if rate_only
                    else QualityEvaluator(data, crit, reference=field_ref(name, data))
                )
                cell = _measure(comp, views, data.shape, decomposition, evaluator)
                for i, (size, report) in zip(todo, thread_map(cell, [bounds[i] for i in todo])):
                    sizes[i] = size
                    if evaluator is not None:
                        quality[i] = report
            for eb, (nbytes, n, itemsize), report in zip(bounds, sizes, quality):
                records.append(
                    SweepRecord(
                        field=name,
                        eb=eb,
                        bit_rate=8.0 * nbytes / n,
                        ratio=itemsize * n / nbytes,
                        quality=report,
                        spec=tag,
                    )
                )
    return records


def _near_boundary(report: QualityReport, crit: QualityCriteria) -> bool:
    """Does a predicted verdict sit within :data:`BOUNDARY_BAND_FACTOR`
    of its threshold?  A predicted report's ``halo_mass_rmse`` is the
    predicted mass-error fraction."""
    bands = [(report.spectrum_worst_deviation, crit.spectrum_tolerance)]
    if report.halo_mass_rmse is not None:
        bands.append((report.halo_mass_rmse, crit.halo_mass_rmse))
    factor = BOUNDARY_BAND_FACTOR
    return any(tol / factor <= value <= tol * factor for value, tol in bands)


def _size(units: list, measured: bool) -> tuple[float, int, int]:
    """A cell's ``(stored bytes, elements, source itemsize)``: from its
    blocks if it was measured, else from its probe estimates."""
    nbytes = sum(u.nbytes if measured else u.est_nbytes for u in units)
    return nbytes, sum(u.n_elements for u in units), units[0].source_itemsize


def _measure(
    comp: Compressor,
    views: list[np.ndarray],
    shape: tuple[int, ...],
    decomposition: BlockDecomposition | None,
    evaluator: QualityEvaluator | None,
):
    """One field's measured cell, as a function of its bound: compress
    the views and — unless rates alone are swept — score the encoder's
    own reconstruction, which ``compress_many(..., out=)`` writes into a
    field buffer's partition views (bit for bit the decoder's, with no
    decode), then given up to the error pass; returns the cell's
    :func:`_size` and report, so no cell's blocks outlive it.  Buffers
    are kept for the next cell: there is one per cell in flight."""
    spare: list[np.ndarray] = []

    def cell(eb: float) -> tuple[tuple[float, int, int], QualityReport | None]:
        if evaluator is None:
            return _size(comp.compress_many(views, [eb] * len(views)), measured=True), None
        field = spare.pop() if spare else np.empty(shape)
        try:
            parts = decomposition.partition_views(field) if decomposition is not None else [field]
            blocks = comp.compress_many(views, [eb] * len(views), out=parts)
            return _size(blocks, measured=True), evaluator._evaluate(field, owned=True)
        finally:
            spare.append(field)

    return cell
