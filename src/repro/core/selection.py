"""Per-field compressor selection: §2.2 as a runtime decision.

The paper *argues* SZ over ZFP in prose: fixed-rate ZFP cannot enforce
an absolute error bound, which the registry records as the
``error_bounded`` capability (:mod:`repro.compression.api`).
:func:`select_compressor` calibrates every error-bounded candidate
against a field and picks the cheapest (lowest predicted bitrate at the
field's admissible bound, §3.5) of them.  Where a bound is required
(the streaming controller) a fixed-rate candidate is rejected from its
capabilities, never run; otherwise it is measured on a partition sample
and rejected with a *quantified* violation (``max|err|`` against the
admissible bound), so the §2.2 trade-off appears in the result as data.

This module is also the home of the per-field quality-budget inversion
(:func:`derive_eb_budget` / :func:`derive_halo_params`), which the
controller (:mod:`repro.stream.controller`, which re-exports them) runs
at every calibration and, without warm starts, every snapshot.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field as dataclass_field
from typing import Any

import numpy as np

from repro import telemetry
from repro.compression.api import Compressor, CompressorSpec, resolve_compressor
from repro.core.config import FieldSpec
from repro.foresight.evaluator import FieldReference
from repro.models.calibration import (
    CalibrationResult,
    RateModelBank,
    check_probe_mode,
    sample_views,
)
from repro.models.fft_error import (
    SUB_POWER_STRIDE,
    spectrum_ratio_tolerance_to_eb,
    sub_threshold_power_curve,
)
from repro.parallel.decomposition import BlockDecomposition

__all__ = [
    "derive_eb_budget",
    "derive_halo_params",
    "CandidateVerdict",
    "SelectionResult",
    "select_compressor",
    "default_candidates",
]


# -- per-field quality-budget derivation --------------------------------------


def derive_eb_budget(spec: FieldSpec, ref: FieldReference) -> float:
    """Invert the field's quality spec into an average error bound.

    The §3.3/§3.5 model inversion: the P(k) acceptance band plus the
    sub-threshold power estimate yield the admissible average bound.
    All original-field analyses go through the shared
    :class:`FieldReference` cache, so a budget inversion, a halo-spec
    derivation and a quality check on the same snapshot pay for one
    float64 cast between them; the inversion reads the reference's
    ``model_spectrum(k_max)``, as the R-Q model does.  The bisection's
    sub-threshold power reads one subsample at
    :data:`~repro.models.fft_error.SUB_POWER_STRIDE`, built per call.
    """
    if spec.eb_override is not None:
        return float(spec.eb_override)
    f64 = ref.f64
    ps = ref.model_spectrum(spec.spectrum_k_max)
    return float(
        spectrum_ratio_tolerance_to_eb(
            ps,
            f64.size,
            tolerance=spec.spectrum_tolerance,
            k_max=spec.spectrum_k_max,
            confidence_z=spec.confidence_z,
            sub_power_fn=sub_threshold_power_curve(f64, stride=SUB_POWER_STRIDE),
            correlated_fraction=spec.correlated_fraction,
        )
    )


def derive_halo_params(spec: FieldSpec, ref: FieldReference) -> tuple[float, float] | None:
    """Halo-constraint inputs ``(t_boundary, mass_budget)`` for a field.

    Returns ``None`` when the field has no halos above the percentile
    threshold (the constraint is vacuous).  The reference-eb part of the
    :class:`~repro.core.config.HaloQualitySpec` depends on the chosen
    average bound and is attached at decision time.
    """
    t_boundary = float(np.percentile(ref.f64, spec.halo_percentile))
    catalog = ref.halos(t_boundary)
    if catalog.n_halos == 0:
        return None
    return t_boundary, float(spec.halo_mass_fraction * float(catalog.masses.sum()))


# -- the selection stage ------------------------------------------------------


def default_candidates() -> list[CompressorSpec]:
    """The stock candidate slate: the SZ default vs the ZFP-style codec.

    Exactly the paper's §2.2 comparison, expressed as specs.
    """
    return [CompressorSpec.sz(), CompressorSpec.zfp_like()]


@dataclass(frozen=True)
class CandidateVerdict:
    """What selection concluded about one candidate spec on one field.

    ``eb_violation`` quantifies §2.2 for a measured fixed-rate
    candidate: the ``max|err| / eb_avg`` factor by which it overshoots
    the admissible bound (``> 1``: the quality target is missed); one
    rejected from its capabilities alone carries no measurement.
    """

    spec: CompressorSpec
    eligible: bool
    reason: str
    predicted_bit_rate: float | None = None
    measured_bit_rate: float | None = None
    max_abs_error: float | None = None
    eb_violation: float | None = None
    calibration: CalibrationResult | None = dataclass_field(
        default=None, repr=False, compare=False
    )

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready summary (what the stream ledger records)."""
        return {
            "spec": self.spec.to_dict(),
            "eligible": self.eligible,
            "reason": self.reason,
            "predicted_bit_rate": self.predicted_bit_rate,
            "measured_bit_rate": self.measured_bit_rate,
            "max_abs_error": self.max_abs_error,
            "eb_violation": self.eb_violation,
        }


#: Verdict record keys that model-mode ledgers written before selection
#: stopped gating on predicted quality carry; :meth:`SelectionResult.from_dict`
#: drops them.
_RETIRED_KEYS = ("predicted_psnr_db", "predicted_quality")


@dataclass
class SelectionResult:
    """Outcome of :func:`select_compressor` for one field."""

    field: str
    eb_avg: float
    chosen: CompressorSpec
    compressor: Any
    verdicts: list[CandidateVerdict]

    @property
    def chosen_verdict(self) -> CandidateVerdict:
        return self.verdict_for(self.chosen)

    def verdict_for(self, spec: CompressorSpec) -> CandidateVerdict:
        for v in self.verdicts:
            if v.spec == spec:
                return v
        raise KeyError(f"no verdict recorded for {spec}")

    @property
    def rejected(self) -> list[CandidateVerdict]:
        return [v for v in self.verdicts if not v.eligible]

    @property
    def calibration(self) -> CalibrationResult | None:
        """The chosen candidate's rate-model fit (``None`` if measured-only)."""
        return self.chosen_verdict.calibration

    def to_dict(self) -> dict[str, Any]:
        return {
            "field": self.field,
            "eb_avg": self.eb_avg,
            "chosen": self.chosen.to_dict(),
            "verdicts": [v.to_dict() for v in self.verdicts],
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "SelectionResult":
        """Inverse of :meth:`to_dict` (what a ledger ``selection`` event
        records); fits are not recorded, so the verdicts come back
        without them, and :data:`_RETIRED_KEYS` are dropped."""
        chosen = CompressorSpec.from_dict(d["chosen"])
        return cls(
            field=d["field"],
            eb_avg=float(d["eb_avg"]),
            chosen=chosen,
            compressor=resolve_compressor(chosen),
            # A verdict's record keys are its field names.
            verdicts=[
                CandidateVerdict(
                    **{
                        **{k: x for k, x in v.items() if k not in _RETIRED_KEYS},
                        "spec": CompressorSpec.from_dict(v["spec"]),
                    }
                )
                for v in d["verdicts"]
            ],
        )


#: Partitions a fixed-rate candidate's measurement reads: a seeded
#: sample of this many.
_SAMPLE_PARTITIONS = 8

#: A fixed-rate candidate's reason where a bound is required (unmeasured).
_NO_BOUND = (
    "rejected: fixed-rate: no absolute error bound, "
    "which the adaptive pipeline requires"
)


def _count_probe(kind: str) -> None:
    """Telemetry counter for one candidate probe (no-op when disarmed)."""
    if telemetry.enabled():
        telemetry.get_registry().counter(f"selection.probes.{kind}").inc()


def _measure_fixed_rate(
    comp: Any,
    views: list[np.ndarray],
    eb_avg: float,
    seed: int,
) -> tuple[float, float]:
    """Measured (bit rate, max abs error) of a fixed-rate candidate.

    Compresses a seeded sample of partitions and decompresses them —
    the candidate has no model to predict with, so its cost and its
    error-bound behaviour are *measured*, exactly the §4.1 empirical
    methodology scoped down to a few partitions.
    """
    sample = sample_views(views, _SAMPLE_PARTITIONS, seed)
    blocks = comp.compress_many(sample, [eb_avg] * len(sample))
    max_err = max(
        float(np.max(np.abs(comp.decompress(block) - np.asarray(view, dtype=np.float64))))
        for view, block in zip(sample, blocks)
    )
    total_bytes = sum(int(block.nbytes) for block in blocks)
    total_elems = sum(int(block.n_elements) for block in blocks)
    return 8.0 * total_bytes / total_elems, max_err


def select_compressor(
    data: np.ndarray,
    decomposition: BlockDecomposition,
    candidates: "Sequence[Compressor | CompressorSpec | str] | None" = None,
    field_spec: FieldSpec | None = None,
    field: str = "field",
    eb_avg: float | None = None,
    bank: RateModelBank | None = None,
    probe_mode: str = "exact",
    max_partitions: int = 32,
    seed: int = 0,
    require_error_bounded: bool = False,
) -> SelectionResult:
    """Pick the cheapest candidate compressor that can honour the quality targets.

    For every candidate spec:

    - **error-bounded** candidates are calibrated (through ``bank``, so
      repeated selections share fits) and scored by the rate model's
      predicted mean bitrate at the field's admissible average bound —
      the bound is what carries the quality target, and it is the same
      for every candidate;
    - **fixed-rate** candidates under ``require_error_bounded=True``
      (what the streaming controller passes: its per-partition bound
      vector needs a *guarantee*) are rejected from their capabilities,
      nothing compressed or decoded, the measurements ``None``;
    - **fixed-rate** candidates otherwise are *measured* on a partition
      sample: compress, decompress, compare ``max|err|`` against the
      bound.  A violation disqualifies the candidate, quantified
      (``eb_violation = max|err| / eb_avg``): §2.2 reproduced as data.

    The admissible bound comes from ``eb_avg`` if given, else from the
    §3.3/§3.5 budget inversion of ``field_spec`` (default
    :class:`~repro.core.config.FieldSpec`, the paper's targets).

    ``probe_mode`` changes only how the rates are probed:
    ``"model"`` calibrates error-bounded candidates codec-free, off the
    quantization-code histogram, instead of with trial compressions.
    Error-bounded candidates that cannot be probed codec-free raise
    :class:`~repro.compression.api.UnsupportedCapabilityError`
    (:func:`~repro.models.calibration.check_probe_mode`) before any
    candidate is calibrated; fixed-rate ones are treated as in exact mode.

    The probe mode has one source: a passed ``bank`` must have been
    built with the same ``probe_mode`` (``ValueError`` otherwise), so
    the candidates of one selection are never ranked by rates probed
    two different ways.

    Raises ``ValueError`` when no candidate is eligible, with every
    verdict in the message.
    """
    comps = [resolve_compressor(c) for c in candidates or default_candidates()]
    check_probe_mode(probe_mode, *(c for c in comps if c.capabilities.error_bounded))
    if eb_avg is None:
        eb_avg = derive_eb_budget(field_spec or FieldSpec(), FieldReference(data))
    eb_avg = float(eb_avg)
    if eb_avg <= 0:
        raise ValueError(f"eb_avg must be positive, got {eb_avg}")
    if bank is None:
        bank = RateModelBank(
            probe_mode=probe_mode, max_partitions=max_partitions, seed=seed
        )
    elif bank.probe_mode != probe_mode:
        raise ValueError(
            f"bank was built with probe_mode={bank.probe_mode!r} but "
            f"select_compressor was called with probe_mode={probe_mode!r}; "
            "pass the same mode to both"
        )
    views = decomposition.partition_views(data)

    verdicts: list[CandidateVerdict] = []  # one per candidate, in slate order
    for comp in comps:
        spec = comp.spec
        if comp.capabilities.error_bounded:
            try:
                calibration = bank.calibrate(
                    field, views, compressor=comp, eb_scale=eb_avg
                )
            except ValueError as exc:
                verdicts.append(
                    CandidateVerdict(
                        spec=spec,
                        eligible=False,
                        reason=f"rejected: rate-model calibration failed ({exc})",
                    )
                )
                continue
            model = calibration.rate_model
            predicted = float(
                np.mean(model.predict_bitrate(calibration.features, eb_avg))
            )
            _count_probe(probe_mode)
            verdicts.append(
                CandidateVerdict(
                    spec=spec,
                    eligible=True,
                    reason=(
                        f"error-bounded; predicted {predicted:.3f} bits/value "
                        f"at eb={eb_avg:.4g}"
                    ),
                    predicted_bit_rate=predicted,
                    calibration=calibration,
                )
            )
        elif require_error_bounded:
            verdicts.append(CandidateVerdict(spec=spec, eligible=False, reason=_NO_BOUND))
        else:
            _count_probe("exact")
            measured_rate, max_err = _measure_fixed_rate(comp, views, eb_avg, seed)
            violation = max_err / eb_avg
            if violation > 1.0:
                eligible, reason = False, (
                    f"rejected: fixed-rate codec cannot enforce "
                    f"eb={eb_avg:.4g}; measured max|err|={max_err:.4g} "
                    f"({violation:.1f}x the bound)"
                )
            else:
                eligible, reason = True, (
                    f"fixed-rate but within bound on the sample: "
                    f"max|err|={max_err:.4g} <= eb={eb_avg:.4g} "
                    f"(measured {measured_rate:.3f} bits/value; "
                    "no error-bound *guarantee*)"
                )
            verdicts.append(
                CandidateVerdict(
                    spec=spec,
                    eligible=eligible,
                    reason=reason,
                    predicted_bit_rate=measured_rate if eligible else None,
                    measured_bit_rate=measured_rate,
                    max_abs_error=max_err,
                    eb_violation=violation,
                )
            )

    scored = [(v.predicted_bit_rate, i) for i, v in enumerate(verdicts) if v.eligible]
    if not scored:
        lines = "; ".join(f"{v.spec}: {v.reason}" for v in verdicts)
        raise ValueError(
            f"no candidate compressor can honour the quality targets for "
            f"field {field!r} (eb_avg={eb_avg:.4g}): {lines}"
        )
    _, best = min(scored)
    return SelectionResult(
        field=field,
        eb_avg=eb_avg,
        chosen=verdicts[best].spec,
        compressor=comps[best],
        verdicts=verdicts,
    )
