"""Configuration dataclasses for the adaptive pipeline: the optimizer's
knobs, the halo constraint's inputs, and the per-field quality policy
(:class:`FieldSpec`, exported from here only)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.compression.api import CompressorSpec

__all__ = ["OptimizerSettings", "HaloQualitySpec", "FieldSpec"]


@dataclass(frozen=True)
class OptimizerSettings:
    """Knobs of the per-partition optimizer (§3.6 defaults).

    Attributes
    ----------
    clamp_factor:
        Bounds are clamped to ``[eb_avg/clamp, clamp*eb_avg]``
        (paper: 4) to contain partitions the models fit poorly.
    normalization:
        ``"exact"`` — allgather the per-partition features and solve the
        constrained optimum exactly (default); ``"local"`` — the paper's
        cheaper protocol needing only one allreduce: every rank applies
        the closed form against the coefficient of the *global mean*
        feature (the constraint then holds approximately).
    constraint_mode:
        How per-partition bounds combine in the FFT error model:
        ``"paper"`` (Eq. 10, linear average) or ``"rms"`` (exact).
    """

    clamp_factor: float = 4.0
    normalization: str = "exact"
    constraint_mode: str = "paper"

    def __post_init__(self) -> None:
        if self.clamp_factor < 1:
            raise ValueError("clamp_factor must be >= 1")
        if self.normalization not in ("exact", "local"):
            raise ValueError("normalization must be 'exact' or 'local'")
        if self.constraint_mode not in ("paper", "rms"):
            raise ValueError("constraint_mode must be 'paper' or 'rms'")


@dataclass(frozen=True)
class HaloQualitySpec:
    """Halo-finder constraint inputs for a density field (§3.4/§3.6).

    Attributes
    ----------
    t_boundary:
        Candidate-cell threshold of the downstream halo finder.
    mass_budget:
        Admissible total absolute halo-mass change (Eq. 11 budget).
    reference_eb:
        Error bound at which boundary cells are counted once; counts
        extrapolate linearly (§4.2).
    """

    t_boundary: float
    mass_budget: float
    reference_eb: float = 1.0

    def __post_init__(self) -> None:
        if self.t_boundary <= 0:
            raise ValueError("t_boundary must be positive")
        if self.mass_budget <= 0:
            raise ValueError("mass_budget must be positive")
        if self.reference_eb <= 0:
            raise ValueError("reference_eb must be positive")


@dataclass(frozen=True)
class FieldSpec:
    """Quality/configuration policy for one field.

    What :class:`~repro.stream.controller.InSituController` (batch or
    streaming) and :func:`~repro.core.selection.select_compressor` read
    a field's budget from.

    Attributes
    ----------
    spectrum_tolerance / spectrum_k_max / confidence_z:
        P(k) acceptance band driving the model-derived budget.
    correlated_fraction:
        §3.5-revision knob for the budget inversion (0 = paper's model).
    halo_aware:
        Apply the combined §3.6 optimization (density fields).
    halo_percentile:
        Percentile of the field defining ``t_boundary``.
    halo_mass_fraction:
        Mass budget as a fraction of the total halo mass (Eq. 11).
    eb_override:
        Skip the model inversion and use this average bound directly.
    compressor:
        Pin this field to one compressor configuration (a
        :class:`~repro.compression.api.CompressorSpec` or spec string
        such as ``"sz:codec=huffman"``).  ``None`` (default) inherits
        the controller-level compressor, or — when a candidate
        slate is configured — whatever
        :func:`~repro.core.selection.select_compressor` picks for the
        field.
    """

    spectrum_tolerance: float = 0.01
    spectrum_k_max: int = 10
    confidence_z: float = 2.0
    correlated_fraction: float = 0.0
    halo_aware: bool = False
    halo_percentile: float = 99.5
    halo_mass_fraction: float = 0.01
    eb_override: float | None = None
    compressor: CompressorSpec | str | None = None

    def __post_init__(self) -> None:
        if self.spectrum_tolerance <= 0:
            raise ValueError("spectrum_tolerance must be positive")
        if not 0 <= self.correlated_fraction <= 1:
            raise ValueError("correlated_fraction must be in [0, 1]")
        if not 50 <= self.halo_percentile < 100:
            raise ValueError("halo_percentile must be in [50, 100)")
        if self.eb_override is not None and self.eb_override <= 0:
            raise ValueError("eb_override must be positive")
        if isinstance(self.compressor, str):
            object.__setattr__(
                self, "compressor", CompressorSpec.parse(self.compressor)
            )
