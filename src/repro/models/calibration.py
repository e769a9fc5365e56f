"""Offline calibration of the rate model (§3.5's two-step procedure).

The paper avoids per-partition trial-and-error with two observations:
(1) the power-law exponent ``c`` is shared across partitions, fields and
snapshots, so it can be fit once and reused; (2) the per-partition
coefficient ``C_m`` is predictable from the partition's mean value.

:func:`calibrate_rate_model` reproduces exactly that: it samples a
subset of partitions, compresses each at a few probe bounds, fits the
per-partition power laws, takes the median exponent as the shared ``c``
and regresses ``ln C`` on ``ln mean``.  This runs *offline* (once per
simulation campaign); the in situ path only ever evaluates the fitted
model.

Probing only needs the *bit rate* of each (partition, bound), not the
compressed bytes, so ``probe_mode="model"`` (the ratio-quality engine of
:mod:`repro.models.rq_model`) reads the rate off the quantization-code
histogram (:mod:`repro.compression.estimator`) and skips the entropy
codec entirely — the histogram-based size prediction of the
ratio-quality modeling follow-up (Jin et al., "Improving
Prediction-Based Lossy Compression Dramatically via Ratio-Quality
Modeling").  The quantize -> Lorenzo -> fold front is shared with the
exact probe and is now the larger part of it (run-length DEFLATE is
cheap), so the codec-free probe is 1.3-1.7x faster on 32^3 partitions,
not the >= 3x it was over an LZ77 entropy stage; fitted coefficients
stay within the estimator's accuracy band of the exact-mode fit.  Every
sampled partition at every probe bound runs through a *single* batched
call, in process, so its chunks fan out over threads once per
calibration, not once per partition: the bound ladder
(:meth:`~repro.compression.sz.SZCompressor.estimate_ladder`, which maps
each sampled partition once for all the probe bounds), or
``compress_many`` over every (partition, bound) pair when the codec
runs.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.compression.api import Compressor, CompressorSpec, resolve_compressor
from repro.models.rate_model import RateModel, fit_power_law
from repro.util.rng import default_rng

__all__ = [
    "PROBE_MODES",
    "CalibrationResult",
    "RateModelBank",
    "calibrate_rate_model",
    "check_probe_mode",
    "partition_feature",
    "sample_views",
]

#: ``exact`` runs the codec; ``model`` reads rate (and, downstream,
#: quality) off quantization statistics instead.
PROBE_MODES = ("exact", "model")


def check_probe_mode(value: str, *compressors: Compressor) -> str:
    """The one gate every ``probe_mode=`` parameter goes through.

    Returns ``value`` if it is one of :data:`PROBE_MODES` (else the one
    ``ValueError`` every entry point raises) and, for the codec-free
    mode, requires the ``supports_estimate`` capability — the
    ``estimate_ladder`` probe — of each of ``compressors``
    (:class:`~repro.compression.api.UnsupportedCapabilityError`).
    """
    if value not in PROBE_MODES:
        raise ValueError(
            f"probe_mode must be one of {', '.join(map(repr, PROBE_MODES))}, "
            f"got {value!r}"
        )
    if value != "exact":
        for comp in compressors:
            comp.capabilities.require(
                "supports_estimate",
                f'probe_mode="{value}" (codec-free quantization probe)',
                who=comp,
            )
    return value


def sample_views(
    views: Sequence[np.ndarray], k: int, seed: int | np.random.Generator | None
) -> list[np.ndarray]:
    """The seeded partition sample every probe draws: all of ``views``
    when there are at most ``k``, else ``k`` of them in index order."""
    idx = np.arange(len(views))
    if len(views) > k:
        idx = np.sort(default_rng(seed).choice(idx, size=k, replace=False))
    return [np.asarray(views[i]) for i in idx]


def _probe_rates(
    comp: Compressor,
    parts: Sequence[np.ndarray],
    probe_ebs: Sequence[float],
    probe_mode: str,
) -> np.ndarray:
    """Bit rate of every partition at every probe bound, one row per
    partition.

    One batched call, fanned out once however many partitions are
    sampled: without the codec, the ladder probe of the partitions at
    the probe bounds (each partition mapped once, its rates read off the
    ladder transposed); with it, ``compress_many`` over every
    (partition, bound) pair.
    """
    if probe_mode != "exact":
        ladder = comp.estimate_ladder(parts, probe_ebs)
        return np.array([[e.bit_rate for e in rung] for rung in ladder]).T
    views = [part for part in parts for _ in probe_ebs]
    blocks = comp.compress_many(views, list(probe_ebs) * len(parts))
    return np.array([b.bit_rate for b in blocks]).reshape(len(parts), len(probe_ebs))


def partition_feature(partition: np.ndarray) -> float:
    """The cheap compressibility feature: mean absolute value.

    For the strictly positive density/temperature fields this equals the
    paper's partition mean; taking the absolute value extends the single
    formula to the signed velocity fields (whose plain mean is ~0 and
    carries no compressibility information).
    """
    mags = np.abs(partition)
    if mags.dtype not in (np.float32, np.float64):
        return float(np.mean(mags))
    # ``np.mean``'s own sum and divide without its Python wrapper, which
    # is half the cost on a 16^3 partition: the same value bit for bit.
    total = np.add.reduce(mags, axis=None)
    return float(total.dtype.type(total / np.intp(mags.size)))


@dataclass
class CalibrationResult:
    """Fitted rate model plus per-partition diagnostics."""

    rate_model: RateModel
    exponents: np.ndarray  # per sampled partition
    coefficients: np.ndarray
    features: np.ndarray  # mean |value| per sampled partition
    fit_r2: np.ndarray  # per-partition log-log fit quality
    coef_r2: float  # quality of the C-vs-mean regression (Fig. 10a)

    @property
    def shared_exponent(self) -> float:
        return self.rate_model.exponent


def calibrate_rate_model(
    partitions: Sequence[np.ndarray],
    compressor: "Compressor | CompressorSpec | str | None" = None,
    probe_ebs: Sequence[float] | None = None,
    eb_scale: float = 1.0,
    max_partitions: int = 32,
    seed: int | np.random.Generator | None = 0,
    probe_mode: str = "exact",
) -> CalibrationResult:
    """Fit Eq. 15 from sampled partitions.

    Parameters
    ----------
    partitions:
        Partition arrays (one per rank); a random subset of at most
        ``max_partitions`` is probed.
    compressor:
        Compressor to probe with — an instance, a
        :class:`~repro.compression.api.CompressorSpec` (or spec string)
        resolved through the registry, or ``None`` for the registry
        default (plain SZ).  Must declare the ``error_bounded``
        capability: the rate model *is* bitrate as a function of the
        bound, so probing a fixed-rate codec is meaningless and raises
        :class:`~repro.compression.api.UnsupportedCapabilityError`.
    probe_ebs:
        Error bounds to probe; default spans ``eb_scale`` times
        ``[0.25, 0.5, 1, 2, 4]``, staying inside one rate-curve regime
        (the paper's assumption that gentle adjustments remain on the
        same power law).
    eb_scale:
        Characteristic error bound for the field (e.g. the static bound
        a user would pick); centres the probe range.
    probe_mode:
        ``"exact"`` runs the full compressor per probe and reads the
        real bit rate; ``"model"`` predicts it from the
        quantization-code histogram without running the entropy
        codec — all probe bounds in one ladder probe
        (:meth:`~repro.compression.sz.SZCompressor.estimate_ladder`) —
        1.3-1.7x faster, accurate to the estimator's tolerance.
        (Calibration reads only the rate half of the probe; downstream,
        ``"model"`` also predicts quality — see
        :mod:`repro.models.rq_model`.)
    """
    if not partitions:
        raise ValueError("need at least one partition to calibrate")
    comp = resolve_compressor(compressor)
    check_probe_mode(probe_mode, comp)
    comp.capabilities.require(
        "error_bounded",
        "rate-model calibration (bitrate as a function of the error bound)",
        who=comp,
    )
    if probe_ebs is None:
        probe_ebs = [eb_scale * f for f in (0.25, 0.5, 1.0, 2.0, 4.0)]
    probe_ebs = [float(e) for e in probe_ebs]
    if len(probe_ebs) < 2:
        raise ValueError("need at least two probe error bounds")
    if any(e <= 0 for e in probe_ebs):
        raise ValueError("probe error bounds must be positive")

    probed = sample_views(partitions, max_partitions, seed)
    all_rates = _probe_rates(comp, probed, probe_ebs, probe_mode)

    exps: list[float] = []
    feats: list[float] = []
    r2s: list[float] = []
    for part, rates in zip(probed, all_rates):
        _, exp, r2 = fit_power_law(np.asarray(probe_ebs), rates)
        exps.append(exp)
        feats.append(partition_feature(part))
        r2s.append(r2)

    exps_arr = np.array(exps)
    feats_arr = np.array(feats)
    r2s_arr = np.array(r2s)

    # Partitions whose bit rate sits on the floor (all-zero codes) have
    # flat curves that carry no rate-vs-eb information; exclude them from
    # the shared-exponent estimate (the paper's power law describes the
    # sloped regime).
    informative = (exps_arr < -0.05) & (r2s_arr > 0.5)
    if not informative.any():
        raise ValueError(
            "no partition produced an informative rate curve; probe bounds "
            "are likely outside the compressible regime"
        )
    shared_c = float(np.median(exps_arr[informative]))
    if shared_c >= 0:
        raise ValueError(
            "calibration produced a non-negative rate exponent; probe bounds "
            "are likely outside the compressible regime"
        )

    # Re-fit coefficients holding the shared exponent fixed, so the
    # C-vs-mean regression is not polluted by exponent scatter.
    log_probe = np.log(np.asarray(probe_ebs))
    refit_coefs_arr = np.array(
        [float(np.exp(np.mean(np.log(r) - shared_c * log_probe))) for r in all_rates]
    )

    x = np.log(np.maximum(feats_arr, 1e-12))[informative]
    y = np.log(refit_coefs_arr)[informative]
    if len(x) < 2 or np.ptp(x) < 1e-9:
        beta, alpha = 0.0, float(np.mean(y))
    else:
        # A two-parameter least-squares fit: a tiny LAPACK solve.
        beta, alpha = np.polyfit(x, y, 1)  # repro-lint: disable=RL014
    x = np.log(np.maximum(feats_arr, 1e-12))
    y = np.log(refit_coefs_arr)
    pred = beta * x + alpha
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    coef_r2 = 1.0 - float(np.sum((y - pred) ** 2)) / ss_tot if ss_tot > 0 else 1.0

    model = RateModel(exponent=shared_c, coef_alpha=float(alpha), coef_beta=float(beta))
    return CalibrationResult(
        rate_model=model,
        exponents=exps_arr,
        coefficients=refit_coefs_arr,
        features=feats_arr,
        fit_r2=np.array(r2s),
        coef_r2=coef_r2,
    )


class RateModelBank:
    """Per-``(field, compressor spec)`` calibration cache.

    The pluggable backbone makes the rate model a function of *two*
    coordinates — the field and the compressor configuration — so
    anything that compares candidate specs (``select_compressor``, a
    spec-fanning sweep) would otherwise refit the same power law over
    and over.  The bank memoizes :func:`calibrate_rate_model` results
    keyed on the field name, the compressor's
    :class:`~repro.compression.api.CompressorSpec` (its whole
    configuration, so one key is one set of payload bytes) and the probe
    configuration.

    Examples
    --------
    >>> import numpy as np
    >>> bank = RateModelBank(probe_mode="exact", max_partitions=4)
    >>> parts = [np.random.default_rng(i).random((8, 8, 8)) for i in range(4)]
    >>> a = bank.calibrate("density", parts, "sz", eb_scale=0.01)
    >>> b = bank.calibrate("density", parts, "sz", eb_scale=0.01)
    >>> a is b  # second call is a cache hit
    True
    """

    def __init__(
        self,
        probe_mode: str = "exact",
        max_partitions: int = 32,
        seed: int = 0,
    ) -> None:
        self.probe_mode = check_probe_mode(probe_mode)
        self.max_partitions = int(max_partitions)
        self.seed = int(seed)
        self._cache: dict[tuple, CalibrationResult] = {}

    def calibrate(
        self,
        field: str,
        partitions: Sequence[np.ndarray],
        compressor: "Compressor | CompressorSpec | str | None" = None,
        eb_scale: float = 1.0,
        probe_ebs: Sequence[float] | None = None,
    ) -> CalibrationResult:
        """Fit (or return the cached fit of) one ``(field, spec)`` cell."""
        comp = resolve_compressor(compressor)
        probes = None if probe_ebs is None else tuple(float(e) for e in probe_ebs)
        key = (field, comp.spec, float(eb_scale), probes)
        if key in self._cache:
            return self._cache[key]
        result = calibrate_rate_model(
            partitions,
            compressor=comp,
            probe_ebs=probe_ebs,
            eb_scale=eb_scale,
            max_partitions=self.max_partitions,
            seed=self.seed,
            probe_mode=self.probe_mode,
        )
        self._cache[key] = result
        return result
