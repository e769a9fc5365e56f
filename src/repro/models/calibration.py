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
compressed bytes, so ``probe_mode="estimate"`` (and its superset
``"model"``, the full ratio-quality engine of
:mod:`repro.models.rq_model`) reads the rate off the quantization-code
histogram (:mod:`repro.compression.estimator`) and skips the entropy
codec entirely — the histogram-based size prediction of the
ratio-quality modeling follow-up (Jin et al., "Improving
Prediction-Based Lossy Compression Dramatically via Ratio-Quality
Modeling").  The quantize -> Lorenzo -> fold front is shared with the
exact probe and is now the larger part of it (run-length DEFLATE is
cheap), so the codec-free probe is 1.3-1.7x faster on 32^3 partitions,
not the >= 3x it was over an LZ77 entropy stage; fitted coefficients
stay within the estimator's accuracy band of the exact-mode fit.  All probe
bounds for one partition run as a *single* batched quantization pass
(:meth:`~repro.compression.sz.SZCompressor.estimate_many`), and
residual probe work can fan over the
:mod:`repro.parallel.backends` registry via ``backend=``.
"""

from __future__ import annotations

import inspect
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.compression.api import (
    Compressor,
    CompressorSpec,
    capabilities_of,
    resolve_compressor,
    spec_of,
)
from repro.models.rate_model import RateModel, fit_power_law
from repro.util.rng import default_rng

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.parallel.backends import ExecutionBackend

__all__ = [
    "PROBE_MODES",
    "CalibrationResult",
    "RateModelBank",
    "calibrate_rate_model",
    "check_probe_mode",
    "partition_feature",
]

#: ``exact`` runs the codec; the other two read rates off quantization
#: statistics instead (both require ``supports_estimate``).
PROBE_MODES = ("exact", "estimate", "model")


def check_probe_mode(value: str, allowed: Sequence[str] = PROBE_MODES) -> str:
    """``value`` if it is one of ``allowed``, else the one ``ValueError``
    every ``probe_mode=`` parameter raises."""
    if value not in allowed:
        raise ValueError(
            f"probe_mode must be one of {', '.join(map(repr, allowed))}, "
            f"got {value!r}"
        )
    return value


def _probe_rates(
    comp: Compressor,
    part: np.ndarray,
    probe_ebs: Sequence[float],
    probe_mode: str,
    threads: int | None = None,
) -> np.ndarray:
    """Bit rate at each probe bound for one partition.

    All bounds go through one batched call — ``compress_many`` when the
    codec runs, ``estimate_many`` when it does not — so the front is a
    single kernel pass over a ``(n_ebs, n)`` batch either way.
    ``threads`` caps ``compress_many``'s entropy fan-out (``None``: the
    compressor's default).  ``compress_many`` is not part of the
    :class:`~repro.compression.api.Compressor` protocol, so an ad-hoc
    compressor without it is probed one ``compress`` at a time.
    """
    views, ebs = [part] * len(probe_ebs), list(probe_ebs)
    if probe_mode != "exact":
        probes = comp.estimate_many(views, ebs)
    elif not hasattr(comp, "compress_many"):
        probes = [comp.compress(part, eb) for eb in ebs]
    else:
        kwargs = {}
        # duck-typed compressors may predate the parameter
        if threads is not None and (
            "threads" in inspect.signature(comp.compress_many).parameters
        ):
            kwargs["threads"] = threads
        probes = comp.compress_many(views, ebs, **kwargs)
    return np.array([p.bit_rate for p in probes])


def _probe_partition(task: tuple) -> np.ndarray:
    """Backend task: probe one partition (module-level, hence picklable).

    Partitions already run side by side, one per pool worker, so the
    compressor's own entropy-stage fan-out is pinned to one thread — the
    convention of :mod:`repro.parallel.backends`' pool workers.
    """
    part, probe_ebs, spec_dict, probe_mode = task
    comp = resolve_compressor(CompressorSpec.from_dict(spec_dict))
    return _probe_rates(comp, np.asarray(part), probe_ebs, probe_mode, threads=1)


def _fan_probes(
    comp: Compressor,
    probed: "list[np.ndarray]",
    probe_ebs: Sequence[float],
    probe_mode: str,
    backend: "ExecutionBackend | str | None",
) -> "list[np.ndarray]":
    """Probe every sampled partition, serially or over a backend."""
    if backend is None:
        return [_probe_rates(comp, part, probe_ebs, probe_mode) for part in probed]
    spec = spec_of(comp)
    if spec is None:
        raise ValueError(
            "backend-fanned calibration needs a registry-resolvable "
            "compressor spec (workers rebuild the compressor from it); "
            "pass backend=None for ad-hoc compressor instances"
        )
    from repro.parallel.backends import get_backend

    owned = isinstance(backend, str)
    bk = get_backend(backend) if owned else backend
    try:
        tasks = [
            (part, list(probe_ebs), spec.to_dict(), probe_mode) for part in probed
        ]
        return list(bk.map_tasks(_probe_partition, tasks))
    finally:
        if owned:
            bk.close()


def partition_feature(partition: np.ndarray) -> float:
    """The cheap compressibility feature: mean absolute value.

    For the strictly positive density/temperature fields this equals the
    paper's partition mean; taking the absolute value extends the single
    formula to the signed velocity fields (whose plain mean is ~0 and
    carries no compressibility information).
    """
    return float(np.mean(np.abs(partition)))


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
    backend: "ExecutionBackend | str | None" = None,
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
        real bit rate; ``"estimate"`` and ``"model"`` predict it from
        the quantization-code histogram without running the entropy
        codec — all probe bounds in one batched pass
        (:meth:`~repro.compression.sz.SZCompressor.estimate_many`) —
        1.3-1.7x faster, accurate to the estimator's tolerance.
        (For calibration the two codec-free modes are equivalent; the
        distinction matters downstream where ``"model"`` also predicts
        quality — see :mod:`repro.models.rq_model`.)
    backend:
        Optional :mod:`repro.parallel.backends` backend (instance or
        registry name) to fan the per-partition probes over.  Requires
        a registry-resolvable compressor spec (workers rebuild the
        compressor from it); a backend created here from a name is
        closed before returning.
    """
    if not partitions:
        raise ValueError("need at least one partition to calibrate")
    check_probe_mode(probe_mode)
    comp = resolve_compressor(compressor)
    caps = capabilities_of(comp)
    caps.require(
        "error_bounded",
        "rate-model calibration (bitrate as a function of the error bound)",
        who=comp,
    )
    if probe_mode != "exact":
        caps.require(
            "supports_estimate",
            f'probe_mode="{probe_mode}" (codec-free histogram rate prediction)',
            who=comp,
        )
    if probe_ebs is None:
        probe_ebs = [eb_scale * f for f in (0.25, 0.5, 1.0, 2.0, 4.0)]
    probe_ebs = [float(e) for e in probe_ebs]
    if len(probe_ebs) < 2:
        raise ValueError("need at least two probe error bounds")
    if any(e <= 0 for e in probe_ebs):
        raise ValueError("probe error bounds must be positive")

    rng = default_rng(seed)
    idx = np.arange(len(partitions))
    if len(partitions) > max_partitions:
        idx = np.sort(rng.choice(idx, size=max_partitions, replace=False))

    probed = [np.asarray(partitions[i]) for i in idx]
    all_rates = _fan_probes(comp, probed, probe_ebs, probe_mode, backend)

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
        beta, alpha = np.polyfit(x, y, 1)
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
    keyed on the field name and the compressor's canonical
    :class:`~repro.compression.api.CompressorSpec`; instances without a
    spec are probed fresh each time (there is no stable key).

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
        backend: "ExecutionBackend | str | None" = None,
    ) -> None:
        self.probe_mode = probe_mode
        self.max_partitions = int(max_partitions)
        self.seed = int(seed)
        self.backend = backend
        self._cache: dict[tuple, CalibrationResult] = {}

    def __len__(self) -> int:
        return len(self._cache)

    def __contains__(self, key: tuple) -> bool:
        return key in self._cache

    @staticmethod
    def _key(
        field: str,
        spec: CompressorSpec,
        eb_scale: float,
        probe_ebs: Sequence[float] | None,
    ) -> tuple:
        probes = None if probe_ebs is None else tuple(float(e) for e in probe_ebs)
        return (field, spec, float(eb_scale), probes)

    def get(
        self,
        field: str,
        spec: CompressorSpec,
        eb_scale: float = 1.0,
        probe_ebs: Sequence[float] | None = None,
    ) -> CalibrationResult | None:
        """The cached fit for ``(field, spec, probe config)``, if any."""
        return self._cache.get(self._key(field, spec, eb_scale, probe_ebs))

    def items(self) -> list[tuple[tuple, CalibrationResult]]:
        return list(self._cache.items())

    def invalidate(self, field: str | None = None) -> None:
        """Drop cached fits — for one field, or all of them (drift)."""
        if field is None:
            self._cache.clear()
        else:
            self._cache = {k: v for k, v in self._cache.items() if k[0] != field}

    def calibrate(
        self,
        field: str,
        partitions: Sequence[np.ndarray],
        compressor: "Compressor | CompressorSpec | str | None" = None,
        eb_scale: float = 1.0,
        probe_ebs: Sequence[float] | None = None,
        refresh: bool = False,
    ) -> CalibrationResult:
        """Fit (or return the cached fit of) one ``(field, spec)`` cell."""
        comp = resolve_compressor(compressor)
        spec = spec_of(comp)
        key = None if spec is None else self._key(field, spec, eb_scale, probe_ebs)
        if not refresh and key is not None and key in self._cache:
            return self._cache[key]
        result = calibrate_rate_model(
            partitions,
            compressor=comp,
            probe_ebs=probe_ebs,
            eb_scale=eb_scale,
            max_partitions=self.max_partitions,
            seed=self.seed,
            probe_mode=self.probe_mode,
            backend=self.backend,
        )
        if key is not None:
            self._cache[key] = result
        return result
