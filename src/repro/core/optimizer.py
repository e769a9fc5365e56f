"""Per-partition error-bound optimization (§3.6).

Three solvers behind one dispatch, :func:`optimize`, which both
execution backends and ledger replay call:

- :func:`optimize_for_spectrum` — power-spectrum constraint: the FFT
  error model (Eq. 10) depends only on the *average* bound, so the
  optimizer redistributes bounds at fixed average to equalize marginal
  bit cost (Eq. 16 closed form + clamping),
- :func:`optimize_for_halo` — halo-mass budget (Eq. 11): the constraint
  weights each partition by its boundary-cell rate, so feature-dense
  partitions are pushed toward smaller bounds,
- :func:`optimize_combined` — the paper's §3.6 strategy for baryon
  density: solve for the spectrum, check the halo budget; if violated,
  solve for the halo budget and use it as a per-partition cap
  ("boundary condition").
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.config import HaloQualitySpec, OptimizerSettings
from repro.core.features import PartitionFeatures
from repro.models.halo_error import FAULT_PROBABILITY, halo_mass_error_budget
from repro.models.rate_model import RateModel, optimal_error_bounds
from repro.util.validation import check_positive

__all__ = [
    "OptimizationResult",
    "optimize",
    "optimize_for_spectrum",
    "optimize_for_halo",
    "optimize_combined",
    "rank_order_mean",
    "local_protocol_bound",
]


def rank_order_mean(values: Sequence[float]) -> float:
    """Mean via a left-fold sum in rank order.

    This is bit-identical to the in situ protocol's
    ``allreduce("sum") / size`` folding the per-rank scalars
    left-to-right, unlike ``np.mean``'s pairwise summation.  Live runs and
    ledger replay both use it, so the local-normalization protocol is
    deterministic.
    """
    if len(values) == 0:
        raise ValueError("need at least one value")
    acc = float(values[0])
    for v in values[1:]:
        acc = acc + float(v)
    return acc / len(values)


def local_protocol_bound(
    mean_abs: float,
    global_mean: float,
    rate_model: RateModel,
    eb_avg: float,
    settings: OptimizerSettings,
    global_coefficient: float | None = None,
) -> float:
    """One rank's bound under the paper's local protocol (Eq. 16 + clamp).

    Every rank evaluates the closed form against the coefficient of the
    *global mean* feature (obtained from a single allreduce); no
    renormalization happens, so the average-bound constraint holds only
    approximately.  This scalar arithmetic *is* the local branch of
    :func:`optimize_for_spectrum` (which calls it per partition), so the
    live and ledger-replay paths agree bitwise.  Pass
    ``global_coefficient`` to reuse an already-evaluated
    ``predict_coefficient(global_mean)`` — same value, fewer model
    evaluations.
    """
    c_m = float(rate_model.predict_coefficient(mean_abs))
    c_a = (
        float(rate_model.predict_coefficient(global_mean))
        if global_coefficient is None
        else global_coefficient
    )
    c = rate_model.exponent
    eb = eb_avg * (c_m / c_a) ** (1.0 / (1.0 - c))
    return float(
        np.clip(eb, eb_avg / settings.clamp_factor, eb_avg * settings.clamp_factor)
    )


@dataclass
class OptimizationResult:
    """Per-partition bounds plus diagnostics."""

    ebs: np.ndarray
    eb_avg_target: float
    constraint: str  # "spectrum", "halo", or "combined"
    predicted_bitrates: np.ndarray
    halo_budget_used: float | None = None
    halo_constrained: bool = False

    @property
    def eb_mean(self) -> float:
        return float(self.ebs.mean())

    @property
    def predicted_mean_bitrate(self) -> float:
        return float(self.predicted_bitrates.mean())


def _cell_rates(features: Sequence[PartitionFeatures], who: str) -> np.ndarray:
    rates = np.array(
        [np.nan if f.effective_cell_rate is None else f.effective_cell_rate for f in features]
    )
    if np.isnan(rates).any():
        raise ValueError(
            f"{who} optimization requires effective_cell_rate in every partition's "
            "features (extract with t_boundary set)"
        )
    return rates


def _coefficients(features: Sequence[PartitionFeatures], model: RateModel) -> np.ndarray:
    if not features:
        raise ValueError("need at least one partition's features")
    means = np.array([f.mean_abs for f in features], dtype=np.float64)
    return np.asarray(model.predict_coefficient(means), dtype=np.float64)


def optimize_for_spectrum(
    features: Sequence[PartitionFeatures],
    rate_model: RateModel,
    eb_avg: float,
    settings: OptimizerSettings | None = None,
) -> OptimizationResult:
    """Maximize ratio at fixed average bound (power-spectrum constraint).

    With ``settings.normalization == "local"`` the paper's cheap protocol
    is used: Eq. 16 evaluated against the coefficient of the global mean
    feature, no renormalization (the average-bound constraint then holds
    only approximately; the clamp keeps the drift small).
    """
    settings = settings or OptimizerSettings()
    eb_avg = check_positive(eb_avg, "eb_avg")
    coeffs = _coefficients(features, rate_model)
    c = rate_model.exponent

    if settings.normalization == "local":
        global_mean = rank_order_mean([f.mean_abs for f in features])
        # Element-by-element scalar arithmetic, exactly as each rank
        # solves its own bound in the distributed protocol: NumPy's
        # vectorized power can differ from scalar ``pow`` in the last
        # ulp on some inputs, which would break bitwise backend
        # equivalence (and ledger replay) for the local protocol.  The
        # global-mean coefficient is the same for every rank, so it is
        # evaluated once and shared.
        c_a = float(rate_model.predict_coefficient(global_mean))
        ebs = np.array(
            [
                local_protocol_bound(
                    f.mean_abs,
                    global_mean,
                    rate_model,
                    eb_avg,
                    settings,
                    global_coefficient=c_a,
                )
                for f in features
            ],
            dtype=np.float64,
        )
    else:
        # constraint_mode "paper" fixes the average bound (Eq. 10);
        # "rms" fixes the root-mean-square bound (the exact variance
        # combination), which redistributes more cautiously.
        constraint = "mean" if settings.constraint_mode == "paper" else "rms"
        ebs = optimal_error_bounds(
            coeffs,
            eb_avg,
            c,
            weights=None,
            clamp_factor=settings.clamp_factor,
            constraint=constraint,
        )
    return OptimizationResult(
        ebs=ebs,
        eb_avg_target=eb_avg,
        constraint="spectrum",
        predicted_bitrates=coeffs * ebs**c,
    )


def optimize_for_halo(
    features: Sequence[PartitionFeatures],
    rate_model: RateModel,
    halo: HaloQualitySpec,
    settings: OptimizerSettings | None = None,
) -> OptimizationResult:
    """Maximize ratio subject to the halo-mass budget (Eq. 11).

    The constraint ``t_boundary * p_fault * sum_m rate_m * eb_m <=
    mass_budget`` is linear in the bounds with weights equal to the
    boundary-cell rates, so the same closed form applies with those
    weights.
    """
    settings = settings or OptimizerSettings()
    coeffs = _coefficients(features, rate_model)
    c = rate_model.exponent
    rates = _cell_rates(features, "halo")

    # Linear budget on sum(rate_m * eb_m).
    weighted_sum_budget = halo.mass_budget / (halo.t_boundary * FAULT_PROBABILITY)
    total_weight = float(rates.sum())
    if total_weight <= 0:
        # No boundary cells anywhere: the halo constraint is inactive.
        raise ValueError(
            "no partition has boundary cells; halo constraint is vacuous — "
            "use optimize_for_spectrum instead"
        )
    eb_avg_equiv = weighted_sum_budget / total_weight
    ebs = optimal_error_bounds(
        coeffs,
        eb_avg_equiv,
        c,
        weights=rates,
        clamp_factor=settings.clamp_factor,
    )
    return OptimizationResult(
        ebs=ebs,
        eb_avg_target=eb_avg_equiv,
        constraint="halo",
        predicted_bitrates=coeffs * ebs**c,
        halo_budget_used=halo_mass_error_budget(halo.t_boundary, rates, ebs),
    )


def optimize_combined(
    features: Sequence[PartitionFeatures],
    rate_model: RateModel,
    eb_avg: float,
    halo: HaloQualitySpec,
    settings: OptimizerSettings | None = None,
) -> OptimizationResult:
    """§3.6's two-constraint strategy for baryon density.

    1. Optimize for the power spectrum.
    2. Evaluate the resulting halo-mass error (Eq. 11).  If within
       budget, accept.
    3. Otherwise optimize for the halo budget and cap the spectrum
       solution partition-wise by the halo solution (the "boundary
       condition") — both constraints then hold: the average bound can
       only decrease, and the weighted halo sum is below budget.
    """
    settings = settings or OptimizerSettings()
    spec_result = optimize_for_spectrum(features, rate_model, eb_avg, settings)
    rates = _cell_rates(features, "combined")
    budget_at_spec = halo_mass_error_budget(halo.t_boundary, rates, spec_result.ebs)
    if budget_at_spec <= halo.mass_budget or rates.sum() == 0:
        return OptimizationResult(
            ebs=spec_result.ebs,
            eb_avg_target=eb_avg,
            constraint="combined",
            predicted_bitrates=spec_result.predicted_bitrates,
            halo_budget_used=budget_at_spec,
            halo_constrained=False,
        )
    halo_result = optimize_for_halo(features, rate_model, halo, settings)
    ebs = np.minimum(spec_result.ebs, halo_result.ebs)
    coeffs = _coefficients(features, rate_model)
    return OptimizationResult(
        ebs=ebs,
        eb_avg_target=eb_avg,
        constraint="combined",
        predicted_bitrates=coeffs * ebs**rate_model.exponent,
        halo_budget_used=halo_mass_error_budget(halo.t_boundary, rates, ebs),
        halo_constrained=True,
    )


def optimize(
    features: Sequence[PartitionFeatures],
    rate_model: RateModel,
    eb_avg: float,
    settings: OptimizerSettings | None = None,
    halo: HaloQualitySpec | None = None,
) -> OptimizationResult:
    """One decision's bounds: the combined §3.6 strategy when ``halo`` is
    set (density fields), the spectrum constraint alone otherwise."""
    if halo is not None:
        return optimize_combined(features, rate_model, eb_avg, halo, settings)
    return optimize_for_spectrum(features, rate_model, eb_avg, settings)
