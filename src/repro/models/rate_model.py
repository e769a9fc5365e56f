"""Empirical bit-rate model and the closed-form optimum (§3.5-§3.6).

In the high-ratio regime (bit rate below ~2, the regime the paper
restricts itself to) a partition's bit rate follows a power law in the
error bound::

    b_m = C_m * eb ** c        (Eq. 15)

with a *shared* exponent ``c < 0`` across partitions, fields and
snapshots, and a per-partition coefficient ``C_m`` predictable from the
partition's mean value (Fig. 10a).  Given the model, maximizing the
overall ratio subject to a linear constraint on the bounds has a closed
form: equalizing the marginal bit cost ``d b_m / d eb_m`` across
partitions yields

    eb_m  =  K * (C_m / w_m) ** (1 / (1 - c))

where ``w_m`` is the constraint weight (1 for the power-spectrum
constraint on the *average* bound; the boundary-cell rate ``n_m`` for
the halo-mass budget) and ``K`` scales the vector onto the constraint.

Note on Eq. 16's published form: the paper writes
``eb_m = eb_avg * exp(ln(C_m/C_a)/c)``, i.e. exponent ``1/c``; deriving
the stationary point of ``sum C_m eb_m^c`` under ``mean(eb) = eb_avg``
gives exponent ``1/(1-c)`` with the *same* qualitative behaviour (the
two coincide as ``|c|`` grows).  We implement the variational optimum
and verify it against a numerical optimizer in the tests; the direction
of the trade (harder-to-compress partitions receive larger bounds)
matches the paper's §3.1 description.

Bounds are clamped to ``[eb_avg/4, 4*eb_avg]`` (§3.6) and the free
partitions renormalized so the constraint still holds exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.util.validation import check_positive

__all__ = ["fit_power_law", "RateModel", "optimal_error_bounds"]


def fit_power_law(ebs: np.ndarray, bitrates: np.ndarray) -> tuple[float, float, float]:
    """Least-squares fit of ``b = C * eb**c`` in log-log space.

    Returns ``(C, c, r_squared)``.
    """
    ebs = np.asarray(ebs, dtype=np.float64)
    bitrates = np.asarray(bitrates, dtype=np.float64)
    if ebs.shape != bitrates.shape or ebs.ndim != 1:
        raise ValueError("ebs and bitrates must be matching 1-D arrays")
    if len(ebs) < 2:
        raise ValueError("need at least two samples to fit a power law")
    if (ebs <= 0).any() or (bitrates <= 0).any():
        raise ValueError("power-law fit requires positive samples")
    x = np.log(ebs)
    y = np.log(bitrates)
    # A two-parameter least-squares fit: a tiny LAPACK solve.
    slope, intercept = np.polyfit(x, y, 1)  # repro-lint: disable=RL014
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(np.exp(intercept)), float(slope), r2


@dataclass
class RateModel:
    """Calibrated Eq. 15: shared exponent + coefficient-vs-mean relation.

    The coefficient relation is fit in log-log space
    (``ln C = alpha + beta * ln(mean)``), which keeps predictions
    positive; the paper's "logarithmic fitting" of ``C_m`` against
    partition means is reproduced by the same monotone relationship.
    """

    exponent: float  # the shared c (negative)
    coef_alpha: float
    coef_beta: float
    feature_floor: float = 1e-12

    def __post_init__(self) -> None:
        if self.exponent >= 0:
            raise ValueError(
                f"rate exponent must be negative (bit rate falls with eb), got {self.exponent}"
            )

    def predict_coefficient(self, mean_value: float | np.ndarray) -> np.ndarray:
        """Predicted ``C_m`` from a partition's mean (absolute) value."""
        m = np.maximum(np.asarray(mean_value, dtype=np.float64), self.feature_floor)
        return np.exp(self.coef_alpha + self.coef_beta * np.log(m))

    def predict_bitrate(self, mean_value: float | np.ndarray, eb: float | np.ndarray) -> np.ndarray:
        """Predicted bit rate of partition(s) at error bound(s) ``eb``."""
        eb_arr = np.asarray(eb, dtype=np.float64)
        if (eb_arr <= 0).any():
            raise ValueError("error bounds must be positive")
        return self.predict_coefficient(mean_value) * eb_arr**self.exponent

    def marginal_bit_cost(self, mean_value: float | np.ndarray, eb: float | np.ndarray) -> np.ndarray:
        """``d b / d eb`` — the bit-quality ratio equalized by the optimizer (Fig. 12)."""
        eb_arr = np.asarray(eb, dtype=np.float64)
        return self.exponent * self.predict_coefficient(mean_value) * eb_arr ** (self.exponent - 1.0)


def optimal_error_bounds(
    coefficients: np.ndarray,
    eb_avg: float,
    exponent: float,
    weights: np.ndarray | None = None,
    clamp_factor: float = 4.0,
    constraint: str = "mean",
) -> np.ndarray:
    """Closed-form per-partition bounds maximizing ratio at fixed budget.

    Parameters
    ----------
    coefficients:
        Per-partition ``C_m`` (positive).
    eb_avg:
        Constraint target: ``mean(w_m * eb_m) = mean(w_m) * eb_avg``
        with ``constraint="mean"`` (the paper's fixed average bound,
        Eq. 10; a halo budget supplies boundary-cell rates as
        ``weights``), or ``sqrt(mean(eb_m^2)) = eb_avg`` with
        ``constraint="rms"`` (the statistically exact combination of
        per-partition FFT error variances; unit weights only).
    exponent:
        The shared (negative) rate exponent ``c``.
    weights:
        Constraint weights ``w_m`` (default all ones; ``mean`` only).
    clamp_factor:
        Bounds are clamped to ``[eb_avg/clamp, clamp*eb_avg]`` (§3.6
        uses 4).

    Returns
    -------
    Per-partition error bounds satisfying the constraint exactly (up to
    the feasibility limit of the clamp) — verified against a numerical
    optimizer in the tests.
    """
    c_arr = np.asarray(coefficients, dtype=np.float64)
    if c_arr.ndim != 1 or c_arr.size == 0:
        raise ValueError("coefficients must be a non-empty 1-D array")
    if (c_arr <= 0).any():
        raise ValueError("coefficients must be positive")
    eb_avg = check_positive(eb_avg, "eb_avg")
    if exponent >= 0:
        raise ValueError(f"exponent must be negative, got {exponent}")
    if clamp_factor < 1:
        raise ValueError(f"clamp_factor must be >= 1, got {clamp_factor}")
    if constraint not in ("mean", "rms"):
        raise ValueError(f"constraint must be 'mean' or 'rms', got {constraint!r}")
    if constraint == "rms":
        if weights is not None:
            raise ValueError("rms constraint does not support weights")
        return _optimal_bounds_rms(c_arr, eb_avg, exponent, clamp_factor)
    if weights is None:
        w = np.ones_like(c_arr)
    else:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != c_arr.shape:
            raise ValueError("weights must match coefficients shape")
        if (w < 0).any():
            raise ValueError("weights must be non-negative")
        # Zero-weight partitions are unconstrained: they'd get infinite
        # bounds; the clamp handles them, but the base shape needs a floor.
        w = np.maximum(w, w[w > 0].min() * 1e-6 if (w > 0).any() else 1.0)

    base = (c_arr / w) ** (1.0 / (1.0 - exponent))
    target_sum = float(np.sum(w)) * eb_avg
    lo, hi = eb_avg / clamp_factor, eb_avg * clamp_factor
    return _clipped_waterfill(base, w, target_sum, lo, hi)


def _clipped_waterfill(
    base: np.ndarray,
    weights: np.ndarray,
    target: float,
    lo: float,
    hi: float,
    power: int = 1,
) -> np.ndarray:
    """Solve ``sum(w * clip(K * base, lo, hi) ** power) = target`` for ``K``.

    ``power`` is 1 for the (weighted) mean constraint and 2 for the rms
    one.  The clamped stationary point keeps every *interior* bound
    proportional to ``base``; entries ride the box boundaries.  The
    left-hand side is continuous and monotone non-decreasing in ``K``,
    so bisection finds the water level robustly — including the case an
    iterative clamp-and-rescale loop gets wrong, where the proportional
    seed pushes some entries below ``lo`` *and* others above ``hi``
    simultaneously and every partition looks clamped even though the
    constraint is still feasible.  A final renormalization of the
    interior entries makes the constraint hold to machine precision.
    """
    w_total = float(np.sum(weights))
    if target <= w_total * lo**power:
        return np.full_like(base, lo)
    if target >= w_total * hi**power:
        return np.full_like(base, hi)
    k_lo = lo / float(base.max())  # every bound at (or below) lo
    k_hi = hi / float(base.min())  # every bound at (or above) hi
    # Each step is ``sum(w * clip(k * base, lo, hi) ** power)`` as bare
    # ufuncs on one buffer: the same values as ``np.clip`` / ``np.sum``,
    # without their Python wrappers (the loop is most of the optimize phase).
    trial = np.empty_like(base)
    for _ in range(64):
        k = 0.5 * (k_lo + k_hi)
        np.multiply(base, k, out=trial)
        np.maximum(trial, lo, out=trial)
        np.minimum(trial, hi, out=trial)
        if power == 2:
            np.multiply(trial, trial, out=trial)
        trial *= weights
        if float(np.add.reduce(trial)) < target:
            k_lo = k
        else:
            k_hi = k
    ebs = np.clip(0.5 * (k_lo + k_hi) * base, lo, hi)
    free = (ebs > lo) & (ebs < hi)
    if free.any():
        deficit = target - float(np.sum(weights[~free] * ebs[~free] ** power))
        scale = deficit / float(np.sum(weights[free] * ebs[free] ** power))
        if power == 2:
            scale = math.sqrt(scale)
        ebs[free] = np.clip(ebs[free] * scale, lo, hi)
    return ebs


def _optimal_bounds_rms(
    coefficients: np.ndarray,
    eb_rms: float,
    exponent: float,
    clamp_factor: float,
) -> np.ndarray:
    """Optimum under the quadratic constraint ``mean(eb^2) = eb_rms^2``.

    Stationarity of ``sum C_m eb_m^c`` against ``sum eb_m^2`` gives
    ``eb_m ∝ C_m^{1/(2-c)}`` — a gentler redistribution than the mean
    constraint's ``1/(1-c)``, because spreading bounds is itself charged
    quadratically.  The water-fill is the mean constraint's, squared.
    """
    base = coefficients ** (1.0 / (2.0 - exponent))
    lo, hi = eb_rms / clamp_factor, eb_rms * clamp_factor
    target_sq = len(coefficients) * eb_rms**2
    return _clipped_waterfill(base, np.ones_like(base), target_sq, lo, hi, power=2)
