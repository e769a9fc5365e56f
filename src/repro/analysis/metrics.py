"""General-purpose distortion metrics (PSNR, MSE, NRMSE, MRE).

The paper's motivating argument (§1, §2.1) is that these metrics alone
cannot capture post-hoc analysis quality — "PSNR does not tell us how
the mass of a halo would be impacted".  They are still computed
throughout the benchmark reports for context.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "mse",
    "nrmse",
    "psnr",
    "FieldMoments",
    "ErrorSummary",
    "error_summary",
    "difference_summary",
]


def _pair(original: np.ndarray, reconstructed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(original, dtype=np.float64)
    b = np.asarray(reconstructed, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.size == 0:
        raise ValueError("arrays must be non-empty")
    return a, b


def mse(original: np.ndarray, reconstructed: np.ndarray) -> float:
    """Mean squared error."""
    a, b = _pair(original, reconstructed)
    return float(np.mean((a - b) ** 2))


def nrmse(original: np.ndarray, reconstructed: np.ndarray) -> float:
    """Root-mean-square error normalized by the original value range."""
    a, b = _pair(original, reconstructed)
    rng = float(a.max() - a.min())
    if rng == 0:
        raise ValueError("original data has zero range; NRMSE undefined")
    return float(np.sqrt(np.mean((a - b) ** 2)) / rng)


def psnr(original: np.ndarray, reconstructed: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB (infinite for identical arrays)."""
    a, b = _pair(original, reconstructed)
    err = np.mean((a - b) ** 2)
    if err == 0:
        return float("inf")
    rng = float(a.max() - a.min())
    if rng == 0:
        raise ValueError("original data has zero range; PSNR undefined")
    return float(20.0 * np.log10(rng) - 10.0 * np.log10(err))


@dataclass(frozen=True)
class FieldMoments:
    """Reduction moments of one field: min, max, sum, sum of squares.

    The distortion metrics consume only the min/max range; Σ and Σ² ride
    along so a cached reference can also answer mean/energy questions
    (e.g. variance-driven rate calibration) without another full pass —
    the cost is two extra O(n) reductions paid once per field, amortized
    across every reconstruction evaluated against it.
    """

    minimum: float
    maximum: float
    total: float
    total_sq: float
    n: int

    @classmethod
    def from_field(cls, field: np.ndarray) -> "FieldMoments":
        a = np.asarray(field, dtype=np.float64)
        if a.size == 0:
            raise ValueError("arrays must be non-empty")
        flat = a.ravel()
        # ddot on one BLAS thread (repro.util.fanout): one summation
        # order on a host, and faster than einsum or a square-and-sum.
        return cls(
            minimum=float(flat.min()),
            maximum=float(flat.max()),
            total=float(flat.sum()),
            total_sq=float(flat @ flat),  # repro-lint: disable=RL014
            n=flat.size,
        )

    @property
    def value_range(self) -> float:
        return self.maximum - self.minimum


@dataclass(frozen=True)
class ErrorSummary:
    """PSNR, NRMSE and their shared MSE from one fused error pass."""

    mse: float
    psnr_db: float
    nrmse_value: float


def error_summary(
    original: np.ndarray,
    reconstructed: np.ndarray,
    moments: FieldMoments | None = None,
) -> ErrorSummary:
    """PSNR and NRMSE computed from a single ``(a-b)`` pass.

    The separate :func:`psnr` / :func:`nrmse` functions each run their
    own ``mean((a-b)**2)`` and min/max reductions; this fuses them: one
    squared-error pass, one min/max pass (skipped entirely when cached
    ``moments`` of the original are supplied).  Semantics match the
    standalone functions: identical arrays give infinite PSNR, a
    zero-range original raises, and the error raised is the one the
    unfused ``psnr``-then-``nrmse`` sequence would have hit first.
    """
    a, b = _pair(original, reconstructed)
    if moments is None:
        moments = FieldMoments.from_field(a)
    return difference_summary(a - b, moments)


def difference_summary(d: np.ndarray, moments: FieldMoments) -> ErrorSummary:
    """:func:`error_summary` of ``d = original - reconstructed``, formed
    by the caller (in the reconstruction's own buffer, say)."""
    d = d.ravel()
    # ddot on one BLAS thread (repro.util.fanout): the recorded PSNR's
    # last bits do not follow the host's CPU count.
    err = float(d @ d) / d.size  # repro-lint: disable=RL014
    rng = moments.value_range
    if rng == 0:
        if err == 0:
            # psnr() would return inf, then nrmse() raises.
            raise ValueError("original data has zero range; NRMSE undefined")
        raise ValueError("original data has zero range; PSNR undefined")
    if err == 0:
        return ErrorSummary(mse=0.0, psnr_db=float("inf"), nrmse_value=0.0)
    psnr_db = float(20.0 * np.log10(rng) - 10.0 * np.log10(err))
    return ErrorSummary(
        mse=err, psnr_db=psnr_db, nrmse_value=float(np.sqrt(err) / rng)
    )
