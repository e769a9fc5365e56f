"""Argument validation helpers shared across the library.

These raise early, with messages naming the offending argument, so that
misconfiguration surfaces at the public API boundary instead of deep in a
vectorized kernel.
"""

from __future__ import annotations

import numpy as np

__all__ = ["check_3d", "check_finite", "check_positive"]


def check_3d(data: np.ndarray, name: str = "data") -> np.ndarray:
    """Require a 3-D float array; return it as contiguous float64 view/copy."""
    arr = np.asarray(data)
    if arr.ndim != 3:
        raise ValueError(f"{name} must be a 3-D array, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    return np.ascontiguousarray(arr, dtype=np.float64)


def check_finite(data: np.ndarray, name: str = "data") -> None:
    """Reject NaN/Inf — the compressor's error-bound contract assumes finite input."""
    if not np.isfinite(data).all():
        raise ValueError(f"{name} contains non-finite values (NaN or Inf)")


def check_positive(value: float, name: str) -> float:
    value = float(value)
    if not np.isfinite(value) or value <= 0:
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")
    return value

