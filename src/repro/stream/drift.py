"""Drift detection: when do the calibrated models stop describing the data?

The paper calibrates the rate model once, offline; the follow-up
ratio-quality modeling work (Jin et al., arXiv:2111.09815) observes the
models are cheap enough to *re-fit online* when their predictions drift.
This module decides when: each field compares the model-predicted
bitrate against the achieved bitrate of every snapshot and standardizes
the log-residual

    r_t = ln(achieved_t / predicted_t)

against a reference scatter ``rate_sigma`` (the estimator's calibrated
accuracy band, ~8-10% relative).  Over a sliding window of the last
``window`` residuals the detector forms the z-statistic of the window
mean,

    z = mean(r) * sqrt(n) / rate_sigma,

and emits a :class:`DriftSignal` when ``|z|`` exceeds ``z_threshold`` —
a persistent bias several sigma beyond the estimator's own noise, not a
one-snapshot fluctuation (unless the window is configured that tight).

Rate is the only channel.  A field's achieved spectrum deviation, when
the controller measures it, is recorded but never acted on: the one
actuator a detector has, a refit that re-inverts the Eq. 10 budget,
cannot lower a deviation that Eq. 10 mis-predicts.

Detectors are deliberately pure, deterministic state machines: the
ledger records each snapshot's predicted and achieved bitrates, so
folding it re-runs the detector to the verdict the live run reached
(:func:`repro.stream.state.apply` checks the recorded
``recalibrate_next`` flag against it).
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass

__all__ = ["DriftConfig", "DriftSignal", "DriftDetector"]


@dataclass(frozen=True)
class DriftConfig:
    """Thresholds of the per-field drift detector.

    Attributes
    ----------
    z_threshold:
        Standardized-residual magnitude that triggers recalibration.
    window:
        Sliding-window length (residuals beyond it are forgotten).
    min_points:
        Minimum residual count before the detector may fire (a fresh or
        just-reset detector stays silent while it re-accumulates).
    rate_sigma:
        Reference scatter of the log bitrate residual — the estimator's
        own accuracy band; residuals are standardized against it.
    """

    z_threshold: float = 4.0
    window: int = 4
    min_points: int = 2
    rate_sigma: float = 0.08

    def __post_init__(self) -> None:
        if self.z_threshold <= 0:
            raise ValueError("z_threshold must be positive")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if not 1 <= self.min_points <= self.window:
            raise ValueError("min_points must be in [1, window]")
        if self.rate_sigma <= 0:
            raise ValueError("rate_sigma must be positive")


@dataclass(frozen=True)
class DriftSignal:
    """One detector firing: which field's rate model drifted, and how hard."""

    field: str
    z: float  # standardized window statistic
    n_points: int
    residual: float  # the most recent raw log residual

    def __str__(self) -> str:
        return (
            f"drift[{self.field}]: z={self.z:.2f} "
            f"over {self.n_points} snapshot(s)"
        )


class DriftDetector:
    """Sliding-window standardized-residual monitor for one field."""

    def __init__(
        self,
        field: str,
        config: DriftConfig | None = None,
        residuals: Iterable[float] = (),
    ) -> None:
        self.field = field
        self.config = config or DriftConfig()
        self._residuals: deque[float] = deque(residuals, maxlen=self.config.window)

    @property
    def n_points(self) -> int:
        return len(self._residuals)

    @property
    def window(self) -> tuple[float, ...]:
        """The retained residuals — the detector's whole state:
        ``DriftDetector(field, config, window)`` continues it."""
        return tuple(self._residuals)

    def reset(self) -> None:
        """Forget accumulated residuals (call after a recalibration)."""
        self._residuals.clear()

    def zscore(self) -> float:
        """Current standardized window-mean statistic (0 when empty)."""
        n = len(self._residuals)
        if n == 0:
            return 0.0
        mean = math.fsum(self._residuals) / n
        return mean * math.sqrt(n) / self.config.rate_sigma

    def update_rate(self, predicted_bitrate: float, achieved_bitrate: float) -> DriftSignal | None:
        """Feed one snapshot's predicted-vs-achieved bitrate pair."""
        if predicted_bitrate <= 0 or achieved_bitrate <= 0:
            raise ValueError("bitrates must be positive")
        residual = math.log(achieved_bitrate / predicted_bitrate)
        self._residuals.append(residual)
        if len(self._residuals) < self.config.min_points:
            return None
        z = self.zscore()
        if abs(z) > self.config.z_threshold:
            return DriftSignal(
                field=self.field,
                z=z,
                n_points=len(self._residuals),
                residual=residual,
            )
        return None

    def __repr__(self) -> str:
        return (
            f"DriftDetector({self.field!r}, n={self.n_points}, "
            f"z={self.zscore():.2f})"
        )
