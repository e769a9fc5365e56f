"""Deterministic random-number-generator helpers.

All stochastic components of the library (field synthesis, particle
sampling, noise injection in tests) accept either an integer seed or a
:class:`numpy.random.Generator`.  Centralizing the coercion here keeps
experiments reproducible: the same seed always yields the same snapshot,
partition layout, and compressed bitstream.
"""

from __future__ import annotations

import numpy as np

__all__ = ["default_rng"]


def default_rng(seed: int | np.random.Generator | None = None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Parameters
    ----------
    seed:
        ``None`` (fresh entropy), an integer seed, or an existing
        generator (returned unchanged so callers can thread one RNG
        through a pipeline).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)

