"""Compression statistics and aggregation across partitions.

The experiments compare *overall* bit rate / compression ratio over a
whole snapshot compressed as many per-rank partitions; this module does
that bookkeeping.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.compression.sz import CompressedBlock

__all__ = [
    "bit_rate",
    "compression_ratio",
    "max_abs_error",
    "CompressionStats",
]


def bit_rate(nbytes: int, n_elements: int) -> float:
    """Average stored bits per value."""
    if n_elements <= 0:
        raise ValueError(f"n_elements must be positive, got {n_elements}")
    return 8.0 * nbytes / n_elements


def compression_ratio(nbytes: int, n_elements: int, source_itemsize: int = 4) -> float:
    """Ratio of uncompressed to compressed size."""
    if nbytes <= 0:
        raise ValueError(f"nbytes must be positive, got {nbytes}")
    return source_itemsize * n_elements / nbytes


def max_abs_error(original: np.ndarray, reconstructed: np.ndarray) -> float:
    """Largest pointwise absolute deviation."""
    a = np.asarray(original, dtype=np.float64)
    b = np.asarray(reconstructed, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.max(np.abs(a - b)))


@dataclass
class CompressionStats:
    """Aggregate statistics over a collection of compressed partitions."""

    n_blocks: int
    total_elements: int
    total_nbytes: int
    source_itemsize: int
    per_block_bit_rates: np.ndarray
    per_block_ratios: np.ndarray

    @classmethod
    def from_blocks(cls, blocks: Sequence[CompressedBlock]) -> "CompressionStats":
        """Stats of blocks of any family.  Each block's ``nbytes`` and
        ``n_elements`` are read once; the rates and ratios are array
        divisions of those exact integers, the same IEEE results as the
        blocks' own ``bit_rate`` / ``ratio``."""
        if not blocks:
            raise ValueError("need at least one compressed block")
        itemsizes = {b.source_itemsize for b in blocks}
        if len(itemsizes) != 1:
            raise ValueError(f"mixed source itemsizes: {sorted(itemsizes)}")
        itemsize = itemsizes.pop()
        nbytes = np.array([b.nbytes for b in blocks], dtype=np.int64)
        n_elements = np.array([b.n_elements for b in blocks], dtype=np.int64)
        return cls(
            n_blocks=len(blocks),
            total_elements=int(n_elements.sum()),
            total_nbytes=int(nbytes.sum()),
            source_itemsize=itemsize,
            per_block_bit_rates=8.0 * nbytes / n_elements,
            per_block_ratios=(itemsize * n_elements) / nbytes,
        )

    @property
    def overall_bit_rate(self) -> float:
        return bit_rate(self.total_nbytes, self.total_elements)

    @property
    def overall_ratio(self) -> float:
        return compression_ratio(self.total_nbytes, self.total_elements, self.source_itemsize)
