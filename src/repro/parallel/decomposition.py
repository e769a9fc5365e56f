"""3-D block domain decomposition (one partition per MPI rank).

Nyx assigns each rank a contiguous sub-box of the global grid; the
paper's experiments use e.g. 512 partitions of 64^3 cells from a 512^3
snapshot.  :class:`BlockDecomposition` reproduces that layout and hands
out NumPy *views* (no copies) of the global array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Partition", "BlockDecomposition"]


@dataclass(frozen=True)
class Partition:
    """One rank's sub-box of the global grid."""

    rank: int
    block: tuple[int, int, int]  # block coordinates within the rank grid
    slices: tuple[slice, slice, slice]

    @property
    def shape(self) -> tuple[int, int, int]:
        return tuple(s.stop - s.start for s in self.slices)  # type: ignore[return-value]

    @property
    def n_cells(self) -> int:
        return math.prod(self.shape)

    def view(self, data: np.ndarray) -> np.ndarray:
        """View of this partition inside the global array (no copy)."""
        return data[self.slices]


class BlockDecomposition:
    """Split a 3-D grid into a regular grid of equal blocks.

    Parameters
    ----------
    shape:
        Global grid shape.
    blocks:
        Number of blocks per axis, either an int (same along each axis)
        or a 3-tuple.  Every axis must divide evenly — matching the
        paper's setup of identical per-rank partitions.

    Examples
    --------
    >>> dec = BlockDecomposition((64, 64, 64), blocks=4)
    >>> dec.n_partitions
    64
    >>> dec.partition_shape
    (16, 16, 16)
    """

    def __init__(self, shape: tuple[int, int, int], blocks: int | tuple[int, int, int]) -> None:
        if len(shape) != 3:
            raise ValueError(f"shape must be 3-D, got {shape}")
        if isinstance(blocks, int):
            blocks = (blocks, blocks, blocks)
        if len(blocks) != 3 or any(b < 1 for b in blocks):
            raise ValueError(f"blocks must be three positive ints, got {blocks}")
        for s, b in zip(shape, blocks):
            if s % b != 0:
                raise ValueError(
                    f"axis of size {s} does not divide evenly into {b} blocks"
                )
        self.shape = tuple(int(s) for s in shape)
        self.blocks = tuple(int(b) for b in blocks)
        self.partition_shape = tuple(s // b for s, b in zip(self.shape, self.blocks))
        self._partitions = [
            Partition(
                rank=(bx * self.blocks[1] + by) * self.blocks[2] + bz,
                block=(bx, by, bz),
                slices=(
                    slice(bx * self.partition_shape[0], (bx + 1) * self.partition_shape[0]),
                    slice(by * self.partition_shape[1], (by + 1) * self.partition_shape[1]),
                    slice(bz * self.partition_shape[2], (bz + 1) * self.partition_shape[2]),
                ),
            )
            for bx in range(self.blocks[0])
            for by in range(self.blocks[1])
            for bz in range(self.blocks[2])
        ]

    @property
    def n_partitions(self) -> int:
        return len(self._partitions)

    def __len__(self) -> int:
        return self.n_partitions

    def __iter__(self):
        return iter(self._partitions)

    def __getitem__(self, rank: int) -> Partition:
        return self._partitions[rank]

    def partition_views(self, data: np.ndarray) -> list[np.ndarray]:
        """Views of ``data`` for all partitions, in rank order."""
        if tuple(data.shape) != self.shape:
            raise ValueError(f"data shape {data.shape} does not match decomposition {self.shape}")
        return [p.view(data) for p in self._partitions]

    def assemble(self, parts: list[np.ndarray], dtype: np.dtype | None = None) -> np.ndarray:
        """Reassemble per-partition arrays into the global grid."""
        if len(parts) != self.n_partitions:
            raise ValueError(f"expected {self.n_partitions} parts, got {len(parts)}")
        out = np.empty(self.shape, dtype=dtype if dtype is not None else np.asarray(parts[0]).dtype)
        for p, arr in zip(self._partitions, parts):
            arr = np.asarray(arr)
            if tuple(arr.shape) != p.shape:
                raise ValueError(
                    f"partition {p.rank} has shape {arr.shape}, expected {p.shape}"
                )
            out[p.slices] = arr
        return out

    def per_partition_map(self, values: np.ndarray) -> np.ndarray:
        """Reshape a length-``n_partitions`` vector onto the block grid.

        Used for the error-bound map visualizations (Figs. 11/17).
        """
        values = np.asarray(values)
        if values.shape != (self.n_partitions,):
            raise ValueError(
                f"expected {self.n_partitions} values, got shape {values.shape}"
            )
        return values.reshape(self.blocks)
