"""CPU-SZ's *classic* quantization order, kept as a labelled reference.

The production compressor (:mod:`repro.compression.sz`) quantizes first
and predicts on the integer lattice (cuSZ's dual quantization).  CPU-SZ
predicts each cell from its already *reconstructed* neighbours, then
quantizes the prediction error.  §3.2 / Fig. 3 of the paper claim both
orders leave the same uniform error distribution; this module keeps that
claim testable (``benchmarks/test_ablation_quant_order.py``) and keeps
classic-order blocks decoding.  It is a reference, not a second engine:
a Python loop per cell, the production block type, layout and codecs,
no batched kernels and **no size model** — a reference codec is
measured, not modelled.  The registry builds it for ``sz:engine=classic``;
:func:`repro.compression.sz.decompress` hands it the blocks tagged so.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.compression.api import (
    CompressorCapabilities,
    CompressorSpec,
    check_out,
    decode_into,
)
from repro.compression.codecs import (
    _minimal_uint_dtype,
    deflate_channel,
    get_codec,
    pack_positions,
)
from repro.compression.quantizer import (
    DEFAULT_RADIUS,
    pw_rel_to_log_abs,
    unfold_symbols_into,
)
from repro.compression.sz import (
    _MODES,
    LAYOUT,
    CompressedBlock,
    _bound_space_eb,
    _check_batch,
    _outlier_channels,
    _payload_blobs,
)
from repro.compression.sz import decompress as decompress_any_engine
from repro.util.errors import PayloadError

__all__ = ["ClassicSZCompressor", "classic_sz_quantize", "decompress"]


class ClassicSZCompressor:
    """Error-bounded SZ in the classic order: the ``mode`` / ``codec`` /
    ``radius`` parameters, bound guarantees and block type of
    :class:`~repro.compression.sz.SZCompressor`, for small arrays only."""

    capabilities = CompressorCapabilities(error_bounded=True)

    def __init__(
        self,
        mode: str = "abs",
        codec: str = "zlib",
        radius: int = DEFAULT_RADIUS,
    ) -> None:
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        if radius < 2:
            raise ValueError(f"radius must be >= 2, got {radius}")
        self.mode = mode
        self.codec = get_codec(codec)
        self.radius = int(radius)

    @property
    def spec(self) -> CompressorSpec:
        return CompressorSpec.sz(
            mode=self.mode, codec=self.codec.name, radius=self.radius, engine="classic"
        )

    def compress(self, data: np.ndarray, eb: float) -> CompressedBlock:
        return self.compress_many([data], [eb])[0]

    def compress_many(
        self,
        views: list[np.ndarray],
        ebs: np.ndarray | list[float],
        out: list[np.ndarray] | None = None,
    ) -> list[CompressedBlock]:
        """One block at a time — there is nothing to batch; ``out`` is
        filled by decoding each block."""
        arrs, eb_arr = _check_batch(views, ebs)
        outs = check_out(arrs, out)
        blocks = [self._encode(arr, float(eb)) for arr, eb in zip(arrs, eb_arr)]
        return decode_into(outs, blocks, decompress)

    def decompress(self, block: CompressedBlock) -> np.ndarray:
        """Blocks are self-describing: any SZ block decodes here."""
        return decompress_any_engine(block)

    def _encode(self, arr: np.ndarray, eb: float) -> CompressedBlock:
        work, abs_eb = self._to_bound_space(arr, eb)
        codes3d, _recon = classic_sz_quantize(np.atleast_3d(work), abs_eb, self.radius)
        codes = codes3d.ravel()
        out_pos = np.flatnonzero(codes == 0)
        out_val_float = np.atleast_3d(work).ravel()[out_pos]
        pos_dt = _minimal_uint_dtype(max(int(codes.size) - 1, 0))
        payloads = {
            "codes": self.codec.encode(codes),
            "outlier_pos": pack_positions(out_pos.astype(pos_dt, copy=False)),
            "outlier_val": deflate_channel(
                out_val_float.astype(np.float64, copy=False)
            ),
        }
        return CompressedBlock(
            shape=tuple(arr.shape),
            source_itemsize=arr.dtype.itemsize if arr.dtype.kind == "f" else 8,
            eb=float(eb),
            mode=self.mode,
            engine="classic",
            codec_name=self.codec.name,
            radius=self.radius,
            n_outliers=int(out_pos.size),
            payloads=payloads,
            layout=LAYOUT,
        )

    def _to_bound_space(self, arr: np.ndarray, eb: float) -> tuple[np.ndarray, float]:
        """Map data into the space where the bound is absolute, rejecting
        what the production front rejects (same messages)."""
        work = np.asarray(arr, dtype=np.float64)
        abs_eb = eb
        if self.mode != "abs":
            if (work <= 0).any():
                raise ValueError("pw_rel mode requires strictly positive data")
            work, abs_eb = np.log(work), pw_rel_to_log_abs(eb)
        if not np.isfinite(work).all():
            raise ValueError("data contains non-finite values (NaN or Inf)")
        if float(np.abs(work).max()) / (2.0 * abs_eb) >= 2.0**62:
            raise ValueError(
                "error bound too small relative to data magnitude: quantization "
                "lattice exceeds int64 range"
            )
        return work, abs_eb


def _predict_and_place(
    shape3d: tuple[int, int, int], place: "Callable[[int, np.float64], float]"
) -> np.ndarray:
    """CPU-SZ's recurrence, written once for encoder and decoder: visit
    the cells in C order, hand ``place(flat_index, prediction)`` each
    cell's Lorenzo prediction from its already reconstructed neighbours
    (zero boundary) and store the value it returns as the cell's
    reconstruction.  Returns the reconstruction."""
    nx, ny, nz = shape3d
    recon = np.zeros((nx + 1, ny + 1, nz + 1), dtype=np.float64)
    flat = 0
    for i in range(nx):
        for j in range(ny):
            for k in range(nz):
                pred = (
                    recon[i, j + 1, k + 1]
                    + recon[i + 1, j, k + 1]
                    + recon[i + 1, j + 1, k]
                    - recon[i, j, k + 1]
                    - recon[i, j + 1, k]
                    - recon[i + 1, j, k]
                    + recon[i, j, k]
                )
                recon[i + 1, j + 1, k + 1] = place(flat, pred)
                flat += 1
    return recon[1:, 1:, 1:]


def classic_sz_quantize(
    data: np.ndarray, eb: float, radius: int
) -> tuple[np.ndarray, np.ndarray]:
    """Classic CPU-SZ: predict from *reconstructed* neighbours, then quantize.

    Returns ``(codes, reconstruction)``.  ``codes`` holds the
    ``residual/(2 eb)`` offsets as folded symbols, ``zigzag(q) + 1``
    (the map of :mod:`repro.compression.quantizer`; 0 marks an outlier
    whose exact value must be stored separately — here the reconstruction
    simply keeps the original value, as SZ does for unpredictable data).
    """
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 3:
        raise ValueError(f"classic_sz_quantize expects a 3-D array, got {arr.ndim}-D")
    if eb <= 0:
        raise ValueError(f"error bound must be positive, got {eb}")
    values = arr.ravel()
    codes = np.zeros(arr.size, dtype=np.int64)  # 0 = outlier until placed
    two_eb = 2.0 * eb
    max_offset = radius - 1

    def place(flat: int, pred: np.float64) -> float:
        q = int(np.rint((values[flat] - pred) / two_eb))
        if abs(q) > max_offset:
            return values[flat]
        codes[flat] = (2 * q if q >= 0 else -2 * q - 1) + 1
        return pred + q * two_eb

    recon = _predict_and_place(arr.shape, place)
    return codes.reshape(arr.shape), recon


def _read_channels(block: CompressedBlock) -> tuple[np.ndarray, np.ndarray, bytes]:
    """A classic block's ``(offsets (n,) int64, outlier positions,
    outlier value bytes)``; layout 1 is read by
    :mod:`repro.compression.compat`."""
    if block.layout == 1:
        from repro.compression import compat  # cold path: retired layout

        return compat.channels_v1(block)
    if block.layout != LAYOUT:
        raise PayloadError(f"unknown code-stream layout {block.layout!r}")
    n = block.n_elements
    codes, pos_blob, val_blob = _payload_blobs(block)
    symbols = get_codec(block.codec_name).decode(codes, n)
    offsets = unfold_symbols_into(symbols, np.empty(n, np.int64))
    return (offsets, *_outlier_channels(block, pos_blob, val_blob, n))


def decompress(block: CompressedBlock) -> np.ndarray:
    """Reconstruct a classic-order block (either code-stream layout):
    replay the recurrence over the stored offsets, outlier cells taking
    their stored value instead."""
    two_eb = 2.0 * _bound_space_eb(block)
    offsets, out_pos, out_val = _read_channels(block)
    steps = offsets.tolist()
    outliers = dict(
        zip(out_pos.tolist(), np.frombuffer(out_val, dtype=np.float64).tolist())
    )

    def place(flat: int, pred: np.float64) -> float:
        return outliers[flat] if flat in outliers else pred + steps[flat] * two_eb

    shape3d = block.shape + (1,) * (3 - len(block.shape))
    work = _predict_and_place(shape3d, place).reshape(block.shape)
    return work if block.mode == "abs" else np.exp(work)
