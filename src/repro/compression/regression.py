"""Block-wise linear-regression predictor (SZ2's second predictor).

SZ's adaptive stage (§2.2, [Liang et al. 2018]) chooses per block
between the Lorenzo predictor and a fitted hyperplane
``f(i, j, k) = b0 + b1*i + b2*j + b3*k``.  The hyperplane wins on
smooth-but-sloped data where Lorenzo's residuals carry the local noise
twice.

This module implements that predictor in the dual-quantization setting,
on the batched integer front :mod:`repro.compression.sz` runs, with the
``(n_tiles, b, b, b)`` stack of ``block``-sized cubes as its batch:

- the field is tiled and quantized in one pass
  (:func:`~repro.compression.quantizer.quantize_lattice_batch`),
- per cube, the four regression coefficients have *closed-form*
  least-squares solutions (the design matrix is fixed, so its
  pseudo-inverse reduces to three first-moment sums — fully vectorized
  across blocks),
- coefficients are themselves quantized (so the decoder reproduces the
  identical prediction) and charged to the stream,
- the Lorenzo candidate is one
  :func:`~repro.compression.lorenzo.lorenzo_transform_batch` over the
  stack, and per block the cheaper of {Lorenzo, regression} is selected
  by residual magnitude, with a one-bit-per-block mode mask,
- the chosen residuals are folded by
  :func:`~repro.compression.quantizer.encode_residuals_batch`; the
  decoder unfolds them and inverts every Lorenzo tile in one
  :func:`~repro.compression.lorenzo.lorenzo_inverse_batch_inplace`.

The public entry point is :class:`AdaptiveSZCompressor`, a drop-in
alternative to :class:`repro.compression.sz.SZCompressor` (``abs`` mode).
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

from repro.compression.api import CompressorCapabilities, CompressorSpec, check_out
from repro.compression.codecs import get_codec, inflate_exact
from repro.compression.estimator import HEADER_BYTES
from repro.compression.kernels import unzigzag, zigzag
from repro.compression.lorenzo import (
    lorenzo_inverse_batch_inplace,
    lorenzo_transform_batch,
)
from repro.compression.quantizer import (
    DEFAULT_RADIUS,
    encode_residuals_batch,
    quantize_lattice_batch,
    unfold_symbols_into,
)
from repro.util.errors import PayloadError
from repro.util.validation import check_finite, check_positive

__all__ = [
    "AdaptiveSZCompressor",
    "AdaptiveBlockStream",
    "decompress",
    "regression_coefficients",
]

_COEF_QUANT = 64  # coefficient lattice: stored as round(beta * _COEF_QUANT)


def _block_axes(block: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    idx = np.arange(block, dtype=np.float64) - (block - 1) / 2.0
    i = idx[:, None, None]
    j = idx[None, :, None]
    k = idx[None, None, :]
    return i, j, k


def regression_coefficients(blocks: np.ndarray) -> np.ndarray:
    """Closed-form least-squares hyperplane per block.

    ``blocks`` has shape ``(n, b, b, b)``; returns ``(n, 4)`` rows of
    ``[b0, b1, b2, b3]`` for the centred coordinates, i.e.
    ``pred = b0 + b1*(i - c) + b2*(j - c) + b3*(k - c)``.

    With centred coordinates the normal equations are diagonal:
    ``b0 = mean``, ``b_d = sum(x_d * v) / sum(x_d^2)``.
    """
    n, b, _, _ = blocks.shape
    i, j, k = _block_axes(b)
    denom = float((i**2).sum() * b * b)  # sum over the cube of i^2
    vals = np.asarray(blocks, dtype=np.float64)
    b0 = vals.mean(axis=(1, 2, 3))
    b1 = (vals * i).sum(axis=(1, 2, 3)) / denom
    b2 = (vals * j).sum(axis=(1, 2, 3)) / denom
    b3 = (vals * k).sum(axis=(1, 2, 3)) / denom
    return np.stack([b0, b1, b2, b3], axis=1)


def _predict(coeffs: np.ndarray, block: int) -> np.ndarray:
    """Hyperplane prediction per block from ``(n, 4)`` coefficients."""
    i, j, k = _block_axes(block)
    return (
        coeffs[:, 0][:, None, None, None]
        + coeffs[:, 1][:, None, None, None] * i
        + coeffs[:, 2][:, None, None, None] * j
        + coeffs[:, 3][:, None, None, None] * k
    )


def _tiled(arr: np.ndarray, block: int) -> np.ndarray:
    """A 3-D ``arr`` as its ``(nx, ny, nz, b, b, b)`` tiles: a view, whose
    C-ordered copy is the ``(n_tiles, b, b, b)`` stack."""
    nx, ny, nz = (s // block for s in arr.shape)
    t = arr.reshape(nx, block, ny, block, nz, block)
    return t.transpose(0, 2, 4, 1, 3, 5)


#: The code-stream layout :class:`AdaptiveSZCompressor` writes: folded
#: residual symbols (see :mod:`repro.compression.quantizer`).  Layout 1
#: (``r + radius`` codes) decodes through :mod:`repro.compression.compat`.
LAYOUT = 2


@dataclass
class AdaptiveBlockStream:
    """Compressed stream of the adaptive-predictor compressor."""

    shape: tuple[int, int, int]
    source_itemsize: int
    eb: float
    block: int
    codec_name: str
    radius: int
    n_outliers: int
    payloads: dict[str, bytes]
    layout: int = 1  # streams that predate the field

    @property
    def n_elements(self) -> int:
        return math.prod(self.shape)

    @property
    def nbytes(self) -> int:
        return HEADER_BYTES + sum(len(b) for b in self.payloads.values())

    @property
    def bit_rate(self) -> float:
        return 8.0 * self.nbytes / self.n_elements

    @property
    def ratio(self) -> float:
        return self.source_itemsize * self.n_elements / self.nbytes


class AdaptiveSZCompressor:
    """SZ2-style compressor: per-block Lorenzo vs linear regression.

    Operates in ``abs`` mode on 3-D data whose dimensions divide the
    block size.  The error-bound contract is identical to
    :class:`repro.compression.sz.SZCompressor`, without the histogram
    estimator — the capability flags say so, and the codec-free probe
    paths raise :class:`~repro.compression.api.UnsupportedCapabilityError`.
    """

    capabilities = CompressorCapabilities(error_bounded=True)

    def __init__(
        self,
        block: int = 8,
        codec: str = "zlib",
        radius: int = DEFAULT_RADIUS,
    ) -> None:
        if block < 2:
            raise ValueError(f"block must be >= 2, got {block}")
        self.block = int(block)
        self.codec = get_codec(codec)
        self.radius = int(radius)

    @property
    def spec(self) -> CompressorSpec:
        return CompressorSpec.make(
            "sz_adaptive", codec=self.codec.name, block=self.block, radius=self.radius
        )

    # -- compress ----------------------------------------------------------

    def compress(self, data: np.ndarray, eb: float) -> AdaptiveBlockStream:
        return self._encode(data, eb, None)

    def _encode(
        self, data: np.ndarray, eb: float, out: np.ndarray | None
    ) -> AdaptiveBlockStream:
        """:meth:`compress`; with ``out``, also write the reconstruction
        there, bit for bit :func:`decompress` of the stream."""
        arr = np.asarray(data)
        if arr.ndim != 3:
            raise ValueError(f"AdaptiveSZCompressor expects 3-D data, got {arr.ndim}-D")
        if any(s % self.block for s in arr.shape):
            raise ValueError(
                f"shape {arr.shape} does not divide into {self.block}^3 blocks"
            )
        eb = check_positive(eb, "eb")
        source_itemsize = arr.dtype.itemsize if arr.dtype.kind == "f" else 8

        b = self.block
        n_tiles = arr.size // b**3
        # Quantize: tile, widen and divide in one pass, then round.  The
        # rounded ``work`` holds the lattice as floats (a zero may be
        # -0.0), which is what the hyperplane fit reads.
        src = _tiled(arr, b)
        work = np.empty(src.shape)
        with np.errstate(over="ignore"):
            np.divide(src, 2.0 * eb, out=work, dtype=np.float64)
        work = work.reshape(n_tiles, b**3)
        lattice = quantize_lattice_batch(work)
        if lattice is None:
            check_finite(arr, "data")
            raise ValueError(
                "error bound too small relative to data magnitude: quantization "
                "lattice exceeds int64 range"
            )
        tiles = lattice.reshape(n_tiles, b, b, b)
        if out is not None:
            # Every tile the decoder rebuilds, Lorenzo or regression, is
            # its lattice tile, and it dequantizes with this one multiply.
            dst = _tiled(out, b)
            np.multiply(tiles.reshape(dst.shape), 2.0 * eb, out=dst, dtype=np.float64)

        # Candidate 2 first, while the lattice is intact: regression
        # residuals with quantized coefficients.
        coeffs = regression_coefficients(work.reshape(n_tiles, b, b, b))
        qcoeffs = np.rint(coeffs * _COEF_QUANT).astype(np.int64)
        pred = np.rint(_predict(qcoeffs / _COEF_QUANT, b)).astype(np.int64)
        residuals = tiles - pred  # int64 whatever the lattice width
        # Candidate 1: Lorenzo residuals (per tile, zero boundary), one
        # pass over the stack, at the lattice's width.
        lor, _ = lorenzo_transform_batch(tiles, np.empty_like(lattice))

        # Selection: estimated bits per block.  log2(1+|r|) approximates
        # the code length of a residual under a Laplacian-shaped entropy
        # coder; regression additionally pays for its 4 coefficients.
        def bits(r: np.ndarray) -> np.ndarray:
            return np.log2(1.0 + np.abs(r)).reshape(n_tiles, -1).sum(axis=1)

        cost_lor = bits(lor)
        cost_reg = bits(residuals) + np.log2(1.0 + np.abs(qcoeffs)).sum(axis=1)
        use_reg = cost_reg < cost_lor

        np.copyto(residuals, lor, where=~use_reg[:, None, None, None])
        # Folded in place as one row, so outlier positions index the
        # whole stack; ``pred`` is free to be the fold's scratch.
        codes = residuals.reshape(1, -1)
        _, out_pos, out_val, _ = encode_residuals_batch(codes, self.radius, pred)
        payloads = {
            "codes": self.codec.encode(codes[0]),
            "modes": zlib.compress(np.packbits(use_reg).tobytes(), 6),
            "coeffs": zlib.compress(zigzag(qcoeffs[use_reg].ravel()).tobytes(), 6),
            "outlier_pos": zlib.compress(out_pos.tobytes(), 6),
            "outlier_val": zlib.compress(zigzag(out_val).tobytes(), 6),
        }
        return AdaptiveBlockStream(
            shape=tuple(arr.shape),
            source_itemsize=source_itemsize,
            eb=float(eb),
            block=self.block,
            codec_name=self.codec.name,
            radius=self.radius,
            n_outliers=int(out_pos.size),
            payloads=payloads,
            layout=LAYOUT,
        )

    def compress_many(
        self,
        views: list[np.ndarray],
        ebs: np.ndarray | list[float],
        out: list[np.ndarray] | None = None,
    ) -> list[AdaptiveBlockStream]:
        """One stream per (view, bound); the per-block predictor
        selection leaves nothing to batch across views.  ``out[i]``
        receives view ``i``'s reconstruction from its encoder's lattice:
        nothing is decoded."""
        outs = check_out(views, out)
        return [
            self._encode(v, float(eb), None if outs is None else outs[i])
            for i, (v, eb) in enumerate(zip(views, ebs))
        ]

    def decompress(self, stream: AdaptiveBlockStream) -> np.ndarray:
        """Streams are self-describing: any ``sz_adaptive`` one decodes here."""
        return decompress(stream)

    def __repr__(self) -> str:
        return f"AdaptiveSZCompressor(codec={self.codec.name!r}, block={self.block})"


def _check_header(stream: AdaptiveBlockStream) -> None:
    """Refuse a header no encoder writes, before any payload inflates:
    a block of at least 2, a 3-D shape that divides into its cubes, an
    outlier count within the stream and a positive finite bound."""
    b, shape = stream.block, tuple(stream.shape)
    if not (isinstance(b, int | np.integer) and b >= 2):
        raise PayloadError(f"stream block {b!r} is not an integer of at least 2")
    if len(shape) != 3 or min(shape) < 1 or any(s % b for s in shape):
        raise PayloadError(f"stream shape {shape!r} is not 3-D in whole {b}^3 blocks")
    if not 0 <= stream.n_outliers <= math.prod(shape):
        raise PayloadError(f"stream outlier count {stream.n_outliers!r} is out of range")
    if not 0 < stream.eb < math.inf:
        raise PayloadError(f"stream error bound {stream.eb!r} is not positive and finite")


def decompress(stream: AdaptiveBlockStream) -> np.ndarray:
    """Reconstruct a field from an :class:`AdaptiveBlockStream` (it
    records its own block size, codec and radius; no compressor
    instance is needed).  A hostile header is a
    :class:`~repro.util.errors.PayloadError` before anything inflates."""
    _check_header(stream)
    n = stream.n_elements
    nblocks = n // stream.block**3

    def channel(name: str, nbytes: int) -> bytes:
        try:
            return inflate_exact(stream.payloads[name], nbytes, name)
        except KeyError:
            raise PayloadError(f"stream has no {name!r} payload") from None

    use_reg = np.unpackbits(
        np.frombuffer(channel("modes", (nblocks + 7) // 8), dtype=np.uint8),
        count=nblocks,
    ).astype(bool)
    qcoeffs = unzigzag(
        np.frombuffer(channel("coeffs", 32 * int(use_reg.sum())), dtype=np.uint64)
    ).reshape(-1, 4)
    out_pos = np.frombuffer(channel("outlier_pos", 8 * stream.n_outliers), dtype=np.int64)
    out_val = np.frombuffer(channel("outlier_val", 8 * stream.n_outliers), dtype=np.uint64)
    if out_pos.size and not 0 <= int(out_pos.min()) <= int(out_pos.max()) < n:
        raise PayloadError("outlier position outside the stream")
    codes = stream.payloads.get("codes", b"")
    if stream.layout == LAYOUT:
        symbols = get_codec(stream.codec_name).decode(codes, n)
        res = unfold_symbols_into(symbols, np.empty(n, np.int64))
    elif stream.layout == 1:
        from repro.compression import compat  # cold path: retired layout

        res = compat.residuals_v1(stream.codec_name, codes, n, stream.radius)
    else:
        raise PayloadError(f"unknown code-stream layout {stream.layout!r}")
    res[out_pos] = unzigzag(out_val)
    b = stream.block
    tiles = res.reshape(nblocks, b, b, b)  # residuals, inverted in place

    # Lorenzo tiles: prefix sums over their stack in one pass.
    use_lor = ~use_reg
    tiles[use_lor] = lorenzo_inverse_batch_inplace(tiles[use_lor])
    # Regression tiles: add back the quantized hyperplane.
    if len(qcoeffs):
        tiles[use_reg] += np.rint(_predict(qcoeffs / _COEF_QUANT, b)).astype(np.int64)

    # Dequantize straight into the field's layout: one cast-multiply.
    out = np.empty(stream.shape)
    dst = _tiled(out, b)
    np.multiply(tiles.reshape(dst.shape), 2.0 * float(stream.eb), out=dst, dtype=np.float64)
    return out
