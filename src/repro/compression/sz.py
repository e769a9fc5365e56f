"""The assembled SZ-style error-bounded lossy compressor.

Pipeline (cuSZ's dual-quantization order — the only one this module
runs):

1. **Quantize** the field onto the integer lattice of pitch ``2*eb``
   (:mod:`repro.compression.quantizer`) — this alone fixes the pointwise
   error bound.  The lattice is int32 where the rounded range proves
   every later value fits it, int64 otherwise; steps 2-3 run at that
   width and give the same values either way.
2. **Predict** with the Lorenzo transform on the integer lattice
   (:mod:`repro.compression.lorenzo`) — smooth data collapses to small
   residuals.
3. **Fold** the residuals into small non-negative symbols
   (:mod:`repro.compression.quantizer`: ``0`` = outlier, ``r ->
   zigzag(r) + 1``), with an exact outlier channel for residuals outside
   the radius.
4. **Encode** each block's symbols at their minimal width — byte planes
   when wider than one byte — with an entropy codec
   (:mod:`repro.compression.codecs`).

Steps 1-3 and the byte-plane split of step 4 run batched over ``(B, n)``
stacks of same-shape blocks — chunks of at most
:data:`GROUP_LATTICE_BYTES` of lattice, cut and threaded by one chunker
(:func:`_run_chunks`); a single :meth:`~SZCompressor.compress` is a
batch of one — so there is one front, written once in NumPy.  Decode
is its mirror: :func:`decompress_many` runs each chunk of the same
chunker through one unfold / scatter / prefix-sum / dequantize pass,
and :func:`decompress` is a chunk of one.  The codec-free probe,
:meth:`~SZCompressor.estimate_ladder`, maps each chunk once for a whole
ladder of bounds and runs steps 1-3 per bound with no entropy codec;
:meth:`~SZCompressor.estimate` is a ladder of one.

This is code-stream **layout 2**, the only one this module reads or
writes; layout-1 blocks (``r + radius`` codes, interleaved bytes) are
handed to :mod:`repro.compression.compat`.

CPU-SZ's order (predict from reconstructed neighbours, then quantize)
is a labelled reference in :mod:`repro.compression.reference`; the only
thing this module knows about it is that :func:`decompress` hands its
blocks over.

The compressor guarantees ``max |x - x'| <= eb`` in ``abs`` mode and
``max |x'/x - 1| <= eb`` in ``pw_rel`` mode, verified property-style in
the test suite.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro import telemetry
from repro.compression.api import SZ_CAPABILITIES, CompressorSpec, check_out
from repro.compression.codecs import (
    _minimal_uint_dtype,
    deflate_channel,
    get_codec,
    inflate_channel,
    pack_positions,
    unpack_positions,
)
from repro.compression.estimator import (
    HEADER_BYTES,
    RQEstimate,
    _minimal_itemsize,
    estimate_nbytes_rows,
)
from repro.compression.kernels import byte_planes, unzigzag, zigzag
from repro.compression.lorenzo import (
    lorenzo_inverse_batch_inplace,
    lorenzo_transform_batch,
)
from repro.compression.quantizer import (
    DEFAULT_RADIUS,
    encode_residuals_batch,
    pw_rel_to_log_abs,
    quantize_lattice_batch,
    unfold_symbols_into,
)
from repro.util.errors import PayloadError
from repro.util.fanout import thread_map, usable_cpus

__all__ = [
    "SZCompressor",
    "CompressedBlock",
    "decompress",
    "decompress_many",
    "HEADER_BYTES",
]

_MODES = ("abs", "pw_rel")

#: The code-stream layout :class:`SZCompressor` writes (see the module
#: docstring); blocks without the field are layout 1.
LAYOUT = 2

#: Most lattice elements one batched pass works in, as a byte budget at
#: 8 bytes an element (int64, and the float64 work stack): 64 blocks of
#: 16^3, 8 of 32^3.  Longer groups compress, probe and decode in chunks
#: of this many elements, so the temporaries one pass allocates — a few
#: lattice-sized arrays, freed when it returns — stay bounded, and
#: cache-sized, however long the group.  The chunk is cut before the
#: encode front knows its lattice width, so an int32 chunk holds the
#: same blocks in half the bytes.
GROUP_LATTICE_BYTES = 2 << 20


def _chunk_len(n: int) -> int:
    """Most blocks of ``n`` elements one batched pass takes."""
    return max(1, GROUP_LATTICE_BYTES // (8 * n))


@dataclass
class CompressedBlock:
    """A compressed partition plus everything needed to decompress it.

    The block is self-describing: :func:`decompress` needs no compressor
    instance.  ``nbytes`` (and hence :attr:`bit_rate` / :attr:`ratio`)
    charges all payloads plus a fixed :data:`HEADER_BYTES` header.
    ``layout`` names the code-stream layout of the payloads; it defaults
    to 1 so blocks built from stores that predate the field decode as
    what they are, and the encoder always sets :data:`LAYOUT`.
    """

    shape: tuple[int, ...]
    source_itemsize: int
    eb: float
    mode: str
    engine: str
    codec_name: str
    radius: int
    n_outliers: int
    payloads: dict[str, bytes] = field(repr=False)
    layout: int = 1

    @property
    def n_elements(self) -> int:
        return math.prod(self.shape)

    @property
    def nbytes(self) -> int:
        return HEADER_BYTES + sum(len(b) for b in self.payloads.values())

    @property
    def bit_rate(self) -> float:
        """Average bits stored per value."""
        return 8.0 * self.nbytes / self.n_elements

    @property
    def ratio(self) -> float:
        """Compression ratio vs. the uncompressed source representation."""
        return self.source_itemsize * self.n_elements / self.nbytes


class SZCompressor:
    """Error-bounded lossy compressor in the SZ family.

    Parameters
    ----------
    mode:
        ``"abs"`` (absolute bound) or ``"pw_rel"`` (pointwise relative
        bound; requires strictly positive data).
    codec:
        Entropy stage: ``"zlib"`` (default; C-speed DEFLATE),
        ``"huffman"`` (from-scratch canonical Huffman + zlib), or
        ``"raw"``.
    radius:
        Residual radius: residuals with ``|r| < radius`` are coded as
        symbols in ``[1, 2*radius)``, the rest go to the outlier channel.

    Examples
    --------
    >>> import numpy as np
    >>> comp = SZCompressor()
    >>> data = np.linspace(0, 1, 64, dtype=np.float32).reshape(4, 4, 4)
    >>> block = comp.compress(data, eb=1e-3)
    >>> recon = comp.decompress(block)
    >>> bool(np.max(np.abs(recon - data)) <= 1e-3)
    True
    """

    #: Declared capabilities (the registry's capability typing): SZ is
    #: the error-bounded family with the codec-free histogram estimator.
    capabilities = SZ_CAPABILITIES

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
        """This instance's configuration as a serializable spec.

        ``registry.create(compressor.spec)`` reconstructs an instance
        with byte-identical payloads (property-tested); the stream
        ledger records this spec with every decision.  ``engine`` is the
        constant ``"dual"``: the key is how the registry tells this class
        from :mod:`repro.compression.reference`, and stored specs keep
        their bytes.
        """
        return CompressorSpec.sz(
            mode=self.mode,
            codec=self.codec.name,
            radius=self.radius,
            engine="dual",
        )

    # -- public API ------------------------------------------------------

    def compress(self, data: np.ndarray, eb: float) -> CompressedBlock:
        """Compress ``data`` under error bound ``eb``.

        ``eb`` is absolute in ``abs`` mode and relative in ``pw_rel``
        mode.  Arrays of 1-3 dimensions are supported.
        """
        arrs, eb_arr = _check_batch([data], [eb])
        return self._compress_batch(arrs, eb_arr)[0]

    def compress_many(
        self,
        views: list[np.ndarray],
        ebs: np.ndarray | list[float],
        out: list[np.ndarray] | None = None,
    ) -> list[CompressedBlock]:
        """Compress a batch of partitions under per-partition bounds.

        The batched hot path the rank loop uses.  Blocks are
        grouped by shape and each group is cut into chunks of at most
        :data:`GROUP_LATTICE_BYTES` of lattice (8 blocks of 32^3).  A
        chunk runs the *whole* pipeline — quantize, Lorenzo, residual
        fold, narrowing / byte planes, outlier side channels, entropy
        encodes — as one multi-block pass over ``(B, n)`` temporaries it
        allocates and drops, instead of one interpreter round-trip per
        block; so the scratch live at once is one chunk's per thread,
        however long the group.  Chunks of blocks with at least
        :data:`FANOUT_MIN_ELEMENTS` elements fan out over the usable CPUs
        (NumPy and zlib release the GIL), a group making at least one
        chunk per thread; smaller ones run in order in the calling
        thread (:func:`_run_chunks`).
        Output blocks are byte-identical to per-partition
        :meth:`compress` calls regardless of grouping, chunking or thread
        count (property-tested).

        ``out`` (checked by :func:`~repro.compression.api.check_out`
        before any work) receives each block's reconstruction, bit for
        bit what :func:`decompress` returns, with no decode: under dual
        quantization it is the block's lattice times ``2*eb``
        (exponentiated in ``pw_rel``), written while the front still
        holds the lattice.  Pool threads write disjoint ``out`` arrays.
        """
        arrs, eb_arr = _check_batch(views, ebs)
        outs = check_out(arrs, out)
        return _run_chunks(
            lambda idxs: self._compress_batch(
                [arrs[i] for i in idxs],
                eb_arr[idxs],
                None if outs is None else [outs[i] for i in idxs],
            ),
            arrs,
        )

    def estimate(self, data: np.ndarray, eb: float) -> RQEstimate:
        """Predict compressed size *and* quality without running a codec:
        :meth:`estimate_ladder` of one view at one bound.

        Runs the cheap front of the pipeline (quantize -> Lorenzo ->
        residual codes) and reads the predicted entropy-coded size off
        a census of the quantization codes
        (:mod:`repro.compression.estimator`) — no DEFLATE/Huffman pass,
        no payload bytes.  The same pass yields the MSE of the values
        the decoder will return (each cell, outliers included, decodes
        to its lattice point), so the returned
        :class:`~repro.compression.estimator.RQEstimate` carries
        predicted PSNR/NRMSE alongside the rate.
        """
        return self.estimate_ladder([data], [eb])[0][0]

    def estimate_ladder(
        self, views: list[np.ndarray], ebs: np.ndarray | list[float]
    ) -> list[list[RQEstimate]]:
        """The codec-free probe of every view at each bound of a ladder:
        ``ladder[j][i]`` is view ``i`` at bound ``ebs[j]``, the same
        estimate whatever the other views and bounds, the chunking or
        the thread count.  The fast path behind ``probe_mode="model"``:
        rate-model calibration, model-mode sweeps and the ratio-quality
        engine.  A bad view or bound raises the ``ValueError`` of
        :meth:`compress_many`.

        Each same-shape group is cut into chunks of at most
        :data:`GROUP_LATTICE_BYTES` of lattice, and each chunk is mapped
        once (:meth:`_map_source`: the copy and widen, the value ranges,
        the checks and, in ``pw_rel``, the ``log``).  Each of its bounds
        then does only its own divide, quantize -> Lorenzo -> residual
        codes, MSE and census, with no entropy codec; in ``abs`` mode the
        MSE subtracts the mapped stack in one contiguous pass.  When the
        views hold at least :data:`PROBE_FANOUT_MIN_ELEMENTS` elements
        together, the chunks go through
        :func:`~repro.util.fanout.thread_map`, and each chunk's bounds
        through a nested one, so a field of one chunk still fans out over
        its bounds and a field of many keeps every thread on its own
        chunk; a smaller probe runs its chunks and bounds in order in the
        calling thread.  Peak memory is one mapped chunk
        plus one bound's pass per thread.  One ``rq.probe`` span wraps
        the whole ladder, so armed traces show the trial compressions
        the ratio-quality model eliminated, with an ``sz.map`` span per
        chunk and per bound's divide.
        """
        arrs = [_check_array(np.asarray(v)) for v in views]
        eb_arr = _check_bounds(ebs)
        if eb_arr.ndim != 1:
            raise ValueError(f"need a 1-D ladder of error bounds, got shape {eb_arr.shape}")
        bounds = eb_arr.tolist()
        ladder: list[list] = [[None] * len(arrs) for _ in bounds]
        with telemetry.get_tracer().span("rq.probe", blocks=len(arrs), bounds=len(bounds)):
            if bounds:
                chunks = [
                    idxs
                    for shape, group in _shape_groups(arrs).items()
                    for idxs in _cut(group, math.prod(shape))
                ]
                wide = sum(arr.size for arr in arrs) >= PROBE_FANOUT_MIN_ELEMENTS
                fan = thread_map if wide else _in_order
                runs = fan(
                    lambda idxs: self._ladder_chunk([arrs[i] for i in idxs], bounds, fan), chunks
                )
                for idxs, rungs in zip(chunks, runs):
                    for row, got in zip(ladder, rungs):
                        for i, estimate in zip(idxs, got):
                            row[i] = estimate
        return ladder

    def _ladder_chunk(
        self, arrs: list[np.ndarray], bounds: list[float], fan: Callable
    ) -> list[list[RQEstimate]]:
        """One chunk of *same-shape* blocks probed at every bound: mapped
        once, then one probe pass per bound, through ``fan``."""
        tracer = telemetry.get_tracer()
        ranges = np.empty(len(arrs), np.float64)
        with tracer.span("sz.map", blocks=len(arrs), mode=self.mode):
            source = self._map_source(arrs, ranges)
        # In abs mode the mapped rows are the source values, widened: the
        # MSE subtracts them as one stack.
        truth = source if self.mode == "abs" else arrs

        def rung(eb: float) -> list[RQEstimate]:
            eb_arr = np.full(len(arrs), eb)
            with tracer.span("sz.map", blocks=len(arrs), mode=self.mode):
                scales = self._pitches(eb_arr)
                with np.errstate(over="ignore"):
                    work = np.divide(source, scales[:, None])
            symbols, counts, _pos, _val, _maxes = self._encode_mapped(work, scales, arrs[0].shape)
            mses = self._decoded_mse_rows(work, scales, truth)
            # One sparse census over the sorted symbol matrix (this pass's
            # own, sorted in place): at tight bounds the folded symbols
            # span far more values than a row holds.
            est_arr, bits_arr = estimate_nbytes_rows(symbols, counts, self.codec.name)
            return [
                RQEstimate(
                    n_elements=int(arr.size),
                    source_itemsize=arr.dtype.itemsize if arr.dtype.kind == "f" else 8,
                    n_outliers=int(counts[row]),
                    code_bits_per_value=float(bits_arr[row]),
                    est_nbytes=float(est_arr[row]),
                    eb=eb,
                    value_range=float(ranges[row]),
                    predicted_mse=float(mses[row]),
                )
                for row, arr in enumerate(arrs)
            ]

        return fan(rung, bounds)

    def _decoded_mse_rows(
        self, rounded: np.ndarray, scales: np.ndarray, truth: "list[np.ndarray] | np.ndarray"
    ) -> np.ndarray:
        """MSE of each probed view after decode, in value space.

        ``rounded`` holds each block's rows as the quantize step rounded
        them onto the lattice (overwritten here).  Times the pitch
        ``scales`` (exponentiated in ``pw_rel``) they are the decoder's
        values, outliers included: an outlier is a Lorenzo residual that
        ships in a side channel, and its cell still decodes to its
        lattice point.  Minus the source — ``truth``, the views, or their
        float64 ``(B, n)`` stack, subtracted in one pass — every point's
        actual error, in a few group-wide passes.  The uniform U[-eb, eb]
        model assumes errors fill the bound; on fields whose values sit
        mostly far below ``eb`` (lognormal density: nearly everything
        quantizes to code 0 with error << eb) it over-predicts MSE by an
        order of magnitude, so the probe measures instead of assuming.
        """
        n_blocks, n = rounded.shape
        err = rounded
        err *= scales[:, None]
        if self.mode != "abs":
            np.exp(err, out=err)
        if isinstance(truth, np.ndarray):
            err -= truth
        else:
            for row, arr in zip(err, truth):
                row.reshape(arr.shape)[...] -= arr
        # einsum sums a lone row in another order than the rows of a
        # stack, so a one-row chunk is summed as a stack of two: a
        # block's MSE has the same bits however its group was chunked.
        if n_blocks == 1:
            err = np.broadcast_to(err, (2, n))
        return np.einsum("ij,ij->i", err, err)[:n_blocks] / n

    def decompress(self, block: CompressedBlock) -> np.ndarray:
        """Reconstruct the field from a :class:`CompressedBlock` (float64).

        The block is self-describing; this delegates to the module-level
        :func:`decompress` and ignores the instance's own settings.
        """
        return decompress(block)

    # -- internals --------------------------------------------------------

    def _compress_batch(
        self, arrs: list[np.ndarray], eb_arr: np.ndarray, out: list[np.ndarray] | None = None
    ) -> list[CompressedBlock]:
        """Compress a chunk of *same-shape* blocks in one kernel pass,
        writing reconstructions into ``out`` if given."""
        symbols, counts, pos, val, maxes = self._quantize_encode_batch(arrs, eb_arr, out)
        payloads = self._encode_payloads_batch(symbols, counts, pos, val, maxes)
        blocks = []
        for b, arr in enumerate(arrs):
            source_itemsize = arr.dtype.itemsize if arr.dtype.kind == "f" else 8
            blocks.append(
                CompressedBlock(
                    shape=tuple(arr.shape),
                    source_itemsize=source_itemsize,
                    eb=float(eb_arr[b]),
                    mode=self.mode,
                    engine="dual",
                    codec_name=self.codec.name,
                    radius=self.radius,
                    n_outliers=int(counts[b]),
                    payloads=payloads[b],
                    layout=LAYOUT,
                )
            )
        return blocks

    def _map_batch(
        self, arrs: list[np.ndarray], eb_arr: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The front's map step over the chunk as one ``(B, n)`` stack:
        :meth:`_map_source`, then the divide by each row's lattice pitch
        (:meth:`_pitches`), in place.

        Bad input raises before any lattice work.  Returns ``(work,
        scales)``: ``work`` holds each block's ``x / (2*eb)`` (``ln x``
        over the log-space pitch in ``pw_rel``), ``scales`` each row's
        pitch.
        """
        with telemetry.get_tracer().span("sz.map", blocks=len(arrs), mode=self.mode):
            work = self._map_source(arrs)
            scales = self._pitches(eb_arr)
            with np.errstate(over="ignore"):
                np.divide(work, scales[:, None], out=work)
        return work, scales

    def _map_source(self, arrs: list[np.ndarray], ranges: np.ndarray | None = None) -> np.ndarray:
        """The bound-free half of the map: each block copied (exactly
        widened) into its row of a float64 ``(B, n)`` work array, then
        each check and transform run once over the whole stack — the
        finite check (``abs``), or the ``<= 0`` check, ``log`` and finite
        check (``pw_rel``).  One ``copyto`` per block is all that runs
        block by block, so a chunk of many small blocks makes a handful
        of large NumPy calls, which release the GIL, not a few per block.

        Bad input raises here.  Given ``ranges``, each row's value range
        (max - min of the source values) is written there before the
        ``log``.  Returns the stack.
        """
        shape = arrs[0].shape
        work = np.empty((len(arrs), int(arrs[0].size)), np.float64)
        mask = np.empty(work.shape, np.bool_)
        for row, arr in zip(work, arrs):
            np.copyto(row.reshape(shape), arr)
        if ranges is not None:
            np.subtract(work.max(axis=1), work.min(axis=1), out=ranges)
        if self.mode != "abs":
            np.less_equal(work, 0, out=mask)
            if mask.any():
                raise ValueError("pw_rel mode requires strictly positive data")
            np.log(work, out=work)
        np.isfinite(work, out=mask)
        if not mask.all():
            raise ValueError("data contains non-finite values (NaN or Inf)")
        return work

    def _pitches(self, eb_arr: np.ndarray) -> np.ndarray:
        """Each row's lattice pitch: ``2*eb``, or twice the log-space
        bound in ``pw_rel``."""
        if self.mode == "abs":
            return np.multiply(eb_arr, 2.0)
        return np.array([2.0 * pw_rel_to_log_abs(float(eb)) for eb in eb_arr])

    def _quantize_encode_batch(
        self,
        arrs: list[np.ndarray],
        eb_arr: np.ndarray,
        out: list[np.ndarray] | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Batched front: map -> quantize -> Lorenzo -> folded symbols
        (:meth:`_map_batch`, then :meth:`_encode_mapped`)."""
        work, scales = self._map_batch(arrs, eb_arr)
        return self._encode_mapped(work, scales, arrs[0].shape, out)

    def _encode_mapped(
        self,
        work: np.ndarray,
        scales: np.ndarray,
        shape: tuple[int, ...],
        out: list[np.ndarray] | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The front after the map: quantize -> Lorenzo -> folded
        symbols.

        All blocks (shape ``shape``, one per row of the ``(B, n)``
        stacks; ``work`` and ``scales`` as :meth:`_map_batch` returns
        them) run in one multi-block pass; ``work`` is left holding the
        rounded rows.  The lattice is int32 when the rounded range proves
        every residual and symbol fits it, else int64
        (:func:`~repro.compression.quantizer.quantize_lattice_batch`);
        the symbols come back at that width, the outlier values as int64.
        Returns ``(symbols (B, n), outlier counts, positions, values,
        per-row largest symbol)``.  Given ``out``,
        each block's reconstruction is written there between quantize
        and Lorenzo (:meth:`_dequantize_into`).
        """
        tracer = telemetry.get_tracer()  # null object when disarmed
        n_blocks, n = work.shape
        with tracer.span("sz.quantize", blocks=n_blocks) as span:
            lattice = quantize_lattice_batch(work)
            if lattice is not None:
                span.set_attr("lattice", 8 * lattice.itemsize)
        if lattice is None:
            raise ValueError(
                "error bound too small relative to data magnitude: quantization "
                "lattice exceeds int64 range"
            )
        if out is not None:
            self._dequantize_into(out, lattice, scales, work)
        # Normalize to (B, nx, ny, nz); length-1 axes are the identity
        # under the zero-boundary difference, so padding is free.
        stack = lattice.reshape((n_blocks,) + shape + (1,) * (3 - len(shape)))
        scratch = np.empty_like(lattice)
        with tracer.span("sz.lorenzo", blocks=n_blocks):
            res, spare = lorenzo_transform_batch(stack, scratch)
        symbols = res.reshape(n_blocks, n)
        with tracer.span("sz.residual", blocks=n_blocks):
            counts, pos, val, maxes = encode_residuals_batch(symbols, self.radius, spare)
        return symbols, counts, pos, val, maxes

    def _dequantize_into(
        self, out: list[np.ndarray], lattice: np.ndarray, scales: np.ndarray, work: np.ndarray
    ) -> None:
        """The decoder's last step, on the lattice the front holds: each
        ``out[b]`` gets row ``b`` cast-multiplied by its pitch ``2*eb``
        in bound space, as :func:`_decompress_chunk` computes it.

        Not from the rounded ``work`` rows: they hold ``-0.0`` where the
        int64 cast gives ``+0.0``, equal values with other bits.  In
        ``pw_rel`` the product goes to ``work`` (free once the lattice is
        cast) so ``np.exp`` runs on a contiguous ``(B, n)`` stack, as the
        decoder's does, and is then copied out.
        """
        for b, dst in enumerate(out):
            if self.mode == "abs":
                np.multiply(lattice[b].reshape(dst.shape), scales[b], out=dst, dtype=np.float64)
            else:
                np.multiply(lattice[b], scales[b], out=work[b], dtype=np.float64)
        if self.mode != "abs":
            np.exp(work, out=work)
            for b, dst in enumerate(out):
                np.copyto(dst, work[b].reshape(dst.shape))

    def _encode_payloads_batch(
        self,
        symbols: np.ndarray,
        counts: np.ndarray,
        pos: np.ndarray,
        val: np.ndarray,
        maxes: np.ndarray,
    ) -> list[dict[str, bytes]]:
        """Vectorized side channels + the per-block entropy stage.

        Narrowing to each block's minimal width, the byte-plane split of
        blocks wider than one byte, outlier-position narrowing and the
        zigzag map each run once per run of equal-width blocks / once
        over the whole chunk; only the per-block entropy encodes remain,
        and those see one contiguous byte row each.
        """
        tracer = telemetry.get_tracer()
        codec = self.codec
        n_blocks, n = symbols.shape
        with tracer.span("sz.side_channels", blocks=n_blocks):
            rows: list[np.ndarray] = list(symbols)
            if codec.byte_oriented:
                widths = _minimal_itemsize(maxes)
                ends = np.cumsum(widths * n)
                stacked = np.empty(int(ends[-1]), np.uint8)
                cuts = (np.flatnonzero(np.diff(widths)) + 1).tolist()
                for lo, hi in zip([0] + cuts, cuts + [n_blocks]):
                    k = int(widths[lo])
                    planes = stacked[int(ends[lo]) - k * n : int(ends[hi - 1])]
                    planes = planes.reshape(hi - lo, k, n)
                    byte_planes(symbols[lo:hi], planes)
                    rows[lo:hi] = planes
            offsets = np.zeros(n_blocks + 1, np.int64)
            np.cumsum(counts, out=offsets[1:])
            if pos.size:
                pos_dt = _minimal_uint_dtype(n - 1)
                pos_narrow = pos.astype(pos_dt)  # pos < n: exact
                zz = zigzag(val)
            else:
                pos_narrow = pos
                zz = val

        with tracer.span("sz.entropy", blocks=n_blocks, codec=codec.name):
            return [
                {
                    "codes": codec.encode_row(rows[b]),
                    "outlier_pos": pack_positions(pos_narrow[offsets[b] : offsets[b + 1]]),
                    "outlier_val": deflate_channel(zz[offsets[b] : offsets[b + 1]]),
                }
                for b in range(n_blocks)
            ]


#: Fewest elements per block for which handing chunks to the pool
#: pays: :func:`_run_chunks` fans out chunks of such blocks — encode or
#: decode — and keeps smaller ones in the calling thread.
#: Measured on a 2-vCPU box, time on two threads over time on one (64
#: blocks per field, medians, per-block entropy encodes / decodes): 8^3
#: 1.35x / 1.24x, 16^3 1.07x / 1.38x, 24^3 0.89x / 1.09x, 32^3 0.88x /
#: 0.87x, 48^3 0.95x / 0.76x; the crossover lies between 24^3 and 32^3.
#: The warm pool the caller works in does not move it: gated at 16^3
#: instead, six 64^3 fields in 16^3 blocks compress no faster (87 ms
#: either way) and the governed stream, whose blocks are 16^3, lost 14 %
#: of its throughput and gained 6 MB of peak RSS (``docs/kernels.md``).
#: A property of the input, deliberately not a setting.
FANOUT_MIN_ELEMENTS = 28**3


#: Fewest elements, all views together, for which the ladder probe
#: (:meth:`SZCompressor.estimate_ladder`) hands its chunks and bounds to
#: the pool.  Its passes have no per-block entropy stage, so what pays
#: for the dispatch is the elements one bound's pass covers, whatever the
#: block size.  Measured on a 2-vCPU box, five bounds, median time with
#: the fan-out over time in the calling thread: 2^15 elements 1.27-1.38x,
#: 2^16 1.04-1.08x, 2^17 0.81-0.87x, 2^18 0.71-0.78x, alike in 8^3, 16^3,
#: 32^3 and 64^3 blocks.  So calibration's 24 sampled 16^3 or 8^3
#: partitions stay in the calling thread, and a sweep of a 64^3 field
#: in any partitioning fans out.  A property of the input, not a setting.
PROBE_FANOUT_MIN_ELEMENTS = 2**17


def _in_order(fn: Callable, items: Sequence) -> list:
    """:func:`~repro.util.fanout.thread_map`'s results, in the calling
    thread alone."""
    return [fn(item) for item in items]


def _run_chunks(run: Callable[[np.ndarray], list], items: Sequence) -> list:
    """``run(idxs)`` over every chunk ``idxs`` (indices into ``items``,
    anything with a ``.shape``), results back in input order.

    Each same-shape group is cut into the fewest even chunks of at most
    :data:`GROUP_LATTICE_BYTES` / 8 lattice elements (the budget at 8
    bytes an element, whatever width the lattice then takes).  Chunks
    of blocks with at least :data:`FANOUT_MIN_ELEMENTS` elements are at
    least one per usable CPU (:func:`~repro.util.fanout.usable_cpus`)
    and, when there are two or more, go to
    :func:`~repro.util.fanout.thread_map`: the calling thread works
    through them alongside the process's pool threads (or alone, when
    they are busy with an outer fan-out); the rest run in order in the
    calling thread.  Each chunk is independent,
    so the outputs do not depend on the cut.
    """
    threads = usable_cpus()
    local: list[np.ndarray] = []  # chunks for the calling thread
    fanned: list[np.ndarray] = []  # chunks for thread_map
    for shape, idxs in _shape_groups(items).items():
        n = math.prod(shape)
        wide = threads > 1 and n >= FANOUT_MIN_ELEMENTS
        (fanned if wide else local).extend(_cut(idxs, n, min(threads, len(idxs)) if wide else 1))
    if len(fanned) < 2:
        local, fanned = local + fanned, []

    results = [run(c) for c in local]
    if fanned:
        results += thread_map(run, fanned)
    out: list = [None] * len(items)
    for idxs, got in zip(local + fanned, results):
        for i, item in zip(idxs, got):
            out[i] = item
    return out


def _shape_groups(items: Sequence) -> dict[tuple[int, ...], list[int]]:
    """Indices into ``items`` (anything with a ``.shape``) by shape, in
    first-seen order."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, item in enumerate(items):
        groups.setdefault(tuple(item.shape), []).append(i)
    return groups


def _cut(idxs: list[int], n: int, at_least: int = 1) -> list[np.ndarray]:
    """A group of blocks of ``n`` elements each, cut into the fewest even
    chunks — but at least ``at_least`` — that keep within the lattice
    budget."""
    return np.array_split(np.asarray(idxs), max(at_least, -(-len(idxs) // _chunk_len(n))))


def _check_array(arr: np.ndarray) -> np.ndarray:
    if arr.ndim < 1 or arr.ndim > 3:
        raise ValueError(f"SZCompressor supports 1-3 dimensional data, got {arr.ndim}-D")
    if arr.size == 0:
        raise ValueError("cannot compress an empty array")
    return arr


def _check_batch(
    views: list[np.ndarray], ebs: np.ndarray | list[float]
) -> tuple[list[np.ndarray], np.ndarray]:
    """The one argument check of the batch entry points: every view a
    non-empty 1-3-D array, one positive finite bound per view."""
    arrs = [_check_array(np.asarray(v)) for v in views]
    eb_arr = np.asarray(ebs, dtype=np.float64)
    if eb_arr.ndim != 1 or eb_arr.size != len(arrs):
        raise ValueError(
            f"need one error bound per view: {len(arrs)} views, "
            f"ebs shape {eb_arr.shape}"
        )
    return arrs, _check_bounds(eb_arr)


def _check_bounds(ebs: np.ndarray | Sequence[float]) -> np.ndarray:
    """Bounds as a float64 array, each positive and finite."""
    eb_arr = np.asarray(ebs, dtype=np.float64)
    if not np.isfinite(eb_arr).all() or (eb_arr <= 0).any():
        raise ValueError("all error bounds must be positive and finite")
    return eb_arr


def _check_header(block: CompressedBlock) -> None:
    """Refuse a header no encoder writes, before any payload inflates:
    1-3 dimensions, every extent at least 1, a positive finite bound."""
    shape = tuple(block.shape)
    if not 1 <= len(shape) <= 3 or min(shape) < 1:
        raise PayloadError(f"block shape {shape!r} is not 1-3 extents of at least 1")
    if not 0 < block.eb < math.inf:
        raise PayloadError(f"block error bound {block.eb!r} is not positive and finite")


def _bound_space_eb(block: CompressedBlock) -> float:
    """The block's bound in the space it was quantized in."""
    if block.mode == "abs":
        return block.eb
    if block.mode == "pw_rel":
        return pw_rel_to_log_abs(block.eb)
    raise PayloadError(f"unknown mode tag {block.mode!r}")


def _payload_blobs(block: CompressedBlock) -> tuple[bytes, bytes, bytes]:
    """The block's ``(codes, outlier_pos, outlier_val)`` payloads."""
    try:
        return (
            block.payloads["codes"],
            block.payloads["outlier_pos"],
            block.payloads["outlier_val"],
        )
    except KeyError as exc:
        raise PayloadError(f"block has no {exc.args[0]!r} payload") from None


def _outlier_channels(
    block: CompressedBlock, pos_blob: bytes, val_blob: bytes, n: int
) -> tuple[np.ndarray, bytes]:
    """A layout-2 block's ``(outlier positions, outlier value bytes)``,
    every position checked to lie inside the block."""
    out_pos = unpack_positions(pos_blob, block.n_outliers)
    out_val = inflate_channel(val_blob, 8 * block.n_outliers, "outlier values")
    _check_positions(out_pos, n)
    return out_pos, out_val


def _check_positions(out_pos: np.ndarray, n: int) -> None:
    if out_pos.size and int(out_pos.max()) >= n:
        raise PayloadError(f"outlier position {int(out_pos.max())} outside the block")


def _chunked(block: CompressedBlock) -> bool:
    """Check ``block``'s header; whether the chunk decoder reads it (a
    dual-engine layout-2 block) rather than :func:`_decompress_retired`."""
    _check_header(block)
    return block.engine == "dual" and block.layout == LAYOUT


def _decompress_retired(block: CompressedBlock) -> np.ndarray:
    """The blocks no encoder of this module writes: CPU-SZ's order goes
    to :mod:`repro.compression.reference`, layout 1 to
    :mod:`repro.compression.compat`."""
    if block.engine == "classic":
        from repro.compression import reference  # cold path: CPU-SZ order

        return reference.decompress(block)
    if block.engine != "dual":
        raise PayloadError(f"unknown engine tag {block.engine!r}")
    if block.layout == 1:
        from repro.compression import compat  # cold path: retired layout

        return compat.decompress_v1(block)
    raise PayloadError(f"unknown code-stream layout {block.layout!r}")


def decompress(block: CompressedBlock) -> np.ndarray:
    """Reconstruct a field from a self-describing :class:`CompressedBlock`.

    Decoded as a chunk of one by :func:`decompress_many`'s chunk
    decoder, after the same checks, with no chunker around it: this is
    the per-block read path.  Bytes that fail validation (a hostile
    header, an unknown tag or layout, a payload that does not inflate
    to exactly the size the header promises, a missing channel) raise
    :class:`~repro.util.errors.PayloadError`.
    """
    if not _chunked(block):
        return _decompress_retired(block)
    out = np.empty(tuple(block.shape))
    _decompress_chunk([block], [out])
    return out


def decompress_many(
    blocks: Sequence[CompressedBlock], out: Sequence[np.ndarray] | None = None
) -> list[np.ndarray]:
    """Reconstruct every block of ``blocks``, in order: the one decode
    front, bit for bit :func:`decompress` of each block.

    ``out`` (checked by :func:`~repro.compression.api.check_out` before
    anything inflates) is ``None`` or one writable float64 array per
    block with its shape — any strides, so partition views of one field
    buffer take a decomposition's blocks with no assembly copy; the
    arrays returned are then ``out``'s own.  Without it, each chunk's
    arrays are views of one fresh float64 ``(B, *shape)`` array,
    allocated here and filled by the same pass.

    Every header is checked next.  The dual-engine layout-2 blocks are
    then cut and threaded exactly as :meth:`SZCompressor.compress_many`
    cuts its views (:func:`_run_chunks`), and each chunk runs one unfold
    per stored width, one outlier scatter, one prefix-sum pass
    (:func:`~repro.compression.lorenzo.lorenzo_inverse_batch_inplace`)
    over a ``(B, n)`` lattice the pass allocates, and dequantizes
    each lattice row straight into its output array.  Classic-engine
    and layout-1 blocks decode one by one.  A hostile payload raises the
    :class:`~repro.util.errors.PayloadError` :func:`decompress` raises
    for its block, from whichever chunk or thread it is in.
    """
    outs = check_out(blocks, out)
    chunked = [_chunked(block) for block in blocks]
    live = [i for i, ok in enumerate(chunked) if ok]

    def decode(idxs: np.ndarray) -> list[np.ndarray]:
        chunk = [blocks[live[j]] for j in idxs]
        if outs is None:
            dsts = list(np.empty((len(chunk),) + tuple(chunk[0].shape)))
        else:
            dsts = [outs[live[j]] for j in idxs]
        _decompress_chunk(chunk, dsts)
        return dsts

    decoded = iter(_run_chunks(decode, [blocks[i] for i in live]))
    recons = [
        next(decoded) if ok else _decompress_retired(block)
        for block, ok in zip(blocks, chunked)
    ]
    if outs is None:
        return recons
    for dst, recon, ok in zip(outs, recons, chunked):
        if not ok:
            dst[...] = recon
    return outs


class _GroupRow(NamedTuple):
    """One block's validated channels, as the chunk decoder stacks them."""

    key: tuple[bool, int]  # (pw_rel, stored width; 0 = decoded symbols)
    symbols: "bytes | np.ndarray"  # the k plane bytes, or decoded symbols
    out_pos: np.ndarray
    out_val: bytes
    scale: float  # 2 * the bound in quantization space


def _group_row(block: CompressedBlock, n: int) -> _GroupRow:
    """Inflate and validate one block's channels."""
    abs_eb = _bound_space_eb(block)
    codes, pos_blob, val_blob = _payload_blobs(block)
    codec = get_codec(block.codec_name)
    if codec.byte_oriented:
        k, symbols = codec.decode_planes(codes, n)
    else:
        k, symbols = 0, codec.decode(codes, n)
    out_pos, out_val = _outlier_channels(block, pos_blob, val_blob, n)
    return _GroupRow((block.mode != "abs", k), symbols, out_pos, out_val, 2.0 * abs_eb)


def _decompress_chunk(blocks: Sequence[CompressedBlock], out: list[np.ndarray]) -> None:
    """Decode a chunk of same-shape dual-engine layout-2 blocks in one
    pass, block ``i`` into ``out[i]``."""
    n_blocks, shape = len(blocks), tuple(blocks[0].shape)
    n = math.prod(shape)
    rows = [_group_row(b, n) for b in blocks]
    # Lattice rows sorted by (mode, width): each width's blocks are one
    # contiguous slab and the pw_rel blocks come last.
    order = sorted(range(n_blocks), key=lambda i: rows[i].key)
    lattice = np.empty((n_blocks, n), np.int64)
    lo = 0
    for (_, k), run in itertools.groupby(order, key=lambda i: rows[i].key):
        run = list(run)
        dst = lattice[lo : lo + len(run)]
        lo += len(run)
        if k == 0:
            for row, i in zip(dst, run):
                unfold_symbols_into(rows[i].symbols, row)
            continue
        planes = np.frombuffer(
            b"".join(rows[i].symbols for i in run), dtype=np.uint8
        ).reshape(len(run), k, n)
        if k == 1:
            unfold_symbols_into(planes[:, 0], dst)
            continue
        # Shift the planes together from the top at the stored width:
        # one array per stored width present, whose dtype it is.
        wide = np.empty((len(run), n), f"<u{k}")  # repro-lint: disable=RL011
        np.copyto(wide, planes[:, k - 1])
        for plane in range(k - 2, -1, -1):
            wide <<= 8
            wide |= planes[:, plane]
        unfold_symbols_into(wide, dst)
    hits = [(r, rows[i]) for r, i in enumerate(order) if rows[i].out_pos.size]
    if hits:
        lattice.reshape(-1)[np.concatenate([row.out_pos + r * n for r, row in hits])] = (
            unzigzag(np.frombuffer(b"".join(row.out_val for _, row in hits), np.uint64))
        )
    lorenzo_inverse_batch_inplace(lattice.reshape((n_blocks,) + shape))
    # Dequantize: abs rows straight into their outputs; pw_rel rows (the
    # tail) on a contiguous stack for np.exp, as the encoder's
    # _dequantize_into does, then copied out.
    n_abs = n_blocks - sum(rows[i].key[0] for i in order)
    for r, i in enumerate(order[:n_abs]):
        np.multiply(lattice[r].reshape(shape), rows[i].scale, out=out[i], dtype=np.float64)
    if n_abs < n_blocks:
        work = np.empty((n_blocks - n_abs, n), np.float64)
        for r, i in enumerate(order[n_abs:]):
            np.multiply(lattice[n_abs + r], rows[i].scale, out=work[r], dtype=np.float64)
        np.exp(work, out=work)
        for r, i in enumerate(order[n_abs:]):
            np.copyto(out[i], work[r].reshape(shape))
