"""Error-bounded lossy compression substrate (SZ-like, from scratch).

The paper compresses Nyx fields with SZ/cuSZ.  This package rebuilds that
pipeline in vectorized NumPy:

- :mod:`repro.compression.lorenzo` — the Lorenzo predictor as an
  invertible integer transform (n-fold mixed first difference),
- :mod:`repro.compression.quantizer` — linear-scaling dual quantization
  with ABS and PW_REL error-bound modes plus an outlier channel,
- :mod:`repro.compression.huffman` — canonical Huffman coding with a
  whole-array encoder and a jump-table decoder,
- :mod:`repro.compression.codecs` — pluggable entropy stages (Huffman,
  zlib/DEFLATE, raw),
- :mod:`repro.compression.sz` — the assembled error-bounded compressor;
  its front (quantize, Lorenzo, fold, byte planes) is written once, in
  NumPy, batched over ``(B, ...)`` stacks of same-shape blocks; each
  pass allocates its own temporaries and drops them when it returns,
  and chunking bounds how large one pass's are,
- :mod:`repro.compression.kernels` — the integer maps more than one
  compressor needs (zigzag, the byte-plane split),
- :mod:`repro.compression.estimator` — codec-free bit-rate prediction
  from a census of the quantization codes (the calibration/sweep fast
  path),
- :mod:`repro.compression.reference` — CPU-SZ's classic
  predict-then-quantize order as a labelled reference
  (``sz:engine=classic``; the quantization-order ablation),
- :mod:`repro.compression.compat` — read-only decoders for retired
  stored forms (code-stream layout 1, legacy outlier channels),
- :mod:`repro.compression.container` — the ``.npz`` block container
  (``save_blocks`` / ``load_blocks``; nothing read through pickle),
- :mod:`repro.compression.zfp_like` — a fixed-rate transform codec used
  as the ZFP-style comparator,
- :mod:`repro.compression.api` — the pluggable compressor backbone:
  the one :class:`Compressor` contract every family implements, and
  :data:`REGISTRY`, the fixed table of the three families (``sz``,
  ``sz_adaptive``, ``zfp_like``) resolving serializable
  :class:`CompressorSpec` values into compressor instances, so every
  layer above (calibration, pipeline, sweeps, the stream controller,
  the CLI) selects a compressor *family* instead of hard-coding SZ.

A spec is a compressor's whole configuration: codecs take no arguments
(their zlib level and Huffman code-length limit are constants), so two
instances with one spec write the same bytes.
"""

from repro.compression.sz import SZCompressor, CompressedBlock, decompress
from repro.compression.estimator import RQEstimate
from repro.compression.zfp_like import ZFPLikeCompressor
from repro.compression.regression import AdaptiveSZCompressor
from repro.compression.codecs import HuffmanCodec, RawCodec, ZlibCodec, get_codec
from repro.compression.api import (
    REGISTRY,
    Compressor,
    CompressorCapabilities,
    CompressorRegistry,
    CompressorSpec,
    UnsupportedCapabilityError,
    decompress_any,
    decompress_many,
    resolve_compressor,
)
from repro.compression.stats import (
    CompressionStats,
    bit_rate,
    compression_ratio,
    max_abs_error,
)

__all__ = [
    "SZCompressor",
    "CompressedBlock",
    "decompress",
    "RQEstimate",
    "ZFPLikeCompressor",
    "AdaptiveSZCompressor",
    "HuffmanCodec",
    "ZlibCodec",
    "RawCodec",
    "get_codec",
    "REGISTRY",
    "Compressor",
    "CompressorCapabilities",
    "CompressorRegistry",
    "CompressorSpec",
    "UnsupportedCapabilityError",
    "decompress_any",
    "decompress_many",
    "resolve_compressor",
    "CompressionStats",
    "bit_rate",
    "compression_ratio",
    "max_abs_error",
]
