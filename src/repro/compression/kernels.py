"""Device-ready array kernels behind the batched compress hot path.

The cuSZ decomposition ("Understanding GPU-Based Lossy Compression for
Extreme-Scale Cosmological Simulations", arXiv:2004.00224) shows the
whole SZ pipeline is block-parallelizable end to end.  This module pins
that down as a *narrow array-API boundary*: :class:`ArrayKernels` is the
set of batched operations the compressor's hot path needs — quantize,
Lorenzo predict, residual fold, narrowing / byte-plane split, zigzag —
expressed over ``(B, n)`` / ``(B, nx, ny, nz)`` stacks of same-shape
blocks so a backend can process every block of a field in one pass.

Design rules that keep the boundary device-ready:

- Kernels never raise on data pathologies; they *report* (e.g.
  :meth:`ArrayKernels.quantize` returns ``False``) and the host decides.
  A device backend can reduce a flag without host round-trips.
- Host-side scratch arrays (``mask``/``misfit``/``scratch``) are
  optional hints a backend may ignore; device backends manage their
  own memory.
- The *error-bound space mapping* (``/ 2eb``, ``log``) is **not** a
  kernel: transcendentals differ in the last ulp across math libraries,
  and byte-identical payloads across backends are a hard contract here.
  The compressor keeps that mapping in NumPy on every backend and hands
  kernels only exactly-rounded IEEE and integer operations (``rint``,
  casts, int64 adds/subtracts), which are bit-identical everywhere.

Backends register by name; ``get_kernels("auto")`` prefers the optional
Numba backend (:mod:`repro.compression._kernels_numba`,
``@njit(parallel=True)``) when importable and silently degrades to the
pure-NumPy reference otherwise.  Payload byte-identity across backends
is property-tested in ``tests/compression/test_kernels.py``.
"""

from __future__ import annotations

import importlib.util
from typing import Protocol, runtime_checkable

import numpy as np

from repro.compression.lorenzo import lorenzo_transform_batch_inplace
from repro.compression.quantizer import encode_residuals_batch, quantize_lattice_batch

__all__ = [
    "KERNEL_CHOICES",
    "ArrayKernels",
    "NumpyKernels",
    "register_kernels",
    "available_kernels",
    "get_kernels",
    "zigzag",
    "unzigzag",
]

#: Valid values for the ``kernels=`` spec key.
KERNEL_CHOICES = ("auto", "numpy", "numba")


def zigzag(values: np.ndarray) -> np.ndarray:
    """Map signed int64 to non-negative ints (0,-1,1,-2,... -> 0,1,2,3,...)."""
    v = np.asarray(values, dtype=np.int64)
    return ((v << 1) ^ (v >> 63)).astype(np.uint64)


def unzigzag(values: np.ndarray) -> np.ndarray:
    """Inverse of :func:`zigzag`."""
    v = np.asarray(values, dtype=np.uint64)
    return ((v >> 1).astype(np.int64)) ^ -(v & 1).astype(np.int64)


@runtime_checkable
class ArrayKernels(Protocol):
    """The batched array operations the compress hot path is built on.

    Every method operates on stacks of same-shape blocks; scratch
    parameters are host-memory hints that device backends may ignore.
    Implementations must be *bit-identical* to :class:`NumpyKernels`
    (the reference) — payload bytes are contract, not best-effort.
    """

    name: str

    def quantize(
        self, work: np.ndarray, lattice: np.ndarray, mask: np.ndarray | None = None
    ) -> bool:
        """Round ``work`` (``(B, n)`` float64, already in lattice units)
        in place and exact-cast into int64 ``lattice``.  Returns
        ``False`` when any value is non-finite or outside the int64-safe
        range (caller raises)."""
        ...

    def lorenzo(self, lattice: np.ndarray, scratch: np.ndarray | None = None) -> None:
        """Lorenzo residual transform of a ``(B, nx, ny, nz)`` int64
        stack, in place, over the block axes only (length-1 axes are the
        identity, so trailing singleton padding is free)."""
        ...

    def fold(
        self,
        res: np.ndarray,
        radius: int,
        scratch: np.ndarray | None = None,
        misfit: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Fold ``(B, n)`` int64 residuals into layout-2 symbols in place
        (``0`` = outlier, ``r -> zigzag(r) + 1``); return ``(counts,
        positions, values, maxes)``: the outlier channel (positions are
        within-block flat indices, concatenated in block order) and each
        row's largest symbol, so the narrowing pass that follows needs no
        reduction of its own."""
        ...

    def narrow(self, src: np.ndarray, out: np.ndarray) -> None:
        """Exact-cast copy of ``src`` into the narrower ``out``."""
        ...

    def zigzag(self, values: np.ndarray) -> np.ndarray:
        """Signed int64 -> non-negative uint64 (interleaved)."""
        ...

    def unzigzag(self, values: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`zigzag`."""
        ...

    def byte_planes(self, values: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Narrow and split in one pass: write the ``k`` low little-endian
        byte planes of the integers ``values`` (``(..., n)``, every value
        ``< 256**k``) into ``out`` (``(..., k, n)`` uint8), plane 0 (the
        low byte) first.  ``k = 1`` is the exact cast to uint8; each
        ``out[b]`` is the contiguous byte row the entropy stage codes."""
        ...


class NumpyKernels:
    """Pure-NumPy reference implementation — the byte-identity oracle."""

    name = "numpy"

    def quantize(
        self, work: np.ndarray, lattice: np.ndarray, mask: np.ndarray | None = None
    ) -> bool:
        return quantize_lattice_batch(work, lattice, mask)

    def lorenzo(self, lattice: np.ndarray, scratch: np.ndarray | None = None) -> None:
        lorenzo_transform_batch_inplace(lattice, scratch)

    def fold(
        self,
        res: np.ndarray,
        radius: int,
        scratch: np.ndarray | None = None,
        misfit: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return encode_residuals_batch(res, radius, scratch, misfit)

    def narrow(self, src: np.ndarray, out: np.ndarray) -> None:
        np.copyto(out, src, casting="unsafe")

    def zigzag(self, values: np.ndarray) -> np.ndarray:
        return zigzag(values)

    def unzigzag(self, values: np.ndarray) -> np.ndarray:
        return unzigzag(values)

    def byte_planes(self, values: np.ndarray, out: np.ndarray) -> np.ndarray:
        v = np.asarray(values)
        k = out.shape[-2] if out.ndim >= 2 else 0
        if v.ndim < 1 or v.dtype.kind not in "ui":
            raise ValueError(f"byte_planes expects integer arrays, got {v.dtype}")
        if (
            out.dtype != np.uint8
            or not 1 <= k <= v.dtype.itemsize
            or out.shape != v.shape[:-1] + (k, v.shape[-1])
        ):
            raise ValueError(
                f"out must be uint8 of shape (..., k, n) = "
                f"{v.shape[:-1] + ('k <= %d' % v.dtype.itemsize, v.shape[-1])}, "
                f"got {out.dtype} {out.shape}"
            )
        # A little-endian view exposes byte j of every value at stride
        # itemsize; one strided copy narrows and transposes at once.
        le = v.astype(v.dtype.newbyteorder("<"), copy=False)
        if not le.flags.c_contiguous:
            le = np.ascontiguousarray(le)
        by_byte = le.view(np.uint8).reshape(v.shape + (v.dtype.itemsize,))
        np.copyto(out, np.moveaxis(by_byte[..., :k], -1, -2))
        return out

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


# -- registry ----------------------------------------------------------------

_BACKENDS: dict[str, ArrayKernels] = {}

#: Numba import attempted and failed — probe once, degrade forever after.
_NUMBA_FAILED = False


def register_kernels(impl: ArrayKernels) -> ArrayKernels:
    """Register a kernel backend instance under ``impl.name``."""
    if not isinstance(impl, ArrayKernels):
        raise TypeError(f"expected an ArrayKernels implementation, got {impl!r}")
    _BACKENDS[impl.name] = impl
    return impl


register_kernels(NumpyKernels())


def _load_numba_kernels() -> "ArrayKernels | None":
    """Import, instantiate and cache the Numba backend; ``None`` when
    numba is absent or broken (the probe result is sticky)."""
    global _NUMBA_FAILED
    impl = _BACKENDS.get("numba")
    if impl is not None:
        return impl
    if _NUMBA_FAILED or importlib.util.find_spec("numba") is None:
        return None
    try:
        from repro.compression._kernels_numba import NumbaKernels
    except ImportError:  # pragma: no cover - requires a broken numba install
        _NUMBA_FAILED = True
        return None
    return register_kernels(NumbaKernels())


def available_kernels() -> tuple[str, ...]:
    """Backend names selectable in this environment (cheap probe: the
    numba entry appears when the package is importable, without paying
    the import)."""
    names = dict.fromkeys(_BACKENDS)
    if (
        "numba" not in names
        and not _NUMBA_FAILED
        and importlib.util.find_spec("numba") is not None
    ):
        names["numba"] = None
    return tuple(names)


def _note_resolution(requested: str, resolved: str) -> None:
    """Record a backend-resolution event (armed runs only): a counter
    per (requested, resolved) pair plus a gauge naming the last pick, so
    traces show when ``auto`` silently degraded to the NumPy reference."""
    from repro import telemetry  # lazy: telemetry is a leaf, this module is not

    if telemetry.enabled():
        reg = telemetry.get_registry()
        reg.counter(f"kernels.resolve.{requested}->{resolved}").inc()
        reg.gauge("kernels.backend_is_numba").set(1.0 if resolved == "numba" else 0.0)


def get_kernels(name: str = "auto") -> ArrayKernels:
    """Resolve a kernel backend by spec key.

    ``"auto"`` prefers numba when importable and degrades silently to
    the NumPy reference; asking for ``"numba"`` explicitly raises when
    it is unavailable.
    """
    if name == "auto":
        impl = _load_numba_kernels()
        resolved = impl if impl is not None else _BACKENDS["numpy"]
        _note_resolution(name, resolved.name)
        return resolved
    if name == "numba":
        impl = _load_numba_kernels()
        if impl is None:
            raise ValueError(
                "kernels='numba' requested but numba is not importable in this "
                "environment; install numba or select kernels='auto'/'numpy'"
            )
        _note_resolution(name, impl.name)
        return impl
    try:
        impl = _BACKENDS[name]
        _note_resolution(name, impl.name)
        return impl
    except KeyError:
        raise ValueError(
            f"unknown kernels backend {name!r}; options: "
            f"{tuple(KERNEL_CHOICES)} or a registered name {tuple(_BACKENDS)}"
        ) from None
