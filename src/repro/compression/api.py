"""The pluggable compressor backbone: capabilities, specs, registry.

The paper argues SZ over ZFP in prose (§2.2: fixed-rate ZFP cannot
enforce an absolute error bound); the reproduction makes the compressor
a first-class, registry-resolved citizen so that argument becomes a
*measured runtime decision* (:func:`repro.core.selection.
select_compressor`) instead of a hard-coded default:

- :class:`CompressorCapabilities` — what a compressor family can do
  (``error_bounded``, ``fixed_rate``, ``supports_estimate``), checked
  by every consumer that needs a capability instead of dying with an
  ``AttributeError`` deep inside calibration,
- :class:`CompressorSpec` — a serializable (family + params) value
  naming one concrete configuration; what sweeps fan over, what the
  stream ledger records with every decision, and what the
  :class:`~repro.models.calibration.RateModelBank` keys on,
- :class:`Compressor` — the one contract every family implements
  itself (``capabilities``, ``spec``, ``compress``, ``compress_many``
  with its ``out=`` reconstruction buffers, ``decompress``, plus
  ``estimate_ladder`` where declared), checked once, in
  :func:`resolve_compressor`,
- :class:`CompressorRegistry` — the fixed table of the three families
  (``sz``, ``sz_adaptive``, ``zfp_like``): ``create(spec)`` /
  ``default()`` and the read-only views the CLI lists.  A spec is a
  compressor's whole configuration (no constructor takes a parameter
  its spec does not record), so ``REGISTRY.create(comp.spec)`` rebuilds
  ``comp`` with byte-identical payloads (contract-tested per family),
- :func:`decompress_any` / :func:`decompress_many` — block-type
  dispatch so reconstruction paths work for every family,
  not just SZ; the batch form hands SZ blocks to SZ's one chunked
  decoder.

Terminology note: the *entropy codec* (zlib / huffman / raw) is the SZ
family's internal entropy stage — one **parameter** of the ``sz`` spec —
while the compressor **family** (``sz``, ``zfp_like``, ...) is what the
registry selects between (``--compressor sz:codec=huffman`` on the CLI).
"""

from __future__ import annotations

import functools
import inspect
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any, Protocol, runtime_checkable

import numpy as np

# Leaf-module imports only: this module sits *below* the concrete
# compressors (each imports its capability/spec types from here), so
# the concrete families are imported lazily — inside the sz factory and
# the family table — to keep the graph acyclic.
from repro.compression.quantizer import DEFAULT_RADIUS

__all__ = [
    "CompressorCapabilities",
    "CompressorSpec",
    "Compressor",
    "CompressorRegistry",
    "REGISTRY",
    "UnsupportedCapabilityError",
    "SZ_CAPABILITIES",
    "resolve_compressor",
    "decompress_any",
    "decompress_many",
    "check_out",
    "decode_into",
]


class UnsupportedCapabilityError(TypeError):
    """An operation requires a capability the compressor does not declare
    — or the object handed in declares none because it lacks part of the
    :class:`Compressor` contract.

    Raised *at the boundary* (:func:`resolve_compressor`, calibration
    entry, sweep entry, pipeline construction) with an actionable
    message, instead of an ``AttributeError`` from deep inside a probe
    loop.
    """


@dataclass(frozen=True)
class CompressorCapabilities:
    """What a compressor family can and cannot do.

    Attributes
    ----------
    error_bounded:
        ``compress(data, eb)`` honours ``eb`` as a pointwise error
        bound.  Required by the adaptive pipeline (the optimizer's whole
        output is a per-partition bound vector) and by rate-model
        calibration (the model is bitrate *as a function of* the bound).
    fixed_rate:
        The stored size is fixed by configuration (bits/value), not by
        the data or a bound — §2.2's ZFP fixed-rate mode.  Mutually
        exclusive with ``error_bounded`` in practice.
    supports_estimate:
        Provides the codec-free rate/quality probe behind
        ``probe_mode="model"``: ``estimate_ladder(views, ebs)``, every
        view at each bound of a ladder, one row of estimates per bound
        (what calibration and the bound sweep probe).
    """

    error_bounded: bool = False
    fixed_rate: bool = False
    supports_estimate: bool = False

    def require(self, capability: str, operation: str, who: object = None) -> None:
        """Raise :class:`UnsupportedCapabilityError` unless ``capability`` holds."""
        if not getattr(self, capability):
            subject = f"{who!r} " if who is not None else ""
            raise UnsupportedCapabilityError(
                f"{operation} requires a compressor with the "
                f"{capability!r} capability; {subject}does not declare it"
            )


#: Capabilities of the SZ family (what ``SZCompressor`` declares).
SZ_CAPABILITIES = CompressorCapabilities(
    error_bounded=True,
    fixed_rate=False,
    supports_estimate=True,
)


def _coerce_param(value: str) -> Any:
    """Best-effort typed coercion for CLI/parsed spec parameters."""
    low = value.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(value)
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        pass
    return value


@dataclass(frozen=True)
class CompressorSpec:
    """A serializable name for one concrete compressor configuration.

    ``family`` selects the registry entry; ``params`` are the
    family-specific constructor parameters (e.g. SZ's entropy ``codec``
    and ``mode``, ZFP-like's ``rate``).  Specs are hashable value
    objects — suitable as cache keys (:class:`~repro.models.calibration.
    RateModelBank`) — and JSON round-trippable (:meth:`to_dict` /
    :meth:`from_dict`), which is how the stream ledger records the
    compressor behind every decision.

    Examples
    --------
    >>> CompressorSpec.sz(codec="huffman").label
    'sz(codec=huffman)'
    >>> CompressorSpec.parse("zfp_like:rate=8")
    CompressorSpec(family='zfp_like', params=(('rate', 8),))
    """

    family: str
    params: tuple[tuple[str, Any], ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.family or not isinstance(self.family, str):
            raise ValueError(f"spec family must be a non-empty string, got {self.family!r}")
        params = self.params
        if isinstance(params, Mapping):
            params = tuple(sorted(params.items()))
        else:
            params = tuple(sorted((str(k), v) for k, v in params))
        object.__setattr__(self, "params", params)

    # -- constructors ----------------------------------------------------

    @classmethod
    def make(cls, family: str, **params: Any) -> "CompressorSpec":
        return cls(family=family, params=tuple(sorted(params.items())))

    @classmethod
    def sz(
        cls,
        mode: str = "abs",
        codec: str = "zlib",
        radius: int = DEFAULT_RADIUS,
        engine: str = "dual",
    ) -> "CompressorSpec":
        """The SZ family; ``codec`` is the *entropy* stage (zlib/huffman/raw)."""
        return cls.make("sz", mode=mode, codec=codec, radius=int(radius), engine=engine)

    @classmethod
    def zfp_like(cls, rate: float = 8.0) -> "CompressorSpec":
        """The fixed-rate ZFP-style comparator at ``rate`` bits/value."""
        return cls.make("zfp_like", rate=float(rate))

    @classmethod
    def parse(cls, text: str) -> "CompressorSpec":
        """Parse ``"family"`` or ``"family:key=val,key=val"`` (CLI grammar)."""
        text = text.strip()
        if not text:
            raise ValueError("empty compressor spec")
        family, _, tail = text.partition(":")
        params: dict[str, Any] = {}
        if tail:
            for item in tail.split(","):
                key, sep, raw = item.partition("=")
                if not sep or not key.strip():
                    raise ValueError(
                        f"malformed spec parameter {item!r} in {text!r} "
                        "(expected key=value)"
                    )
                params[key.strip()] = _coerce_param(raw.strip())
        return cls.make(family.strip(), **params)

    # -- views -----------------------------------------------------------

    @property
    def options(self) -> dict[str, Any]:
        """The params as a plain dict (copy)."""
        return dict(self.params)

    @property
    def label(self) -> str:
        """Compact human-readable form, e.g. ``sz(codec=huffman)``."""
        if not self.params:
            return self.family
        inner = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.family}({inner})"

    def __str__(self) -> str:
        return self.label

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form (what the stream ledger stores)."""
        return {"family": self.family, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CompressorSpec":
        if "family" not in data:
            raise ValueError(f"compressor spec dict missing 'family': {data!r}")
        return cls.make(str(data["family"]), **dict(data.get("params") or {}))


@runtime_checkable
class Compressor(Protocol):
    """The contract every compressor implements, written once.

    ``compress(data, eb)`` returns a self-describing block;
    ``compress_many(views, ebs, out=None)`` is the batched way in — one
    bound per view, the blocks of per-view ``compress`` calls, in order.
    Given ``out`` (one writable float64 array per view, with the view's
    shape; :func:`check_out` refuses anything else before any work),
    ``out[i]`` also receives block ``i``'s reconstruction, bit for bit
    what :func:`decompress_any` returns for it, and the blocks are those
    of an ``out=None`` call.  SZ writes it from the lattice it already
    holds; the other families decode their own blocks
    (:func:`decode_into`).  If compression raises, the contents of
    ``out`` are unspecified.  ``decompress(block)`` inverts either.  ``eb`` is
    honoured as an error bound only when :attr:`capabilities` declares
    ``error_bounded`` — fixed-rate families accept and ignore it, so the
    call shape stays uniform across the registry.  A compressor that
    declares ``supports_estimate`` also provides ``estimate_ladder(views,
    ebs)``, the codec-free probe.
    ``registry.create(comp.spec)`` gives an equivalent instance.

    Scratch is not part of the contract: a compressor holds none
    between calls, and each batched pass allocates what it needs and
    drops it when it returns.

    :func:`resolve_compressor` is where an object is held to this; code
    behind it calls the methods without looking for them first.
    """

    capabilities: CompressorCapabilities

    @property
    def spec(self) -> CompressorSpec: ...

    def compress(self, data: np.ndarray, eb: float) -> Any: ...

    def compress_many(
        self, views: list[np.ndarray], ebs: Any, out: list[np.ndarray] | None = None
    ) -> list[Any]: ...

    def decompress(self, block: Any) -> np.ndarray: ...


# -- the registry ------------------------------------------------------------


@dataclass(frozen=True)
class _Family:
    factory: Callable[..., Any]
    capabilities: CompressorCapabilities
    defaults: tuple[tuple[str, Any], ...]
    description: str
    block_type: type
    block_decompress: Callable[[Any], np.ndarray]


def _sz_factory(engine: str = "dual", **params: Any):
    """The one place the ``engine`` spec key is interpreted: the
    production class, or the classic-order reference."""
    if engine == "dual":
        from repro.compression.sz import SZCompressor

        return SZCompressor(**params)
    if engine == "classic":
        from repro.compression.reference import ClassicSZCompressor

        return ClassicSZCompressor(**params)
    raise ValueError(f"engine must be 'dual' or 'classic', got {engine!r}")


@functools.cache
def _families() -> dict[str, _Family]:
    """The three families, built on first use: their modules import this
    one, so the table cannot be built when it is imported."""
    from repro.compression import regression, sz, zfp_like

    return {
        "sz": _Family(
            _sz_factory,
            SZ_CAPABILITIES,
            (("codec", "zlib"), ("engine", "dual"), ("mode", "abs"), ("radius", DEFAULT_RADIUS)),
            "error-bounded SZ-style compressor (quantize -> Lorenzo -> "
            "entropy codec); 'codec' is the entropy stage, not the family",
            sz.CompressedBlock,
            sz.decompress,
        ),
        "sz_adaptive": _Family(
            regression.AdaptiveSZCompressor,
            regression.AdaptiveSZCompressor.capabilities,
            (("block", 8), ("codec", "zlib"), ("radius", DEFAULT_RADIUS)),
            "error-bounded SZ2-style compressor with per-block "
            "Lorenzo-vs-regression predictor selection",
            regression.AdaptiveBlockStream,
            regression.decompress,
        ),
        "zfp_like": _Family(
            zfp_like.ZFPLikeCompressor,
            zfp_like.ZFPLikeCompressor.capabilities,
            (("rate", 8.0),),
            "fixed-rate block-transform codec (ZFP-style comparator); "
            "cannot enforce an absolute error bound (paper §2.2)",
            zfp_like.ZFPBlockStream,
            zfp_like.decompress,
        ),
    }


@functools.cache
def _decoders() -> dict[type, Callable[[Any], np.ndarray]]:
    """Block type -> its family's decoder."""
    return {f.block_type: f.block_decompress for f in _families().values()}


class CompressorRegistry:
    """The fixed table of compressor families: ``sz`` (the default),
    ``sz_adaptive`` and ``zfp_like``.

    ``create`` instantiates a :class:`CompressorSpec`; ``default`` names
    the default configuration (plain SZ).  A spec is a compressor's whole
    configuration, so ``create(comp.spec)`` rebuilds ``comp`` with
    byte-identical payloads.
    """

    def families(self) -> list[str]:
        return sorted(_families())

    def __contains__(self, family: str) -> bool:
        return family in _families()

    def _entry(self, family: str) -> _Family:
        try:
            return _families()[family]
        except KeyError:
            raise ValueError(
                f"unknown compressor family {family!r}; "
                f"registered: {self.families()}"
            ) from None

    def capabilities(self, family: str) -> CompressorCapabilities:
        return self._entry(family).capabilities

    def block_type(self, family: str) -> type:
        """The family's compressed-block class."""
        return self._entry(family).block_type

    def describe(self, family: str) -> str:
        return self._entry(family).description

    def defaults(self, family: str) -> dict[str, Any]:
        return dict(self._entry(family).defaults)

    # -- construction ----------------------------------------------------

    def default(self) -> CompressorSpec:
        """The default configuration (plain SZ)."""
        return CompressorSpec("sz")

    def canonical(self, spec: "CompressorSpec | str") -> CompressorSpec:
        """Fill a spec's params with the family defaults (stable cache key)."""
        if isinstance(spec, str):
            spec = CompressorSpec.parse(spec)
        entry = self._entry(spec.family)
        params = dict(entry.defaults)
        options = spec.options
        # Retired key: ledgers of schema v2-v3 stamp sz specs with
        # kernels=auto|numpy|numba.  It chose between implementations
        # with identical bytes, so it says nothing about the data; drop
        # it here (the one place) and stored specs resolve everywhere.
        if spec.family == "sz" and options.get("kernels") in ("auto", "numpy", "numba"):
            del options["kernels"]
        unknown = set(options) - set(params)
        if unknown:
            raise ValueError(
                f"unknown parameter(s) {sorted(unknown)} for compressor "
                f"family {spec.family!r}; accepted: {sorted(params)}"
            )
        params.update(options)
        return CompressorSpec.make(spec.family, **params)

    def create(self, spec: "CompressorSpec | str | None" = None) -> Any:
        """Instantiate a compressor from a spec (or the default)."""
        spec = self.canonical(self.default() if spec is None else spec)
        return self._entry(spec.family).factory(**spec.options)

    # -- block dispatch --------------------------------------------------

    def decompress(self, block: Any) -> np.ndarray:
        """Reconstruct a field from any family's block."""
        decode = _decoders().get(type(block))
        if decode is None:
            raise TypeError(
                f"no compressor family decompresses {type(block).__name__} blocks"
            )
        return decode(block)


REGISTRY = CompressorRegistry()


# -- module-level conveniences ------------------------------------------------


def resolve_compressor(
    compressor: "Compressor | CompressorSpec | str | None",
) -> Any:
    """Turn ``None`` / a spec / a spec string / an instance into an instance.

    The single resolution point every layer funnels through: ``None``
    keeps the historical default (plain SZ), specs go through the
    registry, instances pass through untouched (an instance of a class
    outside the registry is usable as long as it keeps the contract).
    It is also the one place an instance is held to the
    :class:`Compressor` contract: an object that lacks part of it raises
    :class:`UnsupportedCapabilityError` naming what is missing.
    """
    if compressor is None or isinstance(compressor, (CompressorSpec, str)):
        return REGISTRY.create(compressor)
    caps = getattr(compressor, "capabilities", None)
    declared = isinstance(caps, CompressorCapabilities)
    methods = ["compress", "compress_many", "decompress"]
    if declared and caps.supports_estimate:
        methods.append("estimate_ladder")
    missing = [m for m in methods if not callable(getattr(compressor, m, None))]
    if "compress_many" not in missing and not _takes_out(compressor.compress_many):
        missing.append("compress_many's out= parameter")
    if not declared:
        missing.append("capabilities")
    if not isinstance(getattr(compressor, "spec", None), CompressorSpec):
        missing.append("spec")
    if missing:
        raise UnsupportedCapabilityError(
            f"{compressor!r} is not a compressor: it lacks "
            f"{', '.join(missing)} of the repro.compression.api.Compressor contract"
        )
    return compressor


def _takes_out(method: Callable[..., Any]) -> bool:
    """Whether ``method`` accepts an ``out=`` keyword."""
    try:
        params = inspect.signature(method).parameters
    except (TypeError, ValueError):  # no introspectable signature
        return False
    return "out" in params or any(p.kind is p.VAR_KEYWORD for p in params.values())


def check_out(views: Sequence[Any], out: Sequence[np.ndarray] | None) -> list[np.ndarray] | None:
    """The one check of ``out=`` on ``compress_many`` and
    ``decompress_many``, made before any work: ``None``, or one writable
    float64 array per view (or compressed block) with its shape (any
    strides: partition views of one field buffer are the intended use).
    Anything else raises ``ValueError``."""
    if out is None:
        return None
    out = list(out)
    if len(out) != len(views):
        raise ValueError(
            f"need one output array per view: {len(views)} views, {len(out)} outputs"
        )
    for i, (view, dst) in enumerate(zip(views, out)):
        shape = tuple(view.shape) if hasattr(view, "shape") else np.shape(view)
        if not (
            isinstance(dst, np.ndarray)
            and dst.dtype == np.float64
            and dst.shape == shape
            and dst.flags.writeable
        ):
            got = (
                f"{'writable' if dst.flags.writeable else 'read-only'} {dst.dtype} "
                f"array of shape {dst.shape}"
                if isinstance(dst, np.ndarray)
                else type(dst).__name__
            )
            raise ValueError(
                f"out[{i}] must be a writable float64 array of shape {shape}, got {got}"
            )
    return out


def decode_into(
    out: list[np.ndarray] | None, blocks: list[Any], decode: Callable[[Any], np.ndarray]
) -> list[Any]:
    """Honour ``out=`` by decoding: each ``out[i]`` receives
    ``decode(blocks[i])`` (the family's registered decoder).  Returns
    ``blocks``.  The families with no reconstruction at hand when they
    encode — classic SZ and ``zfp_like`` — share this."""
    if out is not None:
        for dst, block in zip(out, blocks):
            dst[...] = decode(block)
    return blocks


def decompress_any(block: Any) -> np.ndarray:
    """Reconstruct a field from any registered family's compressed block."""
    return REGISTRY.decompress(block)


def decompress_many(
    blocks: Sequence[Any], out: Sequence[np.ndarray] | None = None
) -> list[np.ndarray]:
    """Reconstruct every block of ``blocks`` (any registered families,
    in any mix), in order.

    The SZ blocks go together to :func:`repro.compression.sz.
    decompress_many`, which chunks and threads them as the encoder does;
    every other block goes through its family's decoder.  Either way
    the arrays are bit-identical to :func:`decompress_any` per block.
    ``out`` is checked by :func:`check_out` before anything inflates;
    given, block ``i`` is decoded into ``out[i]`` (the SZ blocks
    straight from their lattice, the others through
    :func:`decode_into`) and ``out``'s own arrays are returned.
    """
    from repro.compression import sz

    outs = check_out(blocks, out)
    recons: list[Any] = [None] * len(blocks) if outs is None else list(outs)
    mine = []
    for i, block in enumerate(blocks):
        if isinstance(block, sz.CompressedBlock):
            mine.append(i)
        elif outs is None:
            recons[i] = decompress_any(block)
        else:
            decode_into([outs[i]], [block], decompress_any)
    decoded = sz.decompress_many(
        [blocks[i] for i in mine], None if outs is None else [outs[i] for i in mine]
    )
    for i, recon in zip(mine, decoded):
        recons[i] = recon
    return recons
