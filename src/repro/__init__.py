"""repro — adaptive in situ lossy compression for cosmology simulations.

Reproduction of Jin et al., "Adaptive Configuration of In Situ Lossy
Compression for Cosmology Simulations via Fine-Grained Rate-Quality
Modeling" (HPDC '21).

Quick start::

    from repro import (
        NyxSimulator, BlockDecomposition, SZCompressor,
        calibrate_rate_model, AdaptiveCompressionPipeline,
    )

    sim = NyxSimulator(shape=(64, 64, 64), seed=42)
    snap = sim.snapshot(z=2.0)
    dec = BlockDecomposition(snap.shape, blocks=4)

    cal = calibrate_rate_model(dec.partition_views(snap["temperature"]),
                               eb_scale=1.0)
    pipe = AdaptiveCompressionPipeline(cal.rate_model)
    result = pipe.run(snap["temperature"], dec, eb_avg=1.0)
    print(result.overall_ratio)

The pipeline compresses one field of one snapshot; every field of every
snapshot — streaming, or batch with ``recalibrate="never",
warm_start=False`` — goes through :class:`InSituController`, whose
field step runs the pipeline's rank loop
(:meth:`AdaptiveCompressionPipeline.run`); both hand back its
:class:`SnapshotResult`.

Subpackages: :mod:`repro.core` (adaptive configuration),
:mod:`repro.models` (rate-quality models), :mod:`repro.compression`
(SZ-style compressor), :mod:`repro.sim` (synthetic Nyx),
:mod:`repro.analysis` (power spectrum / halo finder),
:mod:`repro.parallel` (block decomposition),
:mod:`repro.foresight` (evaluation harness), :mod:`repro.stream` (the in
situ controller, run ledger, drift detection, budget governor).
"""

from repro.compression import (
    REGISTRY,
    AdaptiveSZCompressor,
    CompressorCapabilities,
    CompressorSpec,
    SZCompressor,
    UnsupportedCapabilityError,
    ZFPLikeCompressor,
    decompress,
    decompress_any,
    decompress_many,
    resolve_compressor,
)
from repro.core import (
    AdaptiveCompressionPipeline,
    SelectionResult,
    select_compressor,
    FieldSpec,
    HaloQualitySpec,
    OptimizerSettings,
    SnapshotResult,
    StaticBaseline,
    TrialAndErrorSearch,
)
from repro.models import RateModel, RateModelBank, calibrate_rate_model
from repro.parallel import BlockDecomposition
from repro.sim import NyxSimulator, NyxSnapshot
from repro.stream import (
    DirectoryStream,
    DriftConfig,
    InSituController,
    RunLedger,
    SimulatorStream,
    SnapshotSequence,
    StreamReport,
    replay_ledger,
)

__version__ = "1.0.0"

__all__ = [
    "SZCompressor",
    "REGISTRY",
    "CompressorCapabilities",
    "CompressorSpec",
    "UnsupportedCapabilityError",
    "decompress_any",
    "decompress_many",
    "resolve_compressor",
    "SelectionResult",
    "select_compressor",
    "RateModelBank",
    "AdaptiveSZCompressor",
    "FieldSpec",
    "ZFPLikeCompressor",
    "decompress",
    "AdaptiveCompressionPipeline",
    "SnapshotResult",
    "StaticBaseline",
    "TrialAndErrorSearch",
    "OptimizerSettings",
    "HaloQualitySpec",
    "RateModel",
    "calibrate_rate_model",
    "BlockDecomposition",
    "NyxSimulator",
    "NyxSnapshot",
    "InSituController",
    "RunLedger",
    "DriftConfig",
    "SimulatorStream",
    "DirectoryStream",
    "SnapshotSequence",
    "StreamReport",
    "replay_ledger",
    "__version__",
]
