"""The paper's primary contribution: fine-grained adaptive configuration.

Given a snapshot partitioned across ranks, select a per-partition error
bound that maximizes the overall compression ratio while keeping the
modeled post-hoc analysis distortion (power spectrum; halo masses for
baryon density) within a user budget — with in situ overhead limited to
cheap per-partition features plus one collective.

- :mod:`repro.core.features` — in situ feature extraction (mean |value|,
  boundary-cell rate),
- :mod:`repro.core.optimizer` — per-partition bound selection (Eq. 16
  closed form with §3.6's clamping), spectrum- and halo-constrained,
- :mod:`repro.core.config` — optimizer settings, the halo constraint's
  inputs and the per-field quality policy (:class:`FieldSpec`),
- :mod:`repro.core.pipeline` — one field of one snapshot through the in
  situ protocol on a pluggable execution backend (many fields over many
  snapshots, batch or streaming, are
  :class:`repro.stream.controller.InSituController`),
- :mod:`repro.core.baselines` — the traditional static configuration and
  the Foresight-style trial-and-error search,
- :mod:`repro.core.overhead` — overhead accounting for §4.3,
- :mod:`repro.core.selection` — per-field compressor selection over the
  capability-typed registry (§2.2 as a measured runtime decision).
"""

from repro.core.config import FieldSpec, HaloQualitySpec, OptimizerSettings
from repro.core.features import PartitionFeatures, extract_features
from repro.core.optimizer import (
    OptimizationResult,
    optimize,
    optimize_combined,
    optimize_for_halo,
    optimize_for_spectrum,
)
from repro.core.pipeline import AdaptiveCompressionPipeline, SnapshotResult
from repro.core.baselines import StaticBaseline, TrialAndErrorSearch
from repro.core.overhead import OverheadReport, measure_overhead
from repro.core.selection import (
    CandidateVerdict,
    SelectionResult,
    default_candidates,
    derive_eb_budget,
    derive_halo_params,
    select_compressor,
)

__all__ = [
    "OptimizerSettings",
    "HaloQualitySpec",
    "PartitionFeatures",
    "extract_features",
    "OptimizationResult",
    "optimize",
    "optimize_for_spectrum",
    "optimize_for_halo",
    "optimize_combined",
    "AdaptiveCompressionPipeline",
    "SnapshotResult",
    "StaticBaseline",
    "TrialAndErrorSearch",
    "OverheadReport",
    "FieldSpec",
    "measure_overhead",
    "CandidateVerdict",
    "SelectionResult",
    "default_candidates",
    "derive_eb_budget",
    "derive_halo_params",
    "select_compressor",
]
