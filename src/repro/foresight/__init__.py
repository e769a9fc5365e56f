"""Foresight-style evaluation toolkit (the paper's §4.1 harness).

VizAly-Foresight evaluates lossy compressors on cosmology data by
sweeping configurations, decompressing, and computing every metric of
interest.  This package rebuilds the workflow used in the paper's
experiments: configuration sweeps (:mod:`repro.foresight.sweep`),
acceptance criteria (:mod:`repro.foresight.quality`), the
reference-cached quality engine that amortizes original-field analyses
across trials (:mod:`repro.foresight.evaluator`) and plain-text
reports (:mod:`repro.foresight.report`).
"""

from repro.foresight.quality import QualityCriteria, QualityReport, evaluate_quality
from repro.foresight.evaluator import FieldReference, QualityEvaluator
from repro.foresight.sweep import SweepRecord, run_sweep
from repro.foresight.report import records_to_table

__all__ = [
    "QualityCriteria",
    "QualityReport",
    "evaluate_quality",
    "FieldReference",
    "QualityEvaluator",
    "SweepRecord",
    "run_sweep",
    "records_to_table",
]
