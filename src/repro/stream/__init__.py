"""repro.stream — online in situ streaming of snapshot sequences.

The per-snapshot machinery (:mod:`repro.core`) decides error bounds for
one dump at a time; a production run dumps ~200 of them while the data
evolves with redshift.  This package is the long-running service around
that machinery:

- :mod:`repro.stream.source` — where snapshots come from
  (one :class:`SnapshotStream` class with one retried load path, built
  from a live simulator schedule, an on-disk ``.npz`` sequence, or an
  in-memory list),
- :mod:`repro.stream.ledger` — an append-only JSONL event ledger with
  monotonic sequence ids recording every calibration, decision and
  outcome, the subsystem's persistent state,
- :mod:`repro.stream.drift` — standardized-residual drift detection
  between model-predicted and achieved bitrate/quality,
- :mod:`repro.stream.state` — the run state as a pure fold of the
  ledger, ``state' = apply(state, event)``: one reducer for the live
  run, ``resume`` and replay,
- :mod:`repro.stream.controller` — the :class:`InSituController` that
  warm-starts configurations snapshot to snapshot, re-calibrates only on
  drift, governs a run-level storage budget, and whose decisions can be
  deterministically replayed from the ledger alone.
"""

from repro.stream.controller import (
    BudgetGovernor,
    InSituController,
    ReplayedDecision,
    StreamOutcome,
    StreamReport,
    replay_ledger,
)
from repro.stream.drift import DriftConfig, DriftDetector, DriftSignal
from repro.stream.ledger import (
    EVENT_KINDS,
    LedgerError,
    LedgerEvent,
    RunLedger,
)
from repro.stream.source import (
    DirectoryStream,
    SimulatorStream,
    SnapshotSequence,
    SnapshotStream,
    as_stream,
)

__all__ = [
    "SnapshotStream",
    "SimulatorStream",
    "DirectoryStream",
    "SnapshotSequence",
    "as_stream",
    "RunLedger",
    "LedgerEvent",
    "LedgerError",
    "EVENT_KINDS",
    "DriftConfig",
    "DriftDetector",
    "DriftSignal",
    "InSituController",
    "BudgetGovernor",
    "StreamReport",
    "StreamOutcome",
    "ReplayedDecision",
    "replay_ledger",
]
