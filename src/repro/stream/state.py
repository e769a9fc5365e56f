"""Run state and its reducer: ``state' = apply(state, event)``.

The ledger is the stream subsystem's single mutation choke-point, and
everything the controller decides from is a *projection* of it, held in
a :class:`RunState`.  :func:`apply` is the only code that interprets
ledger event kinds and schema versions, including what a ``resume``
event supersedes: the live controller appends an event and folds it,
:meth:`~repro.stream.controller.InSituController.resume` folds an
interrupted run's ledger, and :func:`~repro.stream.controller.
replay_ledger` folds while :func:`rederive` recomputes every recorded
decision from the state folded so far.  One function, so
replay == resume == live holds by construction.  The event-by-event
contract is the table in ``docs/resilience.md``.
"""

from __future__ import annotations

import copy
import json
from dataclasses import asdict, dataclass, field as dataclass_field, replace
from typing import Any

from repro.compression.api import CompressorSpec
from repro.core import optimizer
from repro.core.config import HaloQualitySpec, OptimizerSettings
from repro.core.features import PartitionFeatures
from repro.core.pipeline import SnapshotResult
from repro.models.rate_model import RateModel
from repro.stream.drift import DriftConfig, DriftDetector, DriftSignal
from repro.stream.ledger import LedgerError, LedgerEvent
from repro.util.tables import format_table

__all__ = [
    "BudgetGovernor",
    "StreamOutcome",
    "StreamReport",
    "ReplayedDecision",
    "RunConfig",
    "FieldState",
    "RunState",
    "apply",
    "calibrated_state",
    "decision_inputs",
    "rederive",
]


# -- run-level storage budget governor ---------------------------------------


class BudgetGovernor:
    """Steers cumulative compressed bytes onto a total-run byte budget.

    After every snapshot the governor re-derives the per-snapshot
    allowance from the *remaining* budget and remaining dump count, and
    converts the byte mismatch into an error-bound scale through the
    calibrated power law: bytes scale as ``eb**c`` (Eq. 15), so landing
    on an allowance ``a`` from achieved bytes ``b`` requires scaling
    every bound by ``(a/b) ** (gain/c)``.  Overspending therefore
    *raises* bounds (coarser, cheaper snapshots); underspending relaxes
    them back.  The scale is clamped to ``[1/max_scale, max_scale]`` so
    one misbehaved snapshot cannot swing the quality configuration
    arbitrarily.

    The governor is a pure, deterministic function of the observed byte
    counts and calibrated exponents — both of which the run ledger
    records — so replay reproduces its trajectory exactly.
    """

    def __init__(
        self,
        total_bytes: int,
        n_snapshots: int,
        gain: float = 1.0,
        max_scale: float = 4.0,
    ) -> None:
        if total_bytes <= 0:
            raise ValueError(f"total_bytes must be positive, got {total_bytes}")
        if n_snapshots <= 0:
            raise ValueError(f"n_snapshots must be positive, got {n_snapshots}")
        if gain <= 0:
            raise ValueError(f"gain must be positive, got {gain}")
        if max_scale < 1:
            raise ValueError(f"max_scale must be >= 1, got {max_scale}")
        self.total_bytes = int(total_bytes)
        self.n_snapshots = int(n_snapshots)
        self.gain = float(gain)
        self.max_scale = float(max_scale)
        self.scale = 1.0
        self.spent = 0
        self.snapshots_done = 0

    @property
    def remaining_bytes(self) -> int:
        return self.total_bytes - self.spent

    @property
    def utilization(self) -> float:
        """Fraction of the total budget consumed so far."""
        return self.spent / self.total_bytes

    def observe(self, snapshot_bytes: int, exponent: float) -> float:
        """Account one snapshot's bytes; returns the next snapshot's scale."""
        if snapshot_bytes <= 0:
            raise ValueError("snapshot_bytes must be positive")
        if exponent >= 0:
            raise ValueError("rate exponent must be negative")
        self.spent += int(snapshot_bytes)
        self.snapshots_done += 1
        if self.snapshots_done >= self.n_snapshots:
            return self.scale
        allowance = self.remaining_bytes / (self.n_snapshots - self.snapshots_done)
        if allowance <= 0:
            # Budget exhausted: tighten storage as hard as permitted.
            self.scale = self.max_scale
            return self.scale
        factor = allowance / snapshot_bytes
        proposal = self.scale * factor ** (self.gain / exponent)
        self.scale = float(min(max(proposal, 1.0 / self.max_scale), self.max_scale))
        return self.scale

    def __repr__(self) -> str:
        return (
            f"BudgetGovernor(spent={self.spent}/{self.total_bytes}, "
            f"scale={self.scale:.3f}, done={self.snapshots_done}/{self.n_snapshots})"
        )


# -- outcomes and the stream report ------------------------------------------


@dataclass
class StreamOutcome:
    """One field of one stream snapshot, decided and compressed."""

    field: str
    redshift: float
    snapshot_index: int
    eb_base: float
    scale: float
    eb_avg: float
    #: The full compression result (payloads included); ``None`` when the
    #: controller runs with ``retain_results=False`` to keep long streams
    #: at O(1) memory — the scalar accounting fields below remain.
    result: SnapshotResult | None
    predicted_bit_rate: float
    achieved_bit_rate: float
    raw_bytes: int
    compressed_bytes: int
    residual: float | None
    quality_deviation: float | None = None
    drift_signal: DriftSignal | None = None
    #: The compressor configuration behind this outcome (``None`` for
    #: schema-v1 ledgers, which record none).
    compressor_spec: CompressorSpec | None = None

    @property
    def ratio(self) -> float:
        return self.raw_bytes / self.compressed_bytes


@dataclass
class StreamReport:
    """Cumulative accounting of a streaming run."""

    outcomes: list[StreamOutcome] = dataclass_field(default_factory=list)
    n_snapshots: int = 0
    n_recalibrations: int = 0
    recalibrations: list[tuple[int, str, str]] = dataclass_field(default_factory=list)
    byte_budget: int | None = None
    #: Resilience accounting: transient failures retried (across the
    #: per-field site, the ledger append path and snapshot loads),
    #: torn ledger tails truncated on (re)open, and fields that fell
    #: back to the conservative compressor after exhausting retries.
    n_retries: int = 0
    n_recoveries: int = 0
    n_degradations: int = 0
    degraded_fields: list[str] = dataclass_field(default_factory=list)

    @property
    def raw_bytes(self) -> int:
        return sum(o.raw_bytes for o in self.outcomes)

    @property
    def compressed_bytes(self) -> int:
        return sum(o.compressed_bytes for o in self.outcomes)

    @property
    def overall_ratio(self) -> float:
        if self.compressed_bytes == 0:
            raise ValueError("stream report is empty")
        return self.raw_bytes / self.compressed_bytes

    @property
    def budget_utilization(self) -> float | None:
        if self.byte_budget is None:
            return None
        return self.compressed_bytes / self.byte_budget

    def snapshot_bytes(self, index: int) -> int:
        rows = [o.compressed_bytes for o in self.outcomes if o.snapshot_index == index]
        if not rows:
            raise KeyError(f"no outcomes recorded for snapshot {index}")
        return sum(rows)

    def _ratio_where(self, what: str, keep) -> float:
        rows = [o for o in self.outcomes if keep(o)]
        if not rows:
            raise KeyError(f"no outcomes recorded for {what}")
        return sum(o.raw_bytes for o in rows) / sum(o.compressed_bytes for o in rows)

    def field_ratio(self, name: str) -> float:
        """Raw over compressed bytes of one field across the whole run."""
        return self._ratio_where(f"field {name!r}", lambda o: o.field == name)

    def snapshot_ratio(self, redshift: float) -> float:
        """Raw over compressed bytes of every field dumped at ``redshift``."""
        return self._ratio_where(f"z={redshift}", lambda o: o.redshift == redshift)

    def as_rows(self) -> list[list[object]]:
        return [
            [
                o.snapshot_index,
                o.redshift,
                o.field,
                o.eb_avg,
                o.scale,
                o.ratio,
                o.compressed_bytes,
                o.drift_signal is not None,
            ]
            for o in self.outcomes
        ]

    def to_table(self, title: str | None = None) -> str:
        return format_table(
            ["snap", "z", "field", "eb_avg", "scale", "ratio", "bytes", "drift"],
            self.as_rows(),
            title=title or "stream report",
        )

    def to_json(self) -> str:
        return json.dumps(
            {
                "n_snapshots": self.n_snapshots,
                "n_recalibrations": self.n_recalibrations,
                "recalibrations": [list(r) for r in self.recalibrations],
                "n_retries": self.n_retries,
                "n_recoveries": self.n_recoveries,
                "n_degradations": self.n_degradations,
                "degraded_fields": list(self.degraded_fields),
                "raw_bytes": self.raw_bytes,
                "compressed_bytes": self.compressed_bytes,
                "overall_ratio": self.overall_ratio if self.outcomes else None,
                "byte_budget": self.byte_budget,
                "budget_utilization": self.budget_utilization,
                "outcomes": [
                    {
                        "snapshot": o.snapshot_index,
                        "redshift": o.redshift,
                        "field": o.field,
                        "eb_avg": o.eb_avg,
                        "scale": o.scale,
                        "ratio": o.ratio,
                        "compressed_bytes": o.compressed_bytes,
                        "predicted_bit_rate": o.predicted_bit_rate,
                        "achieved_bit_rate": o.achieved_bit_rate,
                        "drift": o.drift_signal is not None,
                        "compressor": (
                            None
                            if o.compressor_spec is None
                            else o.compressor_spec.to_dict()
                        ),
                    }
                    for o in self.outcomes
                ],
            },
            indent=2,
            sort_keys=True,
        )


@dataclass(frozen=True)
class ReplayedDecision:
    """One re-derived per-(snapshot, field) decision.

    ``compressor`` is the recorded spec behind the decision — ``None``
    for schema-v1 (PR 4-era) ledgers, which predate spec recording.
    """

    snapshot_index: int
    redshift: float
    field: str
    eb_avg: float
    ebs: tuple[float, ...]
    compressor: CompressorSpec | None = None


# -- the projected state -----------------------------------------------------


def _spec(record: dict[str, Any] | None) -> CompressorSpec | None:
    return None if record is None else CompressorSpec.from_dict(record)


def _halo_params(halo: dict[str, Any] | None) -> tuple[float, float] | None:
    return None if halo is None else (halo["t_boundary"], halo["mass_budget"])


@dataclass(frozen=True)
class RunConfig:
    """What a ``run_start`` event records: the layout, then the
    :class:`~repro.stream.controller.InSituController` arguments."""

    shape: tuple[int, ...]
    #: Schema v3; ``None`` in older ledgers, which record no layout.
    blocks: tuple[int, ...] | None
    #: Schema v2; ``None`` in v1 ledgers, which predate compressor specs.
    compressor: CompressorSpec | None
    candidates: list[CompressorSpec] | None
    byte_budget: int | None
    settings: OptimizerSettings
    drift: DriftConfig
    recalibrate: str
    warm_start: bool
    probe_mode: str

    @classmethod
    def from_record(cls, d: dict[str, Any]) -> "RunConfig":
        """Read a ``run_start`` record back.

        Raises
        ------
        LedgerError
            If its ``drift`` dict sets ``quality_margin``.  Ledgers written
            while the detector had a quality channel record the key;
            ``null`` (the channel off, its default) reads as today's
            rate-only detector, but a run that had the channel on
            recalibrated on verdicts no fold can reproduce.
        """
        drift = dict(d["drift"])
        margin = drift.pop("quality_margin", None)
        if margin is not None:
            raise LedgerError(
                f"run_start sets drift quality_margin={margin!r}: the quality "
                "drift channel is gone, so this run cannot be folded"
            )
        return cls(
            shape=tuple(d["shape"]),
            blocks=None if d.get("blocks") is None else tuple(d["blocks"]),
            compressor=_spec(d.get("compressor")),
            candidates=[_spec(c) for c in d.get("candidates") or ()] or None,
            byte_budget=d.get("byte_budget"),
            settings=OptimizerSettings(**d["settings"]),
            drift=DriftConfig(**drift),
            recalibrate=d["recalibrate"],
            warm_start=d["warm_start"],
            # Ledgers written before the codec-free modes merged may
            # say "estimate"; its calibration probes were model mode's.
            probe_mode="model" if d["probe_mode"] == "estimate" else d["probe_mode"],
        )


@dataclass(frozen=True)
class FieldState:
    """Everything the controller warm-starts one field from."""

    model: RateModel
    coef_r2: float
    eb_base: float
    halo_params: tuple[float, float] | None
    #: The field's compressor configuration, all of it: the controller
    #: compresses the field with the compressor this names (``None`` for
    #: schema-v1 ledgers, which record none: the controller's own).
    compressor_spec: CompressorSpec | None
    #: The drift detector's residual window; a (re)calibration empties it.
    window: tuple[float, ...] = ()


class RunState:
    """The projection of a ledger: what :func:`apply` has folded so far.

    Only :func:`apply` changes it — except ``report``'s process-local
    counters the ledger does not record (``n_snapshots``, ``n_retries``),
    which belong to whoever drives the run.
    """

    def __init__(self) -> None:
        self.report = StreamReport()
        #: The authoritative events folded so far, every run of the file
        #: (a ``resume`` withdraws the ones it supersedes).
        self.log: list[LedgerEvent] = []
        self._reset()

    def _reset(self) -> None:
        """A ledger file may hold several runs back to back (re-opened
        files continue the sequence); each folds from a clean slate."""
        self.config: RunConfig | None = None
        self.governor: BudgetGovernor | None = None
        #: Insertion order is first-calibration order.
        self.fields: dict[str, FieldState] = {}
        #: Latest ``selection`` record per field (``candidates`` mode;
        #: ``SelectionResult.from_dict`` reads one back).
        self.selections: dict[str, dict[str, Any]] = {}
        #: Fields whose detector fired: recalibrate at the next snapshot.
        self.pending: set[str] = set()
        #: Fields degraded onto the fallback compressor.
        self.quarantined: set[str] = set()
        #: The snapshot the latest in-snapshot event belongs to, and the
        #: compressed bytes accounted since the last ``budget`` event.
        self.open_snapshot: int | None = None
        self.open_bytes = 0
        #: The ``run_end`` event's ``n_snapshots`` once the run is sealed.
        self.sealed: int | None = None
        self._decisions: dict[str, dict[str, Any]] = {}
        self._run_first = len(self.log)
        report = self.report
        report.outcomes, report.recalibrations, report.degraded_fields = [], [], []
        report.n_recalibrations = report.n_degradations = report.n_recoveries = 0

    @property
    def scale(self) -> float:
        """The governor's current error-bound scale (1 when ungoverned)."""
        return 1.0 if self.governor is None else self.governor.scale

    def exponent_mean(self) -> float:
        exps = [fs.model.exponent for fs in self.fields.values()]
        # This left-fold is FROZEN: ledgers record governor decisions
        # derived from it, and replay must reproduce them bitwise.
        # Switching to math.fsum would orphan every ledger written
        # before the change.
        return sum(exps) / len(exps)  # repro-lint: disable=RL006

    def budget_step(self) -> tuple[BudgetGovernor, float]:
        """The governor as the open snapshot's ``budget`` event will
        leave it, and the exponent mean that step uses."""
        ahead, mean = copy.copy(self.governor), self.exponent_mean()
        ahead.observe(self.open_bytes, mean)
        return ahead, mean

    def calibration_reason(self, name: str) -> str | None:
        """Why ``name`` is (re)calibrated before its next decision —
        ``"initial"``, ``"forced"`` or ``"drift"`` — or ``None`` to warm-start."""
        if name not in self.fields:
            if self.config.recalibrate == "never":
                raise KeyError(f"field {name!r} was not calibrated")
            return "initial"
        if self.config.recalibrate == "always":
            return "forced"
        return "drift" if name in self.pending else None

    def detector(self, name: str) -> DriftDetector:
        """A scratch detector continuing ``name``'s window: the verdict
        folding an outcome will reach, without advancing the state."""
        return DriftDetector(name, self.config.drift, self.fields[name].window)

    def resume_index(self) -> int:
        """The first snapshot without a complete record."""
        if self.sealed is not None:
            return self.sealed
        if self.governor is not None:
            # Each budget event seals exactly one completed snapshot.
            return self.governor.snapshots_done
        # Ungoverned: nothing in the ledger distinguishes "last snapshot
        # complete" from "crashed between its last outcome and the next
        # snapshot", so the open snapshot is conservatively re-executed.
        return self.open_snapshot or 0


# -- the reducer -------------------------------------------------------------

#: Kinds recorded while a snapshot is processed (they carry its index).
_IN_SNAPSHOT = frozenset(
    ("selection", "calibration", "recalibration", "decision", "outcome", "degradation")
)


def _snapshot_of(state: RunState, event: LedgerEvent) -> int | None:
    """The stream snapshot ``event`` is part of (``None``: run-scoped).

    Under ``recalibrate="never"`` an initial fit can only come from
    ``prime()``: it is pre-stream state, not part of the snapshot whose
    index it happens to carry, and a resume must not withdraw it.
    """
    if event.kind not in _IN_SNAPSHOT or (
        event.data.get("reason") == "initial" and state.config.recalibrate == "never"
    ):
        return None
    return int(event.data["snapshot"])


def _calibrated(state: RunState, event: LedgerEvent) -> FieldState:
    fs = state.fields.get(event.data["field"])
    if fs is None:
        raise LedgerError(
            f"{event.kind} for {event.data['field']!r} at seq {event.seq} "
            "has no calibration"
        )
    return fs


def calibrated_state(d: dict[str, Any]) -> FieldState:
    """The field state a ``(re)calibration`` record gives: what folding it
    sets, and what the controller's field step decides from after it."""
    return FieldState(
        model=RateModel(
            d["exponent"], d["coef_alpha"], d["coef_beta"], d["feature_floor"]
        ),
        coef_r2=float(d["coef_r2"]),
        eb_base=float(d["eb_base"]),
        halo_params=_halo_params(d.get("halo_params")),
        compressor_spec=_spec(d.get("spec")),
    )


def apply(state: RunState, event: LedgerEvent) -> RunState:
    """Fold one ledger event into ``state`` (mutated and returned)."""
    kind, d = event.kind, event.data
    if kind == "resume":
        # Not logged: its effect is the log it leaves behind.
        _rewind(state, int(d["snapshot"]))
        return state
    if kind == "run_start":
        state._reset()
        state.config = RunConfig.from_record(d)
        state.report.byte_budget = state.config.byte_budget
    elif kind == "recovery":
        state.report.n_recoveries += 1
    elif state.config is None:  # every kind below folds into a run
        raise LedgerError(f"{kind} event at seq {event.seq} before run_start")
    elif kind == "governor":
        state.governor = BudgetGovernor(
            d["total_bytes"], d["n_snapshots"], gain=d["gain"], max_scale=d["max_scale"]
        )
    elif kind == "selection":
        state.selections[d["field"]] = d
    elif kind in ("calibration", "recalibration"):
        state.fields[d["field"]] = calibrated_state(d)
        if kind == "recalibration":
            state.pending.discard(d["field"])
            state.report.n_recalibrations += 1
            state.report.recalibrations.append(
                (int(d["snapshot"]), d["field"], d["reason"])
            )
    elif kind == "decision":
        # The base bound is a recorded *input*: with warm starts it
        # matches the latest calibration event; without them it is
        # re-derived from the data each snapshot, so the decision event
        # is its only record.
        state.fields[d["field"]] = replace(
            _calibrated(state, event),
            eb_base=float(d["eb_base"]),
            halo_params=_halo_params(d.get("halo")),
        )
        state._decisions[d["field"]] = d
    elif kind == "outcome":
        _outcome(state, event)
    elif kind == "budget":
        if state.governor is None:
            raise LedgerError(f"budget event at seq {event.seq} without a governor")
        # Folding the recorded inputs reproduces the scale and spent
        # trajectory exactly (observe is deterministic).
        state.governor.observe(int(d["snapshot_bytes"]), float(d["exponent_mean"]))
        state.open_bytes = 0
    elif kind == "degradation":
        state.quarantined.add(d["field"])
        state.report.n_degradations += 1
        if d["field"] not in state.report.degraded_fields:
            state.report.degraded_fields.append(d["field"])
    elif kind == "run_end":
        state.sealed = int(d["n_snapshots"])
    state.log.append(event)
    snapshot = _snapshot_of(state, event)
    if snapshot is not None:
        state.open_snapshot = snapshot
    return state


def _outcome(state: RunState, event: LedgerEvent) -> None:
    d = event.data
    name = d["field"]
    fs = _calibrated(state, event)
    decision = state._decisions.pop(name, None)
    if decision is None:
        raise LedgerError(f"outcome for {name!r} at seq {event.seq} has no decision")
    signal: DriftSignal | None = None
    if state.config.recalibrate == "drift" and d.get("residual") is not None:
        # The detector consumes the same numbers it saw live, so its
        # window — and every future verdict — continues exactly.
        detector = state.detector(name)
        signal = detector.update_rate(
            float(d["predicted_bit_rate"]), float(d["achieved_bit_rate"])
        )
        state.fields[name] = replace(fs, window=detector.window)
    # The re-run detector is the verdict; the recorded flag only checks it.
    if (signal is not None) != bool(d.get("recalibrate_next")):
        raise _diverged(
            event, "recalibrate_next", signal is not None, d.get("recalibrate_next")
        )
    if signal is None:
        state.pending.discard(name)
    else:
        state.pending.add(name)
    state.open_bytes += int(d["compressed_bytes"])
    state.report.outcomes.append(
        StreamOutcome(
            field=name,
            redshift=float(decision["redshift"]),
            snapshot_index=int(d["snapshot"]),
            eb_base=float(decision["eb_base"]),
            scale=float(decision["scale"]),
            eb_avg=float(decision["eb_avg"]),
            compressor_spec=_spec(decision.get("spec")),
            # Payloads live only in the process that compressed them;
            # the live controller attaches them to the row folded here.
            result=None,
            predicted_bit_rate=float(d["predicted_bit_rate"]),
            achieved_bit_rate=float(d["achieved_bit_rate"]),
            raw_bytes=int(d["raw_bytes"]),
            compressed_bytes=int(d["compressed_bytes"]),
            residual=d.get("residual"),
            quality_deviation=d.get("quality_deviation"),
            drift_signal=signal,
        )
    )


def _rewind(state: RunState, cut: int) -> None:
    """A ``resume`` at snapshot ``cut`` declares every in-snapshot event
    recorded for snapshots ``>= cut`` part of an interrupted attempt
    that is about to be re-executed.  They are withdrawn by re-folding
    the run's remaining events; the copies appended after the resume are
    the ones to trust (the re-run is deterministic, so where both exist
    they agree)."""
    kept = [
        e
        for e in state.log[state._run_first :]
        if (snapshot := _snapshot_of(state, e)) is None or snapshot < cut
    ]
    del state.log[state._run_first :]
    state._reset()
    for e in kept:
        apply(state, e)


# -- one decision's inputs, live and on replay --------------------------------


def decision_inputs(
    eb_base: float, scale: float, halo_params: tuple[float, float] | None
) -> tuple[float, HaloQualitySpec | None]:
    """The governed average bound and, for a halo-aware field, the halo
    constraint counting boundary cells at it (capped at 1): what the
    controller optimizes under and :func:`rederive` replays."""
    eb_avg = eb_base * scale
    if halo_params is None:
        return eb_avg, None
    return eb_avg, HaloQualitySpec(*halo_params, reference_eb=min(1.0, eb_avg))


# -- re-deriving recorded decisions (replay) ----------------------------------


def _diverged(event: LedgerEvent, what: str, got: object, recorded: object) -> LedgerError:
    return LedgerError(
        f"replay diverged at seq {event.seq} ({event.kind}): "
        f"{what} {got!r} != recorded {recorded!r}"
    )


def _features(d: dict[str, Any]) -> list[PartitionFeatures]:
    rates = d["cell_rates"] or [None] * len(d["mean_abs"])
    return [
        PartitionFeatures(
            rank=i, n_cells=int(n), mean_abs=float(m), effective_cell_rate=r
        )
        for i, (n, m, r) in enumerate(zip(d["n_cells"], d["mean_abs"], rates))
    ]


def rederive(
    state: RunState, event: LedgerEvent, verify: bool = True
) -> ReplayedDecision | None:
    """Recompute what ``event`` records from the state folded *before* it.

    Pure — :func:`apply` is what advances ``state``.  A ``decision``
    event goes through :func:`decision_inputs` and
    :func:`~repro.core.optimizer.optimize` — the calls the live run
    made — on its recorded features and yields the
    :class:`ReplayedDecision`; a ``budget`` event re-derives the governor
    step; every other kind yields ``None``.  With ``verify`` each
    recomputed quantity (scale, ``eb_avg``, halo constraint, constraint
    name, bounds; snapshot bytes and next scale) is compared with the
    record and the first divergence raises
    :class:`~repro.stream.ledger.LedgerError`.
    """
    d = event.data
    if event.kind == "budget" and verify and state.governor is not None:
        if state.open_bytes != int(d["snapshot_bytes"]):
            raise _diverged(
                event, "snapshot bytes", state.open_bytes, d["snapshot_bytes"]
            )
        scale_next = state.budget_step()[0].scale
        if scale_next != d["scale_next"]:
            raise _diverged(event, "next scale", scale_next, d["scale_next"])
    if event.kind != "decision":
        return None
    model = _calibrated(state, event).model
    eb_avg, halo = decision_inputs(
        float(d["eb_base"]), state.scale, _halo_params(d.get("halo"))
    )
    opt = optimizer.optimize(_features(d), model, eb_avg, state.config.settings, halo)
    ebs = tuple(float(e) for e in opt.ebs)
    if verify:
        for what, got, recorded in (
            ("governor scale", state.scale, d["scale"]),
            ("eb_avg", eb_avg, float(d["eb_avg"])),
            ("halo", None if halo is None else asdict(halo), d.get("halo")),
            ("constraint", opt.constraint, d["constraint"]),
            ("per-partition bounds", ebs, tuple(float(e) for e in d["ebs"])),
        ):
            if got != recorded:
                raise _diverged(event, what, got, recorded)
    return ReplayedDecision(
        snapshot_index=int(d["snapshot"]),
        redshift=float(d["redshift"]),
        field=d["field"],
        eb_avg=eb_avg,
        ebs=ebs,
        # Informational: the bound arithmetic above never touches it.
        compressor=_spec(d.get("spec")),
    )
