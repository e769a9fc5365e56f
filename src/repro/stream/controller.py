"""The in situ controller: the one front for many fields and snapshots.

:class:`InSituController` consumes a :class:`~repro.stream.source.
SnapshotStream` (or single snapshots via :meth:`~InSituController.
process_snapshot`), decides per-field error bounds for every dump, and
closes the loop one-shot compression leaves open —

- **warm starts**: each snapshot's per-field configuration starts from
  the previous decision (the calibrated rate model *and* the
  model-inverted base bound), so the steady-state per-snapshot cost is
  feature extraction + the closed-form optimization + compression, with
  no model refits and no original-field re-analysis;
- **drift-gated recalibration**: a per-field
  :class:`~repro.stream.drift.DriftDetector` compares the model's
  predicted bitrate against the achieved bitrate; only when the
  standardized residuals drift does the controller re-fit the rate
  model (``probe_mode="exact"`` runs the codec for the probes,
  ``"model"`` reads them off the quantization-code histogram) and
  re-invert the quality budget;
- **a run-level budget governor**: :class:`BudgetGovernor` tracks
  cumulative compressed bytes against a total-run byte budget and
  scales every field's error bound through the rate model's own power
  law to land on it;
- **an append-only ledger**: every calibration, decision, outcome and
  budget step is recorded (:mod:`repro.stream.ledger`), and the
  controller's decision state is only ever the fold of those events
  (:func:`repro.stream.state.apply`) — the reducer :meth:`InSituController.
  resume` and :func:`replay_ledger` fold too, so a resumed or replayed
  run is the live run by construction (``docs/resilience.md``).

A field step is one path: (re)calibrate if due, invert the budget (or
read it off the field's state), decide, compress with
:meth:`~repro.core.pipeline.AdaptiveCompressionPipeline.run` (the rank
loop).  It writes nothing: it returns its records, and the snapshot loop,
the one writer, appends and folds them.  So a snapshot's field steps run
side by side on the fan-out pool (:func:`~repro.util.fanout.thread_map`)
and their records are appended in field order afterwards: the ledger is
the serial loop's, byte for byte, on any CPU count.  The snapshot is the
barrier: every step decides from the state folded before it, the
governor scale included.  It keeps nothing either: the
compressor it runs is a function of the field's folded
:class:`~repro.stream.state.FieldState` (its spec, which is the whole
configuration), so a resumed run compresses with what a live one does.
A field that degrades onto the fallback compressor goes round the
decide→run part again.  One
:class:`~repro.foresight.evaluator.FieldReference` per step serves the
budget inversion, the halo-spec derivation and the quality check, which
reads the reconstruction compression writes instead of decoding.  A
decision is :func:`~repro.stream.state.decision_inputs` then
:func:`~repro.core.optimizer.optimize`, the two calls replay makes.

*Batch* use (the paper's §1 storage arithmetic: calibrate once, compress
every field of every dump, budgets re-derived per snapshot) is two
arguments, not another class::

    ctl = InSituController(dec, field_specs=specs, max_partitions=12,
                           recalibrate="never", warm_start=False)
    ctl.prime(first_snapshot)                 # the offline §3.5 fit
    for snap in snapshots:
        ctl.process_snapshot(snap)
    ctl.report.field_ratio("temperature"), ctl.report.overall_ratio
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable, Iterator, Mapping
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from types import MappingProxyType
from typing import Any

import numpy as np

from repro import telemetry
from repro.compression.api import Compressor, CompressorSpec, resolve_compressor
from repro.core.config import FieldSpec, OptimizerSettings
from repro.core.pipeline import AdaptiveCompressionPipeline, SnapshotResult
from repro.core.selection import (
    SelectionResult,
    derive_eb_budget,
    derive_halo_params,
    select_compressor,
)
from repro.foresight.evaluator import FieldReference, spectrum_deviation
from repro.models.calibration import (
    CalibrationResult,
    calibrate_rate_model,
    check_probe_mode,
)
from repro.parallel.decomposition import BlockDecomposition
from repro.resilience.faults import field_scope
from repro.resilience.retry import RetryExhaustedError, RetryHook, RetryPolicy
from repro.sim.nyx import NyxSnapshot
from repro.stream.drift import DriftConfig, DriftDetector, DriftSignal
from repro.stream.ledger import (
    LEDGER_SCHEMA_VERSION,
    LedgerError,
    LedgerEvent,
    RunLedger,
)
from repro.stream.source import SnapshotStream, as_stream
from repro.stream.state import (
    BudgetGovernor,
    FieldState,
    ReplayedDecision,
    RunConfig,
    RunState,
    StreamOutcome,
    StreamReport,
    apply,
    calibrated_state,
    decision_inputs,
    rederive,
)
from repro.util.fanout import thread_map

__all__ = [
    "BudgetGovernor",
    "StreamOutcome",
    "StreamReport",
    "InSituController",
    "ReplayedDecision",
    "replay_ledger",
]

#: A field step's ledger record ``(kind, data)``, for ``_append(kind, **data)``.
Record = tuple[str, dict[str, Any]]


@dataclass
class _Step:
    """What one field's step handed back from the pool: its value or the
    exception it raised, and the retries it made either way.  The
    snapshot loop adds the retries when it reaches the step in field
    order, then re-raises the error or appends the value's records."""

    value: Any = None
    error: BaseException | None = None
    retries: int = 0

    def note_retry(self, *_: object) -> None:
        self.retries += 1

    def commit(self, report: StreamReport) -> Any:
        report.n_retries += self.retries
        if self.error is not None:
            raise self.error
        return self.value


def _governor_record(byte_budget: int, n_snapshots: int) -> Record:
    """The ``governor`` record steering ``byte_budget`` over ``n_snapshots``
    dumps (:class:`BudgetGovernor` checks the count)."""
    gov = BudgetGovernor(byte_budget, n_snapshots)
    return "governor", dict(
        total_bytes=gov.total_bytes,
        n_snapshots=gov.n_snapshots,
        gain=gov.gain,
        max_scale=gov.max_scale,
    )


# -- the controller ----------------------------------------------------------


class InSituController:
    """Online adaptive-compression service over a snapshot stream.

    Parameters
    ----------
    decomposition:
        Rank layout shared by every field and snapshot.
    field_specs:
        Field name -> :class:`~repro.core.config.FieldSpec`; fields
        without an entry use the default spec.
    compressor:
        Error-bounded compressor shared across fields — an instance, a
        :class:`~repro.compression.api.CompressorSpec` (or spec string),
        or ``None`` for the registry default (plain SZ).  A field spec's
        ``compressor`` pins that field to its own configuration.
    settings:
        Optimizer settings.
    candidates:
        Compressor candidate slate (specs or spec strings).  When given,
        every field's compressor is *selected* at (re)calibration time
        by :func:`~repro.core.selection.select_compressor` — candidates
        that cannot honour the field's bound are rejected with the
        violation quantified, the verdicts land in a ``selection``
        ledger event, and drift therefore triggers *re-selection*, not
        just recalibration.
    ledger:
        A :class:`~repro.stream.ledger.RunLedger`, a JSONL path, or
        ``None`` for an in-memory ledger.
    byte_budget:
        Total-run compressed-byte budget enabling the
        :class:`BudgetGovernor`; requires ``n_snapshots`` (given here or
        inferred from ``len(stream)`` in :meth:`run`).
    drift:
        :class:`~repro.stream.drift.DriftConfig` thresholds.
    recalibrate:
        ``"drift"`` (default) refits a field's models only when its
        detector fires; ``"always"`` refits every field every snapshot
        (the naive online baseline); ``"never"`` freezes models after
        :meth:`prime` (batch semantics).
    warm_start:
        Reuse the previous snapshot's base bound between recalibrations
        (default).  ``False`` re-inverts the quality budget from the
        data every snapshot (batch semantics) while still
        keeping the rate model warm.
    probe_mode:
        Rate-model calibration probes: ``"exact"`` (the codec runs) or
        ``"model"`` — the closed-form ratio-quality engine
        (:mod:`repro.models.rq_model`): rates come off the
        quantization-code histogram, and drift-triggered re-selection
        is gated on *predicted* quality-at-bound instead of trial
        compressions.
    max_partitions, seed:
        Calibration sampling: each fit probes at most ``max_partitions``
        partitions, drawn with ``seed`` (as are selection's samples).
    check_quality:
        Measure each field's achieved spectrum deviation on the
        reconstruction compression writes as it goes — nothing is
        decoded (feeds the drift detector's quality channel; implied by
        a :class:`DriftConfig` with ``quality_margin`` set).
    retain_results:
        Keep every field's full :class:`SnapshotResult` (compressed
        payloads included) on the report outcomes — convenient for
        analysis, but memory then grows with the stream.  ``False``
        drops the payloads after accounting (the CLI's choice), keeping
        a 200-dump run at one-snapshot memory.
    retry:
        A :class:`~repro.resilience.retry.RetryPolicy` (or a plain int,
        shorthand for ``RetryPolicy(max_attempts=n)``) applied to
        per-field execution and ledger appends.  ``None`` (default) keeps fail-fast semantics.
    fallback_compressor:
        Conservative :class:`~repro.compression.api.CompressorSpec` (or
        spec string) a field degrades to when its retries are
        exhausted: the field is quarantined onto the fallback, a
        ``degradation`` ledger event is recorded, and the stream
        continues.  ``None`` (default) re-raises instead.
    fsync_ledger:
        ``os.fsync`` every ledger append (crash-safety against power
        loss, not just process death); only meaningful for path-backed
        ledgers constructed by the controller.

    A snapshot's field steps run side by side on the process's fan-out
    pool and their records are appended in field order, so the ledger
    does not depend on the CPU count; with one usable CPU every step runs
    in the calling thread.  A step that fails leaves the serial loop's
    ledger: the fields before it are appended, its exception propagates,
    and nothing of the fields after it (not their retries either) is
    kept.

    Examples
    --------
    >>> from repro.sim.nyx import NyxSimulator
    >>> from repro.stream.source import SimulatorStream
    >>> from repro.parallel.decomposition import BlockDecomposition
    >>> sim = NyxSimulator(shape=(16, 16, 16), seed=0)
    >>> ctl = InSituController(BlockDecomposition((16, 16, 16), blocks=2))
    >>> report = ctl.run(SimulatorStream(sim, [2.0, 1.0]))
    >>> report.n_snapshots
    2
    """

    def __init__(
        self,
        decomposition: BlockDecomposition,
        field_specs: dict[str, FieldSpec] | None = None,
        compressor: "Compressor | CompressorSpec | str | None" = None,
        settings: OptimizerSettings | None = None,
        *,
        candidates: "list[CompressorSpec | str] | None" = None,
        ledger: RunLedger | str | os.PathLike | None = None,
        byte_budget: int | None = None,
        n_snapshots: int | None = None,
        drift: DriftConfig | None = None,
        recalibrate: str = "drift",
        warm_start: bool = True,
        default_spec: FieldSpec | None = None,
        probe_mode: str = "exact",
        max_partitions: int = 24,
        seed: int = 0,
        check_quality: bool = False,
        retain_results: bool = True,
        retry: "RetryPolicy | int | None" = None,
        fallback_compressor: "CompressorSpec | str | None" = None,
        fsync_ledger: bool = False,
    ) -> None:
        if recalibrate not in ("drift", "always", "never"):
            raise ValueError(
                f"recalibrate must be 'drift', 'always' or 'never', got {recalibrate!r}"
            )
        if byte_budget is not None and byte_budget <= 0:
            raise ValueError(f"byte_budget must be positive, got {byte_budget}")
        self.decomposition = decomposition
        self.field_specs = dict(field_specs or {})
        self.default_spec = default_spec or FieldSpec()
        self.compressor = resolve_compressor(compressor)
        self.retry = (
            RetryPolicy(max_attempts=int(retry)) if isinstance(retry, int) else retry
        )
        self.fallback_compressor = (
            CompressorSpec.parse(fallback_compressor)
            if isinstance(fallback_compressor, str)
            else fallback_compressor
        )
        self.ledger = (
            ledger
            if isinstance(ledger, RunLedger)
            else RunLedger(ledger, fsync=fsync_ledger)
        )
        drift = drift or DriftConfig()
        self.max_partitions = int(max_partitions)
        self.seed = int(seed)
        self.check_quality = bool(check_quality) or drift.quality_margin is not None
        self.retain_results = bool(retain_results)
        #: Field buffers quality-checked compressions write their
        #: reconstructions into: a step takes one (or makes one) and puts
        #: it back, so there is one per field step in flight.
        self._spare_recon: list[np.ndarray] = []

        #: Everything decisions derive from, the run's settings
        #: (``state.config``) and governor included.  Owned by the reducer:
        #: only :func:`~repro.stream.state.apply` (via :meth:`_append`)
        #: changes it.
        self.state = RunState()
        #: The records the run opens with, appended by :meth:`_start`: the
        #: settings are read back from their fold, never kept here.
        self._opening: list[Record] = [
            (
                "run_start",
                dict(
                    schema=LEDGER_SCHEMA_VERSION,
                    shape=list(decomposition.shape),
                    # Schema v3: the block layout, so resume() can rebuild
                    # the decomposition without re-specifying it.
                    blocks=list(decomposition.blocks),
                    n_partitions=decomposition.n_partitions,
                    byte_budget=None if byte_budget is None else int(byte_budget),
                    compressor=self.compressor.spec.to_dict(),
                    candidates=(
                        [
                            (CompressorSpec.parse(c) if isinstance(c, str) else c).to_dict()
                            for c in candidates
                        ]
                        if candidates
                        else None
                    ),
                    # Field for field what RunConfig.from_record reads back.
                    settings=asdict(settings or OptimizerSettings()),
                    recalibrate=recalibrate,
                    warm_start=bool(warm_start),
                    probe_mode=check_probe_mode(probe_mode),
                    drift=asdict(drift),
                    # Ledgers name the execution path here; there is one
                    # now, and nothing reads the field back.
                    backend="serial",
                ),
            )
        ]
        if byte_budget is not None and n_snapshots is not None:
            self._opening.append(_governor_record(byte_budget, n_snapshots))

    # -- resilience plumbing ---------------------------------------------

    def _note_retry(self, *_: object) -> None:
        """Retry-accounting hook (``on_retry``) for ledger appends and
        snapshot loads, which the snapshot loop makes itself."""
        self.report.n_retries += 1

    def _retrying(self, fn: Callable[[], Any], site: str, on_retry: RetryHook) -> Any:
        """``fn()`` under the retry policy, each retry reported to
        ``on_retry``; without a policy, fail fast (the raw exception
        propagates)."""
        if self.retry is None:
            return fn()
        return self.retry.execute(fn, site=site, on_retry=on_retry)

    def _side_by_side(
        self,
        fields: Mapping[str, np.ndarray],
        step: Callable[[str, np.ndarray, RetryHook], Any],
    ) -> list[_Step]:
        """``step(name, data, on_retry)`` for every field on the fan-out
        pool, each inside :func:`~repro.resilience.faults.field_scope`;
        the steps in field order, for the caller to :meth:`_Step.commit`.

        Every item returns its step, never raises, so a failure cannot
        cost an earlier field its value.  An item whose earlier field has
        already failed is not run: the serial loop would never have
        reached it (with one usable CPU, none after a failure runs; on
        more, a later field already claimed runs to its end, unused)."""
        failed: list[int] = []

        def run(item: tuple[int, tuple[str, np.ndarray]]) -> _Step | None:
            i, (name, data) = item
            if any(j < i for j in failed):
                return None
            out = _Step()
            try:
                with field_scope(name):
                    out.value = step(name, data, out.note_retry)
            # Not swallowed: _Step.commit re-raises it in field order.  An
            # interrupt is not caught: thread_map raises it at once.
            except Exception as exc:  # repro-lint: disable=RL007
                failed.append(i)
                out.error = exc
            return out

        return thread_map(run, enumerate(fields.items()))

    @contextmanager
    def _reconstruction(self) -> Iterator[np.ndarray | None]:
        """A field buffer for one step's reconstruction (``None`` when
        quality goes unchecked), put back for the next step on exit."""
        if not self.check_quality:
            yield None
            return
        try:
            buffer = self._spare_recon.pop()
        except IndexError:  # every spare is in use by another step
            buffer = np.empty(self.decomposition.shape, dtype=np.float64)
        try:
            yield buffer
        finally:
            self._spare_recon.append(buffer)

    def _append(self, kind: str, **data: Any) -> LedgerEvent:
        """Ledger append under the retry policy, then fold the event.

        This is the only way controller state changes.  The ledger
        commits an event to memory only after it is safely on disk, so a
        transient append failure retried here reuses the same sequence
        id.  A :class:`~repro.resilience.faults.TornWrite` is *not*
        retryable — retrying would duplicate the event — and propagates
        (nothing is folded) for crash-recovery tests.
        """
        event = self._retrying(
            lambda: self.ledger.append(kind, **data), "ledger.append", self._note_retry
        )
        apply(self.state, event)
        return event

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Release the ledger file handle."""
        self.ledger.close()

    def __enter__(self) -> "InSituController":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def spec_for(self, name: str) -> FieldSpec:
        return self.field_specs.get(name, self.default_spec)

    @property
    def report(self) -> StreamReport:
        """Cumulative accounting of the run (rows folded from the ledger)."""
        return self.state.report

    @property
    def calibrations(self) -> Mapping[str, CalibrationResult]:
        """Current per-field rate-model fits (latest recalibration wins).

        A read-only projection of ``state.fields``, so a live and a
        resumed controller show the same fits.  Probe diagnostics are not
        recorded (they feed no decision): each fit carries the model and
        ``coef_r2`` only.
        """
        empty = np.array([])
        return MappingProxyType(
            {
                name: CalibrationResult(fs.model, empty, empty, empty, empty, fs.coef_r2)
                for name, fs in self.state.fields.items()
            }
        )

    @property
    def selections(self) -> Mapping[str, SelectionResult]:
        """Latest per-field compressor-selection outcomes (``candidates`` mode)."""
        return MappingProxyType(
            {n: SelectionResult.from_dict(d) for n, d in self.state.selections.items()}
        )

    @property
    def governor(self) -> BudgetGovernor | None:
        """The governor folded from the ``governor`` event (``None``
        before it, or for a run without a byte budget)."""
        return self.state.governor

    def _start(self) -> RunConfig:
        """Append the opening records unless the run has started; the
        run's settings as the fold holds them."""
        if self.state.config is None:
            for kind, record in self._opening:
                self._append(kind, **record)
            self._opening.clear()
        return self.state.config

    def _compressor_for(self, spec: CompressorSpec | None) -> Compressor:
        """The compressor ``spec`` names: the controller's own instance
        (possibly of a class outside the registry) when ``spec`` is
        ``None`` or that instance's spec, else the registry's.  A spec is
        the whole configuration, so a live and a resumed run compress a
        field with the same bytes."""
        if spec is None or spec == self.compressor.spec:
            return self.compressor
        return resolve_compressor(spec)

    # -- calibration -----------------------------------------------------

    def prime(self, snapshot: NyxSnapshot) -> None:
        """Calibrate every field of ``snapshot`` (the offline §3.5 step).

        Optional with ``recalibrate="drift"``/``"always"`` (the first
        snapshot self-calibrates); required before streaming with
        ``recalibrate="never"``.
        """
        self._start()

        def calibrate(name: str, data: np.ndarray, _: RetryHook) -> list[Record]:
            records: list[Record] = []
            self._calibrate_field(name, data, FieldReference(data), "initial", records)
            return records

        for step in self._side_by_side(snapshot.fields, calibrate):
            for kind, record in step.commit(self.report):
                self._append(kind, **record)

    def _budget(
        self, spec: FieldSpec, ref: FieldReference
    ) -> tuple[float, tuple[float, float] | None]:
        """The field's quality budget inverted from ``ref``:
        ``(eb_base, halo_params)``."""
        eb_base = derive_eb_budget(spec, ref)
        return eb_base, derive_halo_params(spec, ref) if spec.halo_aware else None

    def _calibrate_field(
        self,
        name: str,
        data: np.ndarray,
        ref: FieldReference,
        reason: str,
        records: list[Record],
    ) -> FieldState:
        """Choose ``name``'s compressor and fit its rate model on ``data``,
        add the ``selection`` and ``(re)calibration`` records to ``records``
        and return the state the calibration record folds to.

        The compressor, by priority: quarantine (a field degraded now or
        before stays on the conservative fallback — re-selection could hand
        it back the very compressor that failed) > candidate-slate selection
        (re-run on every recalibration, so drift triggers *re-selection*)
        > the field spec's pinned ``compressor`` > the controller default.
        """
        config = self.state.config
        spec = self.spec_for(name)
        eb_base, halo_params = self._budget(spec, ref)
        calibration: CalibrationResult | None = None
        quarantined = reason == "degradation" or name in self.state.quarantined
        if quarantined and self.fallback_compressor is not None:
            compressor = self._compressor_for(self.fallback_compressor)
        elif config.candidates is not None:
            selection = select_compressor(
                data,
                self.decomposition,
                candidates=config.candidates,
                field_spec=spec,
                field=name,
                eb_avg=eb_base,
                reference=ref,
                probe_mode=config.probe_mode,
                max_partitions=self.max_partitions,
                seed=self.seed,
                require_error_bounded=True,
            )
            verdict = dict(
                snapshot=self.report.n_snapshots,
                field=name,
                reason=reason,
                eb_avg=selection.eb_avg,
                chosen=selection.chosen.to_dict(),
                verdicts=[v.to_dict() for v in selection.verdicts],
            )
            records.append(("selection", verdict))
            compressor = selection.compressor
            # The winning candidate was already calibrated at eb_base with
            # the controller's probe settings: reuse the fit instead of
            # probing the field again.
            calibration = selection.calibration
        else:
            compressor = self._compressor_for(spec.compressor)
        if calibration is None:
            calibration = calibrate_rate_model(
                self.decomposition.partition_views(data),
                compressor=compressor,
                eb_scale=eb_base,
                max_partitions=self.max_partitions,
                seed=self.seed,
                probe_mode=config.probe_mode,
            )
        model = calibration.rate_model
        record = dict(
            snapshot=self.report.n_snapshots,
            field=name,
            reason=reason,
            spec=compressor.spec.to_dict(),
            exponent=model.exponent,
            coef_alpha=model.coef_alpha,
            coef_beta=model.coef_beta,
            feature_floor=model.feature_floor,
            coef_r2=calibration.coef_r2,
            eb_base=eb_base,
            halo_params=(
                None
                if halo_params is None
                else {"t_boundary": halo_params[0], "mass_budget": halo_params[1]}
            ),
        )
        records.append(("calibration" if reason == "initial" else "recalibration", record))
        return calibrated_state(record)

    # -- streaming -------------------------------------------------------

    def run(self, stream: "SnapshotStream | list[NyxSnapshot]") -> StreamReport:
        """Consume every snapshot of ``stream``; returns the final report.

        Accepts a :class:`SnapshotStream` or a plain snapshot list
        (coerced via :func:`~repro.stream.source.as_stream`).  A byte
        budget without a governor yet gets one over ``len(stream)``
        dumps.

        On a resumed controller (:meth:`resume`) the first
        ``report.n_snapshots`` dumps are already accounted in the
        ledger and are skipped without being loaded or generated.
        """
        stream = as_stream(stream)
        config = self._start()
        if config.byte_budget is not None and self.state.governor is None:
            kind, record = _governor_record(config.byte_budget, len(stream))
            self._append(kind, **record)
        for snapshot in stream.iter_from(self.report.n_snapshots, self._note_retry):
            self.process_snapshot(snapshot)
        self.finish()
        return self.report

    def finish(self) -> StreamReport:
        """Seal the run with a ``run_end`` ledger event (idempotent)."""
        if self.state.config is not None and self.state.sealed is None:
            self._append(
                "run_end",
                n_snapshots=self.report.n_snapshots,
                compressed_bytes=self.report.compressed_bytes,
                raw_bytes=self.report.raw_bytes,
                n_recalibrations=self.report.n_recalibrations,
                budget_utilization=self.report.budget_utilization,
            )
        return self.report

    # -- crash recovery --------------------------------------------------

    @classmethod
    def resume(
        cls,
        ledger: "RunLedger | str | os.PathLike",
        *,
        decomposition: BlockDecomposition | None = None,
        field_specs: dict[str, FieldSpec] | None = None,
        default_spec: FieldSpec | None = None,
        retry: "RetryPolicy | int | None" = None,
        fallback_compressor: "CompressorSpec | str | None" = None,
        fsync_ledger: bool = False,
        max_partitions: int = 24,
        seed: int = 0,
        check_quality: bool = False,
        retain_results: bool = True,
    ) -> "InSituController":
        """Rebuild a controller from an interrupted run's ledger.

        Opens ``ledger`` with ``recover=True`` (a torn final line — the
        footprint of a crash mid-append — is truncated and recorded as a
        ``recovery`` event), folds its events with
        :func:`~repro.stream.state.apply` — the state a controller that
        had written them itself would hold — and positions the cursor
        at the first snapshot without a complete record.  Calling
        :meth:`run` with the original stream then skips the completed
        dumps and produces decisions bitwise identical to a run that
        was never interrupted.

        Settings recorded in the ``run_start`` event are restored from
        the ledger (its recorded ``backend`` name is never read back);
        process-local choices it does not restore — field specs, retry
        policy, calibration
        ``max_partitions``/``seed`` — are taken from the keyword
        arguments and must match the original run for recalibrations
        after the resume point to reproduce exactly.  Ledgers older than
        schema v3 do not record the block layout, so ``decomposition``
        is required for them.
        """
        run_ledger = (
            ledger
            if isinstance(ledger, RunLedger)
            else RunLedger(ledger, recover=True, fsync=fsync_ledger)
        )
        state = RunState()
        for event in run_ledger.events:
            apply(state, event)
        config = state.config
        if config is None:
            raise LedgerError("cannot resume: ledger has no run_start event")
        if decomposition is None:
            if config.blocks is None:
                raise LedgerError(
                    "cannot resume: ledger predates schema v3 and records no "
                    "block layout; pass decomposition= explicitly"
                )
            decomposition = BlockDecomposition(config.shape, blocks=config.blocks)
        recorded = {
            k: v for k, v in vars(config).items() if k not in ("shape", "blocks")
        }
        ctl = cls(
            decomposition,
            field_specs=field_specs,
            ledger=run_ledger,
            default_spec=default_spec,
            max_partitions=max_partitions,
            seed=seed,
            check_quality=check_quality,
            retain_results=retain_results,
            retry=retry,
            fallback_compressor=fallback_compressor,
            **recorded,
        )
        ctl.state = state
        # A sealed run is complete: run() on the same stream skips every
        # snapshot and finish() is a no-op.  Otherwise the resume event
        # withdraws the interrupted snapshot's partial record (its
        # authoritative copies follow when run() re-executes it).
        ctl.report.n_snapshots = state.resume_index()
        if state.sealed is None:
            tail = run_ledger.recovered_tail
            ctl._append(
                "resume",
                snapshot=ctl.report.n_snapshots,
                restored_fields=sorted(state.fields),
                truncated_bytes=0 if tail is None else tail["truncated_bytes"],
            )
        return ctl

    def process_snapshot(self, snapshot: NyxSnapshot) -> list[StreamOutcome]:
        """Decide, compress and account every field of one snapshot.

        The field steps run side by side (:meth:`_field_step`, each on the
        state folded before the snapshot); their records are then appended
        and folded in field order, then the ``budget`` event.  If a step
        raised, the fields before it are appended and its exception
        propagates; nothing of a later field is kept."""
        config = self._start()
        if config.byte_budget is not None and self.state.governor is None:
            raise RuntimeError(
                "a byte budget requires n_snapshots (pass it to the "
                "constructor, or use run() on a sized stream)"
            )
        index = self.report.n_snapshots  # the cursor: dumps fully accounted
        # The span carries the ledger seq window this snapshot appended
        # (attributes only — telemetry never writes INTO the ledger, so
        # armed runs replay byte-identically to disarmed ones).
        with telemetry.get_tracer().span(
            "stream.snapshot",
            snapshot=index,
            redshift=float(snapshot.redshift),
            seq_first=self.ledger.next_seq,
        ) as span:
            steps = self._side_by_side(
                snapshot.fields,
                lambda name, data, on_retry: self._field_step(
                    index, snapshot.redshift, name, data, on_retry
                ),
            )
            outcomes = []
            for step in steps:
                records, result, signal = step.commit(self.report)
                for kind, record in records:
                    self._append(kind, **record)
                # The row is the one the fold just built; what only this process
                # has — the payloads, and the quality channel's margin ratio,
                # which the ledger does not record — is attached to it.
                outcome = self.report.outcomes[-1]
                outcome.result = result if self.retain_results else None
                outcome.drift_signal = signal
                outcomes.append(outcome)
            if self.state.governor is not None:
                # Worked out ahead of the fold so the event can record it.
                ahead, exponent_mean = self.state.budget_step()
                self._append(
                    "budget",
                    snapshot=index,
                    snapshot_bytes=self.state.open_bytes,
                    spent=ahead.spent,
                    exponent_mean=exponent_mean,
                    scale_next=ahead.scale,
                    utilization=ahead.utilization,
                )
            span.set_attr("seq_last", self.ledger.next_seq - 1)
        self.report.n_snapshots += 1
        return outcomes

    def _field_step(
        self,
        index: int,
        redshift: float,
        name: str,
        data: np.ndarray,
        on_retry: RetryHook,
    ) -> tuple[list[Record], SnapshotResult, DriftSignal | None]:
        """One field step: (re)calibrate if due, decide, compress.  Returns
        the step's records in append order, its result and its drift verdict;
        each retry it makes is reported to ``on_retry``.

        The step writes nothing: it decides from the state folded before it
        and, after a (re)calibration, from the state its own record gives,
        so the steps of one snapshot may run at once.
        One :class:`~repro.foresight.evaluator.FieldReference` serves
        calibration, a degradation's recalibration and the quality check.
        A retry re-runs the same pipeline on the same inputs (its ``run`` is
        pure in them, so a retried field is bitwise a clean one).  A field
        whose retries run out degrades onto the fallback compressor and goes
        round decide→run once more; a second exhaustion propagates, none of
        its records kept.
        """
        with (
            telemetry.get_tracer().span("stream.field", field=name, snapshot=index),
            self._reconstruction() as recon,
        ):
            config = self.state.config
            spec = self.spec_for(name)
            records: list[Record] = []
            reason = self.state.calibration_reason(name)
            ref = FieldReference(data)
            fs = self.state.fields.get(name)
            if reason is not None:
                fs = self._calibrate_field(name, data, ref, reason, records)
            scale = self.state.scale
            while True:
                if config.warm_start or reason is not None:
                    eb_base, halo_params = fs.eb_base, fs.halo_params
                else:
                    # Batch semantics: the rate model stays frozen but the
                    # budget re-inverts from this snapshot's data (the
                    # decision record is its record).
                    eb_base, halo_params = self._budget(spec, ref)
                eb_avg, halo = decision_inputs(eb_base, scale, halo_params)
                pipe = AdaptiveCompressionPipeline(
                    fs.model, self._compressor_for(fs.compressor_spec), config.settings
                )
                try:
                    result = self._retrying(
                        lambda: pipe.run(
                            data, self.decomposition, eb_avg, halo, out=recon
                        ),
                        f"stream.field:{name}",
                        on_retry,
                    )
                    break
                except RetryExhaustedError as exc:
                    if self.fallback_compressor is None or reason == "degradation":
                        raise
                    # Recalibrated on the fallback, so the rate model is
                    # the one that will compress it from here on (the
                    # recalibration record carries it: replay stays bitwise).
                    reason = "degradation"
                    if telemetry.enabled():
                        telemetry.get_registry().counter("resilience.degradations").inc()
                    degradation = dict(
                        snapshot=index,
                        field=name,
                        site=exc.site,
                        attempts=exc.attempts,
                        error=f"{type(exc.last).__name__}: {exc.last}",
                        fallback=self.fallback_compressor.to_dict(),
                    )
                    records.append(("degradation", degradation))
                    fs = self._calibrate_field(name, data, ref, reason, records)

            feats = result.features
            decision = dict(
                snapshot=index,
                redshift=redshift,
                field=name,
                spec=None if fs.compressor_spec is None else fs.compressor_spec.to_dict(),
                eb_base=eb_base,
                scale=scale,
                eb_avg=eb_avg,
                mean_abs=[f.mean_abs for f in feats],
                n_cells=[f.n_cells for f in feats],
                cell_rates=(
                    [f.effective_cell_rate for f in feats] if halo is not None else None
                ),
                halo=None if halo is None else asdict(halo),
                ebs=result.ebs,
                constraint=result.optimization.constraint,
            )
            records.append(("decision", decision))

            stats = result.stats
            achieved = float(stats.overall_bit_rate)
            predicted = result.optimization.predicted_mean_bitrate
            residual = (
                math.log(achieved / predicted) if achieved > 0 and predicted > 0 else None
            )

            quality_dev: float | None = None
            if self.check_quality:
                # Only the deviation is recorded: no metric moments, no PSNR.
                # The field is what compression wrote into recon: no decode.
                quality_dev = spectrum_deviation(ref, recon, spec.spectrum_k_max)

            # The verdict comes from a scratch detector continuing the
            # step's window (empty after a (re)calibration), so the outcome
            # record can carry it; folding the record advances the window.
            detector = DriftDetector(name, config.drift, fs.window)
            signal: DriftSignal | None = None
            if config.recalibrate == "drift":
                if residual is not None:
                    signal = detector.update_rate(predicted, achieved)
                if signal is None and quality_dev is not None:
                    signal = detector.update_quality(quality_dev, spec.spectrum_tolerance)

            outcome = dict(
                snapshot=index,
                field=name,
                raw_bytes=stats.source_itemsize * stats.total_elements,
                compressed_bytes=stats.total_nbytes,
                achieved_bit_rate=achieved,
                predicted_bit_rate=predicted,
                residual=residual,
                drift_z=detector.zscore(),
                quality_deviation=quality_dev,
                recalibrate_next=signal is not None,
            )
            records.append(("outcome", outcome))
            return records, result, signal


# -- deterministic ledger replay ---------------------------------------------


def replay_ledger(
    source: "RunLedger | str | os.PathLike | list[LedgerEvent]",
    verify: bool = True,
) -> list[ReplayedDecision]:
    """Re-execute a run's decision logic from its ledger alone.

    Folds the events through the reducer the live controller and
    :meth:`InSituController.resume` use, and re-derives every recorded
    decision from the state folded before it: the governor scale from
    the recorded byte counts, every per-partition bound vector by
    re-running the actual optimizer on the recorded features — no field
    data is read, no compressor is invoked.  JSON round-trips floats
    exactly, so the replayed bounds are bitwise identical to the live
    run's.

    With ``verify=True`` (default) every recomputed quantity — governor
    scale, average bound, per-partition bounds — is checked against the
    recorded decision and a :class:`~repro.stream.ledger.LedgerError`
    is raised on the first divergence (a tampered or corrupted ledger,
    or a non-deterministic controller, which would be a bug).

    Every schema version replays, and a crashed-and-resumed run replays
    to the decision list of an uninterrupted one: the reducer table in
    ``docs/resilience.md`` says what each event kind does and what a
    ``resume`` withdraws.
    """
    if isinstance(source, RunLedger):
        events = source.events
    elif isinstance(source, list):
        events = source
    else:
        events = RunLedger.load(source).events

    state = RunState()
    rederived: dict[int, ReplayedDecision | None] = {}
    for event in events:
        rederived[event.seq] = rederive(state, event, verify)
        apply(state, event)
    # What survives in the log is authoritative: a resume has withdrawn
    # the decisions of the attempts it superseded.
    return [d for e in state.log if (d := rederived[e.seq]) is not None]
