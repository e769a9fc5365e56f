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
  re-invert the quality budget, reusing one
  :class:`~repro.foresight.evaluator.FieldReference` for the budget
  inversion, the halo-spec derivation and the optional quality check;
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

Per-field compression runs on the one
:class:`~repro.parallel.backends.ExecutionBackend` the controller was
built with, and each outcome carries the backend's own
:class:`~repro.parallel.backends.SnapshotResult`.  A decision is
:func:`~repro.stream.state.decision_inputs` then
:func:`~repro.core.optimizer.optimize`, the two calls replay makes.

*Batch* use (the paper's §1 storage arithmetic: calibrate once, compress
every field of every dump, budgets re-derived per snapshot) is two
arguments, not another class::

    ctl = InSituController(dec, field_specs=specs,
                           recalibrate="never", warm_start=False)
    ctl.prime(first_snapshot)                 # the offline §3.5 fit
    for snap in snapshots:
        ctl.process_snapshot(snap)
    ctl.report.field_ratio("temperature"), ctl.report.overall_ratio
"""

from __future__ import annotations

import math
import os
from collections.abc import Mapping
from dataclasses import asdict
from types import MappingProxyType
from typing import Any

import numpy as np

from repro import telemetry
from repro.compression.api import Compressor, CompressorSpec, resolve_compressor
from repro.core.config import FieldSpec, HaloQualitySpec, OptimizerSettings
from repro.core.selection import (
    SelectionResult,
    derive_eb_budget,
    derive_halo_params,
    select_compressor,
)
from repro.foresight.evaluator import FieldReference, spectrum_deviation
from repro.models.calibration import (
    CalibrationResult,
    RateModelBank,
    calibrate_rate_model,
    check_probe_mode,
)
from repro.parallel.backends import (
    ExecutionBackend,
    ProcessBackend,
    SnapshotResult,
    SnapshotTask,
    get_backend,
)
from repro.parallel.decomposition import BlockDecomposition
from repro.resilience.retry import RetryExhaustedError, RetryPolicy
from repro.sim.nyx import NyxSnapshot
from repro.stream.drift import DriftConfig, DriftSignal
from repro.stream.ledger import (
    LEDGER_SCHEMA_VERSION,
    LedgerError,
    LedgerEvent,
    RunLedger,
)
from repro.stream.source import SnapshotStream, as_stream
from repro.stream.state import (
    BudgetGovernor,
    ReplayedDecision,
    RunState,
    StreamOutcome,
    StreamReport,
    apply,
    decision_inputs,
    rederive,
)

__all__ = [
    "derive_eb_budget",
    "derive_halo_params",
    "BudgetGovernor",
    "StreamOutcome",
    "StreamReport",
    "InSituController",
    "ReplayedDecision",
    "replay_ledger",
]


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
    backend:
        Execution backend (name or instance) that compresses
        every field; default is the serial rank loop.  A
        :class:`~repro.parallel.backends.ProcessBackend` keeps its
        worker pool alive across fields and snapshots — :meth:`close`
        releases it.
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
    check_quality:
        Decompress and measure each field's achieved spectrum deviation
        (feeds the drift detector's quality channel; implied by a
        :class:`DriftConfig` with ``quality_margin`` set).
    retain_results:
        Keep every field's full :class:`SnapshotResult` (compressed
        payloads included) on the report outcomes — convenient for
        analysis, but memory then grows with the stream.  ``False``
        drops the payloads after accounting (the CLI's choice), keeping
        a 200-dump run at one-snapshot memory.
    retry:
        A :class:`~repro.resilience.retry.RetryPolicy` (or a plain int,
        shorthand for ``RetryPolicy(max_attempts=n)``) applied to
        per-field execution and ledger appends; a
        :class:`~repro.parallel.backends.ProcessBackend` without its own
        policy additionally inherits it for batch-level re-execution.
        ``None`` (default) keeps fail-fast semantics.
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
        backend: str | ExecutionBackend | None = None,
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
        self.candidates = (
            None
            if not candidates
            else [
                CompressorSpec.parse(c) if isinstance(c, str) else c
                for c in candidates
            ]
        )
        self.settings = settings or OptimizerSettings()
        self.backend = get_backend(backend)
        self.retry = (
            RetryPolicy(max_attempts=int(retry)) if isinstance(retry, int) else retry
        )
        self.fallback_compressor = (
            CompressorSpec.parse(fallback_compressor)
            if isinstance(fallback_compressor, str)
            else fallback_compressor
        )
        if (
            self.retry is not None
            and isinstance(self.backend, ProcessBackend)
            and self.backend.retry_policy is None
        ):
            # A backend without its own policy inherits the stream's, so
            # a BrokenProcessPool rebuilds the pool and re-runs only the
            # failed batches instead of failing the whole field.
            self.backend.retry_policy = self.retry
            self.backend.on_retry = self._note_retry
        self.ledger = (
            ledger
            if isinstance(ledger, RunLedger)
            else RunLedger(ledger, fsync=fsync_ledger)
        )
        self.byte_budget = None if byte_budget is None else int(byte_budget)
        self.drift = drift or DriftConfig()
        self.recalibrate = recalibrate
        self.warm_start = bool(warm_start)
        self.probe_mode = check_probe_mode(probe_mode)
        self.max_partitions = int(max_partitions)
        self.seed = int(seed)
        self.check_quality = bool(check_quality) or self.drift.quality_margin is not None
        self.retain_results = bool(retain_results)

        #: Everything decisions derive from.  Owned by the reducer: only
        #: :func:`~repro.stream.state.apply` (via :meth:`_append`) changes it.
        self.state = RunState()
        self.report.byte_budget = self.byte_budget
        #: Process-local caches derived from ``state``: each field's
        #: compressor instance and the full fits of the calibrations this
        #: process ran.
        self._compressors: dict[str, Compressor] = {}
        self._fits: dict[str, CalibrationResult] = {}
        self._governor_proto: BudgetGovernor | None = None
        if self.byte_budget is not None and n_snapshots is not None:
            self._make_governor(n_snapshots)

    # -- resilience plumbing ---------------------------------------------

    def _note_retry(
        self, site: str, attempt: int, exc: BaseException, delay: float
    ) -> None:
        """Retry-accounting hook shared with the backend's batch retries."""
        self.report.n_retries += 1

    def _append(self, kind: str, **data: Any) -> LedgerEvent:
        """Ledger append under the retry policy, then fold the event.

        This is the only way controller state changes.  The ledger
        commits an event to memory only after it is safely on disk, so a
        transient append failure retried here reuses the same sequence
        id.  A :class:`~repro.resilience.faults.TornWrite` is *not*
        retryable — retrying would duplicate the event — and propagates
        (nothing is folded) for crash-recovery tests.
        """
        if self.retry is None:
            event = self.ledger.append(kind, **data)
        else:
            event = self.retry.execute(
                lambda: self.ledger.append(kind, **data),
                site="ledger.append",
                on_retry=self._note_retry,
            )
        apply(self.state, event)
        return event

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Release the backend pool and the ledger file handle."""
        self.backend.close()
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

        A read-only view: calibration state is owned by the controller
        (mutating the mapping raises rather than silently no-opping).
        """
        # Probe diagnostics are not recorded (they feed no decision): a
        # fit folded from the ledger carries the model and coef_r2 only.
        empty = np.array([])
        return MappingProxyType(
            {
                name: self._fits.get(name)
                or CalibrationResult(fs.model, empty, empty, empty, empty, fs.coef_r2)
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
        return self.state.governor or self._governor_proto

    def _make_governor(self, n_snapshots: int) -> None:
        # Validated here; the governor that steers the run is the one
        # ``apply`` builds from the event (recorded separately from
        # ``run_start``: the dump count may only be known at ``run()``).
        gov = self._governor_proto = BudgetGovernor(self.byte_budget, n_snapshots)
        if self.state.config is not None:  # the run has started
            self._append(
                "governor",
                total_bytes=gov.total_bytes,
                n_snapshots=gov.n_snapshots,
                gain=gov.gain,
                max_scale=gov.max_scale,
            )

    def _ensure_started(self) -> None:
        if self.state.config is not None:
            return
        self._append(
            "run_start",
            schema=LEDGER_SCHEMA_VERSION,
            shape=list(self.decomposition.shape),
            # Schema v3: the block layout, so resume() can rebuild the
            # decomposition without re-specifying it.
            blocks=list(self.decomposition.blocks),
            n_partitions=self.decomposition.n_partitions,
            byte_budget=self.byte_budget,
            compressor=self.compressor.spec.to_dict(),
            candidates=(
                None
                if self.candidates is None
                else [c.to_dict() for c in self.candidates]
            ),
            # Field for field what RunConfig.from_record reads back.
            settings=asdict(self.settings),
            recalibrate=self.recalibrate,
            warm_start=self.warm_start,
            probe_mode=self.probe_mode,
            drift=asdict(self.drift),
            backend=self.backend.name,
        )
        if self._governor_proto is not None:
            self._make_governor(self._governor_proto.n_snapshots)

    def _compressor(self, name: str) -> Compressor:
        """The instance ``name`` was last calibrated with — or, for a field
        folded from the ledger (a resumed run), its recorded spec's."""
        compressor = self._compressors.get(name)
        if compressor is None:
            spec = self.state.fields[name].compressor_spec
            compressor = self._compressors[name] = (
                self.compressor if spec is None else resolve_compressor(spec)
            )
        return compressor

    # -- calibration -----------------------------------------------------

    def prime(
        self,
        snapshot: NyxSnapshot,
        max_partitions: int | None = None,
        seed: int | None = None,
    ) -> None:
        """Calibrate every field of ``snapshot`` (the offline §3.5 step).

        Optional with ``recalibrate="drift"``/``"always"`` (the first
        snapshot self-calibrates); required before streaming with
        ``recalibrate="never"``.
        """
        if max_partitions is not None:
            self.max_partitions = int(max_partitions)
        if seed is not None:
            self.seed = int(seed)
        self._ensure_started()
        for name, data in snapshot.fields.items():
            self._calibrate_field(name, data, FieldReference(data), reason="initial")

    def _field_compressor(
        self,
        name: str,
        data: np.ndarray,
        ref: FieldReference,
        spec: FieldSpec,
        eb_base: float,
        reason: str,
    ) -> tuple[Any, SelectionResult | None]:
        """Resolve which compressor this field uses for this calibration.

        Priority: quarantine (a degraded field stays pinned to the
        conservative fallback — re-selection could hand it back the very
        compressor that failed) > candidate-slate selection (re-run on
        every recalibration, so drift triggers *re-selection*) > the
        field spec's pinned ``compressor`` > the controller default.
        """
        if name in self.state.quarantined and self.fallback_compressor is not None:
            return resolve_compressor(self.fallback_compressor), None
        if self.candidates is not None:
            selection = select_compressor(
                data,
                self.decomposition,
                candidates=self.candidates,
                field_spec=spec,
                field=name,
                eb_avg=eb_base,
                reference=ref,
                bank=RateModelBank(
                    probe_mode=self.probe_mode,
                    max_partitions=self.max_partitions,
                    seed=self.seed,
                ),
                probe_mode=self.probe_mode,
                require_error_bounded=True,
            )
            self._append(
                "selection",
                snapshot=self.report.n_snapshots,
                field=name,
                reason=reason,
                eb_avg=selection.eb_avg,
                chosen=selection.chosen.to_dict(),
                verdicts=[v.to_dict() for v in selection.verdicts],
            )
            return selection.compressor, selection
        if spec.compressor is not None:
            return resolve_compressor(spec.compressor), None
        return self.compressor, None

    def _calibrate_field(
        self, name: str, data: np.ndarray, ref: FieldReference, reason: str
    ) -> None:
        """Fit ``name``'s rate model on ``data`` and record it; the
        field's new state is what folding the event produces."""
        spec = self.spec_for(name)
        eb_base = derive_eb_budget(spec, ref)
        compressor, selection = self._field_compressor(
            name, data, ref, spec, eb_base, reason
        )
        if selection is not None and selection.calibration is not None:
            # The winning candidate was already calibrated at eb_base
            # with the controller's probe settings during selection —
            # reuse the fit instead of probing the field again.
            calibration = selection.calibration
        else:
            calibration = calibrate_rate_model(
                self.decomposition.partition_views(data),
                compressor=compressor,
                eb_scale=eb_base,
                max_partitions=self.max_partitions,
                seed=self.seed,
                probe_mode=self.probe_mode,
            )
        halo_params = derive_halo_params(spec, ref) if spec.halo_aware else None
        model = calibration.rate_model
        self._append(
            "calibration" if reason == "initial" else "recalibration",
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
        # Keep the instance that was probed (caller-owned state such as
        # codec levels is preserved) and the fit's probe diagnostics.
        self._compressors[name] = compressor
        self._fits[name] = calibration

    # -- streaming -------------------------------------------------------

    def run(self, stream: "SnapshotStream | list[NyxSnapshot]") -> StreamReport:
        """Consume every snapshot of ``stream``; returns the final report.

        Accepts any :class:`SnapshotStream` or a plain snapshot list
        (coerced via :func:`~repro.stream.source.as_stream`).

        On a resumed controller (:meth:`resume`) the first
        ``report.n_snapshots`` dumps are already accounted in the
        ledger and are skipped — without loading or generating them when
        the stream supports ``iter_from``.
        """
        stream = as_stream(stream)
        if self.byte_budget is not None and self.governor is None:
            self._make_governor(len(stream))
        start = self.report.n_snapshots
        if start == 0:
            iterator = iter(stream)
        elif hasattr(stream, "iter_from"):
            iterator = stream.iter_from(start)
        else:
            iterator = (s for i, s in enumerate(stream) if i >= start)
        for snapshot in iterator:
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
        backend: "str | ExecutionBackend | None" = None,
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
        the ledger; process-local choices it does not restore — the
        execution backend (its recorded name is never read back), field
        specs, retry policy, calibration
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
        gov = state.governor
        recorded = {
            k: v for k, v in vars(config).items() if k not in ("shape", "blocks")
        }
        ctl = cls(
            decomposition,
            field_specs=field_specs,
            backend=backend,
            ledger=run_ledger,
            n_snapshots=None if gov is None else gov.n_snapshots,
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
        """Decide, compress and account every field of one snapshot."""
        if self.byte_budget is not None and self.governor is None:
            raise RuntimeError(
                "a byte budget requires n_snapshots (pass it to the "
                "constructor, or use run() on a sized stream)"
            )
        self._ensure_started()
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
            outcomes = [
                self._process_field(index, snapshot.redshift, name, data)
                for name, data in snapshot.fields.items()
            ]
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

    def _run_field(
        self,
        name: str,
        data: np.ndarray,
        eb_avg: float,
        halo: HaloQualitySpec | None,
    ) -> SnapshotResult:
        """Execute one field's compression under the retry policy.

        The task's rate model is the field's folded one, the model
        :func:`~repro.stream.state.rederive` replays with.  A transient
        failure (injected crash, timeout, OSError, ...) is retried with
        the same task — the backend is a pure function of it, so a
        successful retry is bitwise identical to a run that never
        failed.  A retry-aware :class:`~repro.parallel.
        backends.ProcessBackend` retries at batch granularity first;
        only what escapes it (e.g. its own
        :class:`~repro.resilience.retry.RetryExhaustedError`, which is
        not retryable) reaches this per-field site.
        """
        task = SnapshotTask(
            data=data,
            decomposition=self.decomposition,
            eb_avg=eb_avg,
            rate_model=self.state.fields[name].model,
            compressor=self._compressor(name),
            settings=self.settings,
            halo=halo,
        )

        def attempt() -> SnapshotResult:
            return self.backend.run_snapshot(task)

        if self.retry is None:
            return attempt()
        return self.retry.execute(
            attempt, site=f"stream.field:{name}", on_retry=self._note_retry
        )

    def _degrade_field(
        self, index: int, name: str, data: np.ndarray, exc: RetryExhaustedError
    ) -> None:
        """Quarantine ``name`` onto the fallback compressor after retries.

        Records a ``degradation`` ledger event, then recalibrates the
        field on the fallback (reason ``"degradation"``) so its rate
        model matches what will actually compress it from here on.
        """
        assert self.fallback_compressor is not None
        if telemetry.enabled():
            telemetry.get_registry().counter("resilience.degradations").inc()
        self._append(
            "degradation",
            snapshot=index,
            field=name,
            site=exc.site,
            attempts=exc.attempts,
            error=f"{type(exc.last).__name__}: {exc.last}",
            fallback=self.fallback_compressor.to_dict(),
        )
        self._calibrate_field(name, data, FieldReference(data), reason="degradation")

    def _process_field(
        self, index: int, redshift: float, name: str, data: np.ndarray
    ) -> StreamOutcome:
        with telemetry.get_tracer().span("stream.field", field=name, snapshot=index):
            return self._process_field_inner(index, redshift, name, data)

    def _process_field_inner(
        self, index: int, redshift: float, name: str, data: np.ndarray
    ) -> StreamOutcome:
        spec = self.spec_for(name)
        state = self.state
        ref: FieldReference | None = None
        if name not in state.fields:
            if self.recalibrate == "never":
                raise KeyError(f"field {name!r} was not calibrated")
            ref = FieldReference(data)
            self._calibrate_field(name, data, ref, reason="initial")
        elif self.recalibrate == "always" or name in state.pending:
            reason = "forced" if self.recalibrate == "always" else "drift"
            ref = FieldReference(data)
            self._calibrate_field(name, data, ref, reason=reason)
        fs = state.fields[name]
        eb_base, halo_params = fs.eb_base, fs.halo_params
        if ref is None and not self.warm_start:
            # Batch semantics: the rate model stays frozen but
            # the budget inversion re-derives from this snapshot's data
            # (the decision event is its record).
            ref = FieldReference(data)
            eb_base = derive_eb_budget(spec, ref)
            halo_params = derive_halo_params(spec, ref) if spec.halo_aware else None

        scale = state.scale
        eb_avg, halo = decision_inputs(eb_base, scale, halo_params)
        try:
            result = self._run_field(name, data, eb_avg, halo)
        except RetryExhaustedError as exc:
            if self.fallback_compressor is None:
                raise
            # Graceful degradation: quarantine the field onto the
            # conservative fallback compressor, recalibrate it there
            # (the recalibration ledger event carries the new model, so
            # replay stays bitwise), and compress this snapshot with it.
            # No decision/outcome events were appended for the failed
            # attempts — the ledger sees only what actually happened.
            self._degrade_field(index, name, data, exc)
            fs = state.fields[name]
            eb_base = fs.eb_base
            eb_avg, halo = decision_inputs(eb_base, scale, fs.halo_params)
            result = self._run_field(name, data, eb_avg, halo)

        feats = result.features
        self._append(
            "decision",
            snapshot=index,
            redshift=redshift,
            field=name,
            spec=(
                None
                if fs.compressor_spec is None
                else fs.compressor_spec.to_dict()
            ),
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

        stats = result.stats
        achieved = float(stats.overall_bit_rate)
        predicted = result.optimization.predicted_mean_bitrate
        residual = (
            math.log(achieved / predicted)
            if achieved > 0 and predicted > 0
            else None
        )

        quality_dev: float | None = None
        if self.check_quality:
            if ref is None:
                ref = FieldReference(data)
            # Only the deviation is recorded: no metric moments, no PSNR.
            quality_dev = spectrum_deviation(
                ref, result.reconstruct(self.decomposition), spec.spectrum_k_max
            )

        # The verdict comes from a scratch detector continuing the
        # field's window, so the outcome event can carry it; folding the
        # event is what advances the window.
        detector = state.detector(name)
        signal: DriftSignal | None = None
        if self.recalibrate == "drift":
            if residual is not None:
                signal = detector.update_rate(predicted, achieved)
            if signal is None and quality_dev is not None:
                signal = detector.update_quality(quality_dev, spec.spectrum_tolerance)

        self._append(
            "outcome",
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
        # The row is the one the fold just built; what only this process
        # has — the payloads, and the quality channel's margin ratio,
        # which the ledger does not record — is attached to it.
        outcome = self.report.outcomes[-1]
        outcome.result = result if self.retain_results else None
        outcome.drift_signal = signal
        self.report.timings.merge(result.timings)
        return outcome


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
