"""Append-only JSONL run ledger — the stream subsystem's persistent state.

Every consequential step of an :class:`~repro.stream.controller.
InSituController` run is appended as one JSON line with a monotonic
sequence id::

    {"seq": 0, "kind": "run_start",     "data": {...}}
    {"seq": 1, "kind": "calibration",   "data": {"field": ..., "exponent": ...}}
    {"seq": 2, "kind": "decision",      "data": {"ebs": [...], ...}}
    {"seq": 3, "kind": "outcome",       "data": {"compressed_bytes": ...}}
    {"seq": 4, "kind": "budget",        "data": {"scale_next": ...}}
    ...
    {"seq": n, "kind": "run_end",       "data": {...}}

Design rules:

- **Append-only.**  Events are flushed line by line as they happen; an
  interrupted run leaves a valid prefix.  Re-opening an existing ledger
  file continues the sequence (ids stay monotonic across process
  restarts).
- **Self-contained decisions.**  Every model parameter, feature vector
  and governor input that produced a decision is recorded, so the run
  state is a pure fold of the events (:mod:`repro.stream.state`) and
  :func:`repro.stream.controller.replay_ledger` reproduces the exact
  per-partition error bounds *without reading any field data*.  Floats
  survive the JSON round trip exactly (``json`` emits
  ``repr``-precision), which is what makes bitwise replay possible.
- **Dependency-free format.**  Plain JSON lines; numpy scalars/arrays
  are converted to Python numbers/lists on append.
- **Canonical bytes.**  Lines are written with sorted keys and compact
  separators so the serialized form of an event is a pure function of
  its content — the precondition for the planned hash-chained ledger.
  Reading tolerates any key order/whitespace, so ledgers written before
  canonicalization still load and replay byte-for-byte.
- **Crash-safe.**  Each append is flushed (and optionally ``fsync``-ed)
  as one line, so the only damage an interruption can cause is a torn
  *final* line.  ``RunLedger(path, recover=True)`` truncates such a
  tail back to the last valid prefix and records a ``recovery`` event;
  ``RunLedger.load(path, recover=True)`` is the read-only equivalent
  (reports the torn tail via ``recovered_tail`` without touching the
  file).  Damage anywhere else — a malformed or out-of-order line with
  valid lines after it — is corruption, not a crash artifact, and
  always raises.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.resilience.faults import TornWrite, fault_point

__all__ = [
    "EVENT_KINDS",
    "LEDGER_SCHEMA_VERSION",
    "LedgerError",
    "LedgerEvent",
    "RunLedger",
]

#: Schema version a ``run_start`` event records as ``data["schema"]``.
#: Version 1 (PR 4-era ledgers) predates the pluggable compressor
#: backbone and carries no ``schema`` key; version 2 adds ``selection``
#: events and compressor specs; version 3 adds the resilience vocabulary
#: (``recovery``, ``resume``, ``degradation``) and the block layout.
#: Every version still folds and replays byte-for-byte: what each
#: addition means is the reducer's business
#: (:func:`repro.stream.state.apply`; table in ``docs/resilience.md``).
LEDGER_SCHEMA_VERSION = 3

#: The event vocabulary, in the order a run emits them; the resilience
#: events (``recovery``, ``resume``, ``degradation``) can appear
#: anywhere.  What each kind records and does to the run state is one
#: table, next to the reducer that implements it: ``docs/resilience.md``.
EVENT_KINDS = (
    "run_start",
    "governor",
    "selection",
    "calibration",
    "recalibration",
    "decision",
    "outcome",
    "budget",
    "run_end",
    "recovery",
    "resume",
    "degradation",
)


class LedgerError(ValueError):
    """A malformed ledger file or an out-of-order append."""


def _jsonable(value: Any) -> Any:
    """Recursively convert numpy containers/scalars to plain JSON types."""
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"cannot serialize {type(value).__name__} into the ledger")


@dataclass(frozen=True)
class LedgerEvent:
    """One ledger line: a monotonic id, an event kind, and its payload."""

    seq: int
    kind: str
    data: dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> str:
        """Canonical serialization: sorted keys, compact separators.

        The byte layout is part of the ledger contract — the ROADMAP's
        hash-chain upgrade hashes these exact bytes, so a pure refactor
        must not be able to reorder them.  Reading is key-order
        agnostic (``json.loads``), which keeps pre-canonical ledgers
        (PR 4/5 era, ``{"seq": ..., "kind": ..., "data": ...}`` order
        with spaces) loading and replaying unchanged.
        """
        return json.dumps(
            {"seq": self.seq, "kind": self.kind, "data": self.data},
            sort_keys=True,
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, line: str) -> "LedgerEvent":
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise LedgerError(f"malformed ledger line: {line[:80]!r}") from exc
        if not isinstance(obj, dict) or "seq" not in obj or "kind" not in obj:
            raise LedgerError(f"ledger line missing seq/kind: {line[:80]!r}")
        if obj["kind"] not in EVENT_KINDS:
            raise LedgerError(f"unknown ledger event kind {obj['kind']!r}")
        return cls(seq=int(obj["seq"]), kind=str(obj["kind"]), data=obj.get("data", {}))


class RunLedger:
    """Append-only event log, optionally mirrored to a JSONL file.

    Parameters
    ----------
    path:
        JSONL file to append to.  ``None`` keeps the ledger in memory
        only (useful for tests and ephemeral runs).  If the file already
        holds events, they are loaded and the sequence continues after
        them — the append-only contract spans process restarts.
    recover:
        Tolerate a torn final line (the on-disk state an interrupted
        append leaves behind): truncate the file back to the last valid
        prefix, record what was dropped in ``recovered_tail``, and
        append a ``recovery`` event.  An undamaged file opens
        unchanged, so ``recover=True`` is idempotent.  Damage *before*
        the final line still raises — that is corruption a crash cannot
        produce.
    fsync:
        ``os.fsync`` after every appended line, extending the
        crash-safety guarantee from "process death" to "OS/power
        failure" at the cost of one disk sync per event.

    Examples
    --------
    >>> ledger = RunLedger()
    >>> ledger.append("run_start", n_snapshots=8).seq
    0
    >>> ledger.append("decision", field="temperature", ebs=[0.5, 0.25]).seq
    1
    >>> [e.kind for e in ledger.select("decision")]
    ['decision']
    """

    def __init__(
        self,
        path: str | os.PathLike | None = None,
        *,
        recover: bool = False,
        fsync: bool = False,
    ) -> None:
        self.path = Path(path) if path is not None else None
        self.events: list[LedgerEvent] = []
        self.fsync = bool(fsync)
        #: Set when ``recover=True`` truncated a torn tail: a dict with
        #: ``valid_events``, ``valid_bytes`` (the kept prefix length),
        #: ``truncated_bytes`` and a ``torn_line`` preview.
        self.recovered_tail: dict[str, Any] | None = None
        self._fh = None
        if self.path is None:
            return
        needs_newline = False
        if self.path.exists() and self.path.stat().st_size > 0:
            if recover:
                self.events, valid_bytes, self.recovered_tail = self._recover(
                    self.path
                )
                if self.recovered_tail is not None:
                    with open(self.path, "r+b") as raw:
                        raw.truncate(valid_bytes)
                        raw.flush()
                        os.fsync(raw.fileno())
            else:
                self.events = self._read_events(self.path)
            needs_newline = self._missing_final_newline(self.path)
        self._fh = open(self.path, "a", encoding="utf-8")
        if needs_newline:
            # A valid final line with the trailing "\n" lost: repair it
            # so the next append starts a fresh line instead of gluing.
            self._fh.write("\n")
            self._fh.flush()
        if self.recovered_tail is not None:
            self.append("recovery", **self.recovered_tail)

    # -- append side -----------------------------------------------------

    @property
    def next_seq(self) -> int:
        return self.events[-1].seq + 1 if self.events else 0

    def append(self, kind: str, **data: Any) -> LedgerEvent:
        """Record one event; assigns the next sequence id and flushes.

        The ``ledger.append`` fault point fires *before* the event is
        committed to memory or disk, so an injected crash/timeout leaves
        the ledger unchanged and a retried append reuses the same
        sequence id.  An injected :class:`~repro.resilience.faults.
        TornWrite` instead writes a deliberate partial line — the exact
        on-disk state a power cut mid-``write`` produces — and
        re-raises, for recovery tests.
        """
        if kind not in EVENT_KINDS:
            raise LedgerError(
                f"unknown event kind {kind!r}; expected one of {EVENT_KINDS}"
            )
        if self.path is not None and self._fh is None:
            # A closed (or load()-ed read-only) file-backed ledger must
            # not degrade to memory-only: events would silently be
            # missing from disk and a later replay would verify a
            # truncated run without noticing.
            raise LedgerError(
                f"ledger {self.path} is closed; re-open it with "
                "RunLedger(path) to continue appending"
            )
        event = LedgerEvent(seq=self.next_seq, kind=kind, data=_jsonable(data))
        line = event.to_json() + "\n"
        try:
            fault_point("ledger.append")
        except TornWrite as torn:
            if self._fh is not None:
                cut = max(0, min(len(line) - 1, int(len(line) * torn.fraction)))
                self._fh.write(line[:cut])
                self._flush()
            raise
        self.events.append(event)
        if self._fh is not None:
            self._fh.write(line)
            self._flush()
        return event

    def _flush(self) -> None:
        assert self._fh is not None
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "RunLedger":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:
        where = str(self.path) if self.path else "<memory>"
        return f"RunLedger({where!r}, n_events={len(self.events)})"

    # -- read side -------------------------------------------------------

    def select(self, kind: str) -> list[LedgerEvent]:
        """Events of one kind, in sequence order."""
        if kind not in EVENT_KINDS:
            raise LedgerError(f"unknown event kind {kind!r}")
        return [e for e in self.events if e.kind == kind]

    @staticmethod
    def _scan(path: Path) -> tuple[list[LedgerEvent], int, str | None]:
        """Parse ``path`` into ``(events, valid_bytes, torn_tail)``.

        ``valid_bytes`` is the length of the longest prefix of the file
        holding only complete, in-order events — the truncation target
        for recovery.  ``torn_tail`` is the unparseable final line (or
        ``None`` for an undamaged file).  A malformed or out-of-order
        line with valid lines *after* it is not a crash artifact — the
        append path writes and flushes one line at a time — so that
        still raises :class:`LedgerError`.
        """
        raw = path.read_bytes()
        events: list[LedgerEvent] = []
        valid_bytes = 0
        offset = 0
        lineno = 0
        n = len(raw)
        while offset < n:
            lineno += 1
            newline = raw.find(b"\n", offset)
            end = n if newline == -1 else newline + 1
            text = raw[offset:end].decode("utf-8", errors="replace").strip()
            if text:
                try:
                    event = LedgerEvent.from_json(text)
                except LedgerError:
                    if end != n:
                        raise
                    return events, valid_bytes, text
                if event.seq != len(events):
                    raise LedgerError(
                        f"{path}:{lineno}: sequence id {event.seq} breaks the "
                        f"monotonic order (expected {len(events)})"
                    )
                events.append(event)
            valid_bytes = end
            offset = end
        return events, valid_bytes, None

    @staticmethod
    def _recover(
        path: Path,
    ) -> tuple[list[LedgerEvent], int, dict[str, Any] | None]:
        """:meth:`_scan` plus the ``recovered_tail`` report of a torn
        final line (``None`` for an undamaged file); the file is left
        as it is."""
        size = path.stat().st_size
        events, valid_bytes, tail = RunLedger._scan(path)
        if tail is None:
            return events, valid_bytes, None
        return events, valid_bytes, {
            "valid_events": len(events),
            "valid_bytes": valid_bytes,
            "truncated_bytes": size - valid_bytes,
            "torn_line": tail[:120],
        }

    @staticmethod
    def _read_events(path: Path) -> list[LedgerEvent]:
        events, _, tail = RunLedger._scan(path)
        if tail is not None:
            raise LedgerError(
                f"{path}: torn final line {tail[:80]!r}; open with "
                "RunLedger(path, recover=True) to truncate it back to the "
                "last valid prefix"
            )
        return events

    @staticmethod
    def _missing_final_newline(path: Path) -> bool:
        with open(path, "rb") as raw:
            raw.seek(0, os.SEEK_END)
            if raw.tell() == 0:
                return False
            raw.seek(-1, os.SEEK_END)
            return raw.read(1) != b"\n"

    @classmethod
    def load(
        cls, path: str | os.PathLike, *, recover: bool = False
    ) -> "RunLedger":
        """Read a ledger file without opening it for appending.

        With ``recover=True`` a torn final line is tolerated *without
        modifying the file*: the valid prefix is loaded and the damage
        reported via ``recovered_tail`` — how ``repro.cli stream
        --replay`` reports the truncation point of a recovered ledger.
        """
        ledger = cls.__new__(cls)
        ledger.path = Path(path)
        ledger._fh = None
        ledger.fsync = False
        ledger.recovered_tail = None
        if recover:
            ledger.events, _, ledger.recovered_tail = cls._recover(ledger.path)
        else:
            ledger.events = cls._read_events(ledger.path)
        return ledger
