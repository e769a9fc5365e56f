"""Deterministic fault injection: seeded chaos the tests can replay.

Production code declares *fault points* — named places where the real
world can fail::

    fault_point("backend.compress")   # before compressing a snapshot
    fault_point("ledger.append")      # before writing a ledger line
    fault_point("source.load")        # before loading a snapshot

A disarmed fault point is one module-global read (no plan installed →
return immediately), so the hooks stay in production builds.  A chaos
test arms a :class:`FaultPlan`::

    plan = FaultPlan(seed=7)
    plan.arm("backend.compress", kind="crash", at=0, field="temperature")
    with plan.activate():
        controller.run(stream)   # temperature's first compression fails

Everything about the firing schedule is a pure function of the plan's
seed and arming calls — :meth:`FaultPlan.arm_random` draws invocation
indices through :func:`repro.util.rng.default_rng`, never the global
RNG — so a failing chaos run reproduces exactly from its seed.

Fault kinds map to the failure modes the stream path must survive:

===========  ==============================================================
``crash``    raise :class:`InjectedCrash` (a retryable transient failure —
             the operation died, it can be re-run)
``timeout``  raise :class:`InjectedTimeout` (``TimeoutError`` subclass)
``corrupt``  raise :class:`CorruptedPayloadError` (payload failed
             verification; re-reading / re-compressing may fix it)
``torn``     raise :class:`TornWrite` — the ledger's append path catches
             it, writes a *partial* line, and re-raises: the on-disk
             state a power cut mid-``write`` leaves behind
===========  ==============================================================

Fault addressing is per ``(site, field, invocation)``.  A fault point
reached inside a stream field step counts its invocations per
``(site, field)``: the controller names the field with
:func:`field_scope` (a :mod:`contextvars` variable), and
``arm(..., field=name)`` addresses that count.  So a schedule names the
field it hits and fires on the same attempt whichever other fields the
run streams.  A site reached outside a field step
(``ledger.append``, ``source.load``, a direct
:meth:`~repro.core.pipeline.AdaptiveCompressionPipeline.run`) counts under
``field=None``, one schedule for the process.  Counters are guarded by
a lock.
"""

from __future__ import annotations

import contextvars
import threading
import zlib
from collections.abc import Iterable
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.resilience.retry import TransientError
from repro.util.errors import PayloadError
from repro.util.rng import default_rng

__all__ = [
    "InjectedFault",
    "InjectedCrash",
    "InjectedTimeout",
    "CorruptedPayloadError",
    "TornWrite",
    "FaultSpec",
    "FaultPlan",
    "fault_point",
    "field_scope",
]


class InjectedFault(Exception):
    """Base of every exception the fault machinery raises on purpose."""


class InjectedCrash(InjectedFault, TransientError):
    """An armed ``crash`` fault: the operation died mid-flight.

    Subclasses :class:`~repro.resilience.retry.TransientError`, so the
    default :class:`~repro.resilience.retry.RetryPolicy` classification
    retries it — the point of injecting it is to exercise that path.
    """


class InjectedTimeout(InjectedFault, TimeoutError):
    """An armed ``timeout`` fault: the operation never came back."""


class CorruptedPayloadError(InjectedFault, TransientError, PayloadError):
    """An armed ``corrupt`` fault: the produced bytes failed verification.

    Derives from :class:`repro.util.errors.PayloadError`, the error every
    decoder raises for bytes that fail validation, so one ``except``
    clause covers injected and real corruption.
    """


class TornWrite(InjectedFault):
    """An armed ``torn`` fault: a write was cut mid-line.

    Deliberately *not* transient: retrying a torn append would duplicate
    the event; the correct response is crash-safe recovery
    (:meth:`repro.stream.ledger.RunLedger` with ``recover=True``).

    ``fraction`` is how much of the line lands on disk before the cut.
    """

    def __init__(self, site: str, fraction: float = 0.5) -> None:
        super().__init__(f"torn write injected at {site!r} (fraction={fraction})")
        self.fraction = float(fraction)


_KINDS = ("crash", "timeout", "corrupt", "torn")


@dataclass(frozen=True)
class FaultSpec:
    """One armed fault: where (the site, and the field step it is
    reached in, ``None`` outside one), what, and on which invocations."""

    site: str
    kind: str
    at: frozenset[int]
    fraction: float = 0.5  # torn writes: how much of the line survives
    field: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; expected {_KINDS}")
        if not self.at:
            raise ValueError(f"fault at {self.site!r} armed with no invocations")
        if any(i < 0 for i in self.at):
            raise ValueError("invocation indices must be >= 0")
        if not 0.0 <= self.fraction < 1.0:
            raise ValueError(f"fraction must be in [0, 1), got {self.fraction}")


@dataclass
class FaultPlan:
    """A seeded, exactly-reproducible schedule of armed faults.

    One plan instance is armed by tests, activated around the code under
    test, and consulted by every :func:`fault_point` it encloses.  Specs
    and counts are keyed by ``(site, field)``; all mutation is
    lock-guarded so fault points reached from several threads count
    invocations consistently.
    """

    seed: int = 0
    _specs: dict[tuple[str, str | None], FaultSpec] = field(default_factory=dict)
    _counts: dict[tuple[str, str | None], int] = field(default_factory=dict)
    _fired: dict[tuple[str, str | None], int] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    # -- arming ----------------------------------------------------------

    def arm(
        self,
        site: str,
        kind: str = "crash",
        at: int | Iterable[int] = 0,
        *,
        fraction: float = 0.5,
        field: str | None = None,
    ) -> "FaultPlan":
        """Arm ``site`` to fail on the given 0-based invocation(s) of it
        inside ``field``'s steps (``None``: outside any field step)."""
        invocations = frozenset([at] if isinstance(at, int) else at)
        self._specs[site, field] = FaultSpec(
            site=site, kind=kind, at=invocations, fraction=fraction, field=field
        )
        return self

    def arm_random(
        self,
        site: str,
        kind: str = "crash",
        *,
        rate: float,
        horizon: int,
        fraction: float = 0.5,
        field: str | None = None,
    ) -> "FaultPlan":
        """Arm ``site`` (in ``field``'s steps, as :meth:`arm`) on a seeded
        random subset of the next ``horizon`` invocations (each selected
        with probability ``rate``).

        The subset is a pure function of ``(self.seed, site, field, rate,
        horizon)`` via :func:`repro.util.rng.default_rng` — rerunning the
        same plan fires the same invocations.
        """
        if not 0.0 < rate <= 1.0:
            raise ValueError(f"rate must be in (0, 1], got {rate}")
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        label = site if field is None else f"{site}@{field}"
        rng = default_rng(
            (int(self.seed) & 0xFFFFFFFF) ^ zlib.crc32(label.encode("utf-8"))
        )
        draws = rng.random(horizon)
        chosen = frozenset(int(i) for i in range(horizon) if draws[i] < rate)
        if not chosen:
            # Deterministic fallback: an armed-but-never-firing plan is a
            # test that silently checks nothing.
            chosen = frozenset({int(rng.integers(horizon))})
        self._specs[site, field] = FaultSpec(
            site=site, kind=kind, at=chosen, fraction=fraction, field=field
        )
        return self

    def disarm(self, site: str, field: str | None = None) -> "FaultPlan":
        """Remove ``site``'s armed fault (invocation counts are kept)."""
        self._specs.pop((site, field), None)
        return self

    # -- introspection ---------------------------------------------------

    def invocations(self, site: str, field: str | None = None) -> int:
        """How many times ``site`` has been reached under this plan in
        ``field``'s steps (``None``: outside any field step)."""
        with self._lock:
            return self._counts.get((site, field), 0)

    def fired(self, site: str, field: str | None = None) -> int:
        """How many of those invocations actually raised."""
        with self._lock:
            return self._fired.get((site, field), 0)

    def armed_at(self, site: str, field: str | None = None) -> frozenset[int]:
        spec = self._specs.get((site, field))
        return frozenset() if spec is None else spec.at

    # -- firing ----------------------------------------------------------

    def fire(self, site: str) -> None:
        """Count one invocation of ``site`` in the current field step (or
        outside any); raise if it is armed for it."""
        key = (site, _FIELD.get())
        spec = self._specs.get(key)
        with self._lock:
            invocation = self._counts.get(key, 0)
            self._counts[key] = invocation + 1
            hit = spec is not None and invocation in spec.at
            if hit:
                self._fired[key] = self._fired.get(key, 0) + 1
        if not hit:
            return
        assert spec is not None
        where = repr(site) if spec.field is None else f"{site!r} in field {spec.field!r}"
        if spec.kind == "crash":
            raise InjectedCrash(f"injected crash at {where} (invocation {invocation})")
        if spec.kind == "timeout":
            raise InjectedTimeout(f"injected timeout at {where} (invocation {invocation})")
        if spec.kind == "corrupt":
            raise CorruptedPayloadError(
                f"injected corrupted payload at {where} (invocation {invocation})"
            )
        raise TornWrite(site, fraction=spec.fraction)

    # -- activation ------------------------------------------------------

    def install(self) -> None:
        """Make this plan the process-wide active plan."""
        global _ACTIVE
        _ACTIVE = self

    def deactivate(self) -> None:
        global _ACTIVE
        if _ACTIVE is self:
            _ACTIVE = None

    @contextmanager
    def activate(self):
        """Install the plan for the duration of a ``with`` block."""
        self.install()
        try:
            yield self
        finally:
            self.deactivate()


#: The process-wide active plan (``None`` = every fault point disarmed).
_ACTIVE: FaultPlan | None = None

#: The field whose step is running in this context (``None`` outside one).
_FIELD: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "repro.resilience.field", default=None
)


@contextmanager
def field_scope(name: str):
    """Count the fault points reached in this block under field ``name``
    (the stream controller wraps each field step in one)."""
    token = _FIELD.set(name)
    try:
        yield
    finally:
        _FIELD.reset(token)


def fault_point(site: str) -> None:
    """Declare a named fault point; raises only when a plan arms it.

    The disarmed cost is one global read and a ``None`` check —
    production call sites keep the hook unconditionally.
    """
    plan = _ACTIVE
    if plan is not None:
        plan.fire(site)
