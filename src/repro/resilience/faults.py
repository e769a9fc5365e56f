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
    plan.arm("backend.compress", kind="crash", at=0)   # first invocation
    with plan.activate():
        controller.run(stream)                          # fault fires

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

Invocation counters are per process and guarded by a lock, so fault
points reached from several threads still count one global schedule.
"""

from __future__ import annotations

import threading
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
    """One armed fault: where, what, and on which invocations."""

    site: str
    kind: str
    at: frozenset[int]
    fraction: float = 0.5  # torn writes: how much of the line survives

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
    test, and consulted by every :func:`fault_point` it encloses.  All
    mutation is lock-guarded so fault points reached from several
    threads count invocations consistently.
    """

    seed: int = 0
    _specs: dict[str, FaultSpec] = field(default_factory=dict)
    _counts: dict[str, int] = field(default_factory=dict)
    _fired: dict[str, int] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    # -- arming ----------------------------------------------------------

    def arm(
        self,
        site: str,
        kind: str = "crash",
        at: int | Iterable[int] = 0,
        *,
        fraction: float = 0.5,
    ) -> "FaultPlan":
        """Arm ``site`` to fail on the given 0-based invocation(s)."""
        invocations = frozenset([at] if isinstance(at, int) else at)
        self._specs[site] = FaultSpec(
            site=site, kind=kind, at=invocations, fraction=fraction
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
    ) -> "FaultPlan":
        """Arm ``site`` on a seeded random subset of the next ``horizon``
        invocations (each selected with probability ``rate``).

        The subset is a pure function of ``(self.seed, site, rate,
        horizon)`` via :func:`repro.util.rng.default_rng` — rerunning the
        same plan fires the same invocations.
        """
        if not 0.0 < rate <= 1.0:
            raise ValueError(f"rate must be in (0, 1], got {rate}")
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        import zlib

        rng = default_rng(
            (int(self.seed) & 0xFFFFFFFF) ^ zlib.crc32(site.encode("utf-8"))
        )
        draws = rng.random(horizon)
        chosen = frozenset(int(i) for i in range(horizon) if draws[i] < rate)
        if not chosen:
            # Deterministic fallback: an armed-but-never-firing plan is a
            # test that silently checks nothing.
            chosen = frozenset({int(rng.integers(horizon))})
        self._specs[site] = FaultSpec(site=site, kind=kind, at=chosen, fraction=fraction)
        return self

    def disarm(self, site: str) -> "FaultPlan":
        """Remove ``site``'s armed fault (invocation counts are kept)."""
        self._specs.pop(site, None)
        return self

    # -- introspection ---------------------------------------------------

    def invocations(self, site: str) -> int:
        """How many times ``site`` has been reached under this plan."""
        with self._lock:
            return self._counts.get(site, 0)

    def fired(self, site: str) -> int:
        """How many times ``site`` actually raised under this plan."""
        with self._lock:
            return self._fired.get(site, 0)

    def armed_at(self, site: str) -> frozenset[int]:
        spec = self._specs.get(site)
        return frozenset() if spec is None else spec.at

    # -- firing ----------------------------------------------------------

    def fire(self, site: str) -> None:
        """Count one invocation of ``site``; raise if it is armed for it."""
        spec = self._specs.get(site)
        with self._lock:
            invocation = self._counts.get(site, 0)
            self._counts[site] = invocation + 1
            hit = spec is not None and invocation in spec.at
            if hit:
                self._fired[site] = self._fired.get(site, 0) + 1
        if not hit:
            return
        assert spec is not None
        if spec.kind == "crash":
            raise InjectedCrash(f"injected crash at {site!r} (invocation {invocation})")
        if spec.kind == "timeout":
            raise InjectedTimeout(
                f"injected timeout at {site!r} (invocation {invocation})"
            )
        if spec.kind == "corrupt":
            raise CorruptedPayloadError(
                f"injected corrupted payload at {site!r} (invocation {invocation})"
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


def fault_point(site: str) -> None:
    """Declare a named fault point; raises only when a plan arms it.

    The disarmed cost is one global read and a ``None`` check —
    production call sites keep the hook unconditionally.
    """
    plan = _ACTIVE
    if plan is not None:
        plan.fire(site)
