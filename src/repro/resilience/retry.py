"""Retry with deterministic backoff and typed error classification.

A :class:`RetryPolicy` answers three questions, each deterministically:

- *Should this failure be retried?*  Only exceptions matching the
  policy's ``retryable`` types (by default the :class:`TransientError`
  marker, timeouts, OS-level errors and archives cut short).
  Everything else — a ``ValueError`` from bad inputs, a genuine bug —
  propagates immediately; retrying it would only mask the defect.
- *How long to wait?*  Exponential backoff with *seeded* jitter: the
  delay before retry ``k`` at call site ``s`` is a pure function of
  ``(policy.seed, s, k)``, drawn through :func:`repro.util.rng.
  default_rng` — two runs of the same chaos test back off identically.
- *When to give up?*  After ``max_attempts`` total attempts the policy
  raises :class:`RetryExhaustedError` (chaining the last failure) so
  callers can switch to a degradation path instead of looping forever.

The sleep itself is injectable (``sleep=``) so tests never block on
wall-clock time; the default is :func:`time.sleep`, which is allowed
*only here* — lint rule RL010 flags sleeps and hand-rolled retry loops
outside :mod:`repro.resilience`.
"""

from __future__ import annotations

import time
import zlib
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any, TypeVar

from repro import telemetry
from repro.util.errors import IncompleteArchiveError
from repro.util.rng import default_rng

__all__ = ["TransientError", "RetryExhaustedError", "RetryPolicy"]

T = TypeVar("T")

#: ``on_retry(site, attempt, exc, delay)`` of :meth:`RetryPolicy.execute`.
RetryHook = Callable[[str, int, BaseException, float], Any]


class TransientError(Exception):
    """Marker base for failures that are expected to succeed on retry.

    Raise (or subclass) it for conditions outside the program's control:
    a snapshot file mid-copy, a
    filesystem hiccup.  The injected-fault types in
    :mod:`repro.resilience.faults` subclass it so chaos tests exercise
    the same classification path production failures take.
    """


class RetryExhaustedError(Exception):
    """A retryable operation failed on every attempt of its budget.

    Attributes
    ----------
    site:
        The call-site label the retries were accounted against.
    attempts:
        Total attempts made (initial call included).
    last:
        The final attempt's exception (also chained as ``__cause__``).
    """

    def __init__(self, site: str, attempts: int, last: BaseException) -> None:
        super().__init__(
            f"{site}: all {attempts} attempt(s) failed; "
            f"last error: {type(last).__name__}: {last}"
        )
        self.site = site
        self.attempts = attempts
        self.last = last


#: Exception types retried when a policy does not override ``retryable``.
#: ``TimeoutError``/``OSError`` cover stalled collectives and transient
#: filesystem failures (``ConnectionError`` is an ``OSError`` subclass);
#: an :class:`~repro.util.errors.IncompleteArchiveError` is a snapshot
#: file read while it is still being copied.
DEFAULT_RETRYABLE: tuple[type[BaseException], ...] = (
    TransientError,
    TimeoutError,
    OSError,
    IncompleteArchiveError,
)


def _site_seed(seed: int, site: str) -> int:
    """Stable per-site jitter seed (crc32, not the salted ``hash()``)."""
    return (int(seed) & 0xFFFFFFFF) ^ zlib.crc32(site.encode("utf-8"))


@dataclass(frozen=True)
class RetryPolicy:
    """Deterministic exponential-backoff retry budget for one concern.

    Parameters
    ----------
    max_attempts:
        Total attempts (initial call included); ``1`` disables retrying
        while keeping the typed :class:`RetryExhaustedError` surface.
    base_delay / backoff / max_delay:
        Retry ``k`` (0-based) waits ``min(max_delay, base_delay *
        backoff**k)`` seconds before the jitter factor.
    jitter:
        Fractional jitter amplitude: each delay is scaled by a factor
        drawn uniformly from ``[1, 1 + jitter]``, seeded per call site —
        deterministic, yet de-synchronizing concurrent retriers.
    seed:
        Root seed of the jitter stream (combined with the site label).
    retryable:
        Exception types worth retrying; defaults to
        :data:`DEFAULT_RETRYABLE`.

    Examples
    --------
    >>> policy = RetryPolicy(max_attempts=3, base_delay=0.0)
    >>> calls = []
    >>> def flaky():
    ...     calls.append(1)
    ...     if len(calls) < 2:
    ...         raise TransientError("not yet")
    ...     return "ok"
    >>> policy.execute(flaky, site="doctest")
    'ok'
    >>> len(calls)
    2
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    backoff: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.25
    seed: int = 0
    retryable: tuple[type[BaseException], ...] = DEFAULT_RETRYABLE

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay < 0:
            raise ValueError(f"base_delay must be >= 0, got {self.base_delay}")
        if self.backoff < 1:
            raise ValueError(f"backoff must be >= 1, got {self.backoff}")
        if self.max_delay < 0:
            raise ValueError(f"max_delay must be >= 0, got {self.max_delay}")
        if self.jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {self.jitter}")

    # -- classification --------------------------------------------------

    def is_retryable(self, exc: BaseException) -> bool:
        """Whether ``exc`` is a transient failure under this policy."""
        return isinstance(exc, self.retryable)

    # -- deterministic schedule ------------------------------------------

    def delays(self, site: str) -> list[float]:
        """The full backoff schedule for ``site``: one delay per retry.

        A pure function of ``(seed, site)``: element ``k`` is the wait
        before retry ``k`` (so the list has ``max_attempts - 1``
        entries).  Exposed for tests and for documentation of the
        contract; :meth:`execute` consumes exactly this schedule.
        """
        rng = default_rng(_site_seed(self.seed, site))
        out = []
        for k in range(self.max_attempts - 1):
            raw = min(self.max_delay, self.base_delay * self.backoff**k)
            out.append(raw * (1.0 + self.jitter * float(rng.random())))
        return out

    # -- the loop --------------------------------------------------------

    def execute(
        self,
        fn: Callable[[], T],
        *,
        site: str,
        sleep: Callable[[float], Any] | None = None,
        on_retry: RetryHook | None = None,
    ) -> T:
        """Run ``fn`` under this policy's budget for call site ``site``.

        ``on_retry(site, attempt, exc, delay)`` is invoked before each
        backoff wait (``attempt`` is the 1-based attempt that just
        failed) — the hook the stream controller uses to account
        retries in its report.  ``sleep`` replaces :func:`time.sleep`
        (tests pass a recorder so nothing blocks).

        Raises
        ------
        RetryExhaustedError
            When every attempt failed with a retryable error; the last
            failure is chained as ``__cause__``.
        """
        wait = time.sleep if sleep is None else sleep
        schedule = self.delays(site)
        last: BaseException | None = None
        for attempt in range(1, self.max_attempts + 1):
            try:
                return fn()
            except BaseException as exc:
                if not self.is_retryable(exc):
                    raise
                last = exc
                if attempt == self.max_attempts:
                    break
                delay = schedule[attempt - 1]
                if telemetry.enabled():
                    telemetry.get_registry().counter(f"resilience.retries.{site}").inc()
                if on_retry is not None:
                    on_retry(site, attempt, exc, delay)
                if delay > 0:
                    wait(delay)
        assert last is not None
        raise RetryExhaustedError(site, self.max_attempts, last) from last
