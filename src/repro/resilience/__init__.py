"""repro.resilience — deterministic fault tolerance for the stream path.

The in-situ pipeline runs *inside* a long-lived simulation: a crashed
compression, a flaky snapshot load, or a torn ledger write must
not take the run down or silently corrupt provenance.  This package is
the substrate the execution and stream layers build on:

- :mod:`repro.resilience.faults` — seeded, exactly-reproducible fault
  injection.  Production code declares named *fault points*
  (``fault_point("backend.compress")``); a :class:`FaultPlan` arms them
  to raise crashes, timeouts, corrupted-payload errors, or torn ledger
  writes on chosen invocations, counted per ``(site, field)`` inside a
  stream field step.  Chaos tests replay bit-for-bit because
  every firing schedule is a pure function of the plan's seed and
  arming calls — never of global RNG state.
- :mod:`repro.resilience.retry` — :class:`RetryPolicy`: exponential
  backoff with *seeded* jitter (deterministic per call site), per-site
  attempt budgets, and typed retryable-error classification
  (:class:`TransientError` and friends retry; everything else
  propagates immediately).  Exhausted budgets raise
  :class:`RetryExhaustedError` so callers can degrade gracefully.

Everything else — the crash-safe ledger (:mod:`repro.stream.ledger`),
the controller's per-field retry,
:meth:`~repro.stream.controller.InSituController.resume`, and the
fallback-compressor degradation path — consumes these two primitives.

This package is also the *only* place `time.sleep` and retry loops are
allowed to live (lint rule RL010 flags hand-rolled retries elsewhere).
"""

from repro.resilience.faults import (
    CorruptedPayloadError,
    FaultPlan,
    FaultSpec,
    InjectedCrash,
    InjectedFault,
    InjectedTimeout,
    TornWrite,
    fault_point,
)
from repro.resilience.retry import (
    RetryExhaustedError,
    RetryPolicy,
    TransientError,
)

__all__ = [
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "InjectedCrash",
    "InjectedTimeout",
    "CorruptedPayloadError",
    "TornWrite",
    "fault_point",
    "RetryPolicy",
    "RetryExhaustedError",
    "TransientError",
]
