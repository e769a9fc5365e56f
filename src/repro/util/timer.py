"""The repository's one clock.

Time is recorded as telemetry spans (:mod:`repro.telemetry`): the rank
loop's ``features``/``optimize``/``compress`` spans are the record the
paper's §4.3 overhead ratio is read from
(:func:`repro.telemetry.report.overhead_summary`).  Every span reads the
time through :func:`monotonic`, the only wall-clock read lint rule RL005
allows outside this module.
"""

from __future__ import annotations

import time

__all__ = ["monotonic"]


def monotonic() -> float:
    """The repo's one monotonic clock (seconds, arbitrary epoch).

    Every timestamp — each ``repro.telemetry`` span's start and end —
    comes from this function, so lint rule RL005 (wall-clock calls
    confined to ``util.timer``) stays authoritative over the whole stack.
    """
    return time.perf_counter()
