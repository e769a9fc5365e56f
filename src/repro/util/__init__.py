"""Shared utilities: RNG handling, timers, ascii tables, validation, thread
fan-out, and :mod:`repro.util.npz` (``.npz`` opened without pickle)."""

from repro.util.errors import PayloadError
from repro.util.fanout import thread_map, usable_cpus
from repro.util.rng import default_rng
from repro.util.timer import Timer, TimingBreakdown, monotonic
from repro.util.tables import format_table
from repro.util.validation import (
    check_3d,
    check_finite,
    check_positive,
)

__all__ = [
    "PayloadError",
    "thread_map",
    "usable_cpus",
    "default_rng",
    "Timer",
    "TimingBreakdown",
    "monotonic",
    "format_table",
    "check_3d",
    "check_finite",
    "check_positive",
]
