"""Typed errors shared across layers (a leaf module: imports nothing).

Lives below both :mod:`repro.compression` and :mod:`repro.resilience`
so read paths can raise a typed error without the compression layer
importing the resilience layer.
"""

from __future__ import annotations

__all__ = ["PayloadError", "IncompleteArchiveError"]


class PayloadError(ValueError):
    """Stored bytes failed validation on a read path.

    Raised by every decoder (entropy codecs, side channels, the block
    container) when a payload is truncated, extended, carries an unknown
    tag or does not inflate to exactly the size its header promises —
    instead of a bare ``zlib.error``/``ValueError`` or, worse, a silently
    wrong array.  :class:`repro.resilience.CorruptedPayloadError` derives
    from it, so ``except PayloadError`` covers injected and real
    corruption alike.
    """


class IncompleteArchiveError(PayloadError):
    """A file that is not a whole archive: empty, cut short, or without
    a zip signature.

    That is what a dump still being copied looks like, so a retry policy
    treats it as transient (:data:`repro.resilience.retry.
    DEFAULT_RETRYABLE`); damage inside a member of a whole archive stays
    a plain :class:`PayloadError` and is never retried.
    """
