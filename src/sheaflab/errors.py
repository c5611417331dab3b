"""Shared exception types."""


class DataError(Exception):
    """Malformed or inconsistent dataset files / records."""


class GuardError(Exception):
    """Numerical precondition or size-guard violation.

    When the training-loss guard fires, `history` holds the finished epochs.
    """

    history: dict | None = None
