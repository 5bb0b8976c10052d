"""Exception types shared across the library."""


class LcivtError(Exception):
    """Base class for errors raised by this library."""


class TruncationError(LcivtError):
    """A query is not decided by the terms below the current truncation cutoff.

    Recoverable: redo the computation with a deeper cutoff.
    """


class CertificateError(LcivtError):
    """A convergence or valuation certificate cannot be established."""


class ResourceCapError(LcivtError):
    """An iteration or term-count cap was hit before the cutoff was reached."""


class UsageError(LcivtError):
    """A command line the CLI's argument parser rejects."""
