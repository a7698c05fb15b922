"""Exception types shared across the package."""


class GapembedError(Exception):
    """Base class for all package errors."""


class InputBoundsError(GapembedError, ValueError):
    """An index or length argument is outside the supported range."""


class OracleSizeError(GapembedError, ValueError):
    """Brute-force oracle guard tripped: instance too large for exhaustive search."""


class StructureError(GapembedError, ValueError):
    """A structural precondition failed; the message names the failing clause."""


class UnderpoweredError(GapembedError, ValueError):
    """A Monte Carlo estimator was requested with too few trials."""


class SequenceFormatError(GapembedError, ValueError):
    """A sequence file contained a byte other than '0', '1', or a trailing newline."""

    def __init__(self, message: str, offset: int):
        super().__init__(message)
        self.offset = offset
