"""Exception types shared across the package."""


class EffridgeError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(EffridgeError, ValueError):
    """An argument violates a documented precondition."""


class DuplicateRowError(InvalidInputError):
    """Two dataset rows coincide within tolerance; the Gram matrix would be singular."""


class AtThresholdError(InvalidInputError):
    """Ridgeless limit requested exactly at the interpolation threshold (gamma = 1)."""


class InfeasibleTargetError(InvalidInputError):
    """Requested effective ridge lies below the ridgeless limit for this gamma."""


class NumericError(EffridgeError):
    """A numerical routine failed to converge or produced an invalid intermediate."""


class CsvParseError(InvalidInputError):
    """A CSV file does not conform to the documented schema.

    Carries the 1-based line number of the offending row when known.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
