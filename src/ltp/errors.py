"""Exception types shared across the toolkit."""


class LtpError(Exception):
    """Base class for every toolkit error."""


class SpecParseError(LtpError):
    """A group or function descriptor string does not parse."""


class ResourceError(LtpError):
    """A requested construction exceeds a configured size cap."""


class ModelMismatchError(LtpError):
    """Operands live on different group models."""


class WindowLeakError(LtpError):
    """Too much mass escapes a truncated carrier window.

    The offending leak fraction is attached as ``.leak``.
    """

    def __init__(self, message: str, leak: float = 0.0):
        super().__init__(message)
        self.leak = float(leak)


class DomainError(LtpError):
    """An operation was applied to a function outside its domain (e.g. a
    positive-part of a non-real function)."""


class NotAbelianError(LtpError):
    """A dual-group construction was requested for a model that is not a
    declared product of cyclic groups."""


class NotPositiveError(LtpError):
    """A positivity-only statement was evaluated on a non-positive function."""


class WindowTooSmall(LtpError):
    """A required construction does not fit inside the truncation window."""
