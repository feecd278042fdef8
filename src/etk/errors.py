"""Exception types shared across the toolkit.

An error raised in a worker process of any command reaches the parent by
pickle, so every type rebuilds from its constructor arguments.
"""
from __future__ import annotations


class EtkError(Exception):
    """Base class for all toolkit errors."""


class ParseError(EtkError):
    """A capture file could not be parsed.

    Carries enough location information to point an editor at the
    offending row.
    """

    def __init__(self, kind: str, line: int, byte_offset: int, message: str):
        self.kind = kind
        self.line = line
        self.byte_offset = byte_offset
        self.message = message
        super().__init__(f"{kind}: line {line} (byte {byte_offset}): {message}")

    def __reduce__(self):
        return type(self), (self.kind, self.line, self.byte_offset, self.message)


class AssemblyError(EtkError):
    """A parsed session failed validation; wraps the violation list."""

    def __init__(self, violations, message: str = "session failed validation"):
        self.violations = list(violations)
        self.message = message
        detail = "; ".join(str(v) for v in self.violations[:5])
        if len(self.violations) > 5:
            detail += f"; ... ({len(self.violations)} total)"
        super().__init__(f"{message}: {detail}" if detail else message)

    def __reduce__(self):
        return type(self), (self.violations, self.message)


class UnknownPlayer(EtkError):
    """Referenced player id never appears in the timeline."""


class InsufficientData(EtkError):
    """Too few samples to compute the requested statistic."""


class EmptyInput(EtkError):
    """An operation requiring a non-empty collection received an empty one."""


class EmptySupport(EtkError):
    """A time-normalized statistic was requested over zero total duration."""


class DegenerateData(EtkError):
    """Data has no spread; the requested decomposition is undefined."""


class DimensionMismatch(EtkError):
    """Vector length does not match the model dimension."""


class InvalidProfile(EtkError):
    """A synthetic cohort profile violates its constraints."""


class TooManyWindows(EtkError):
    """A rolling-window setting would place more than `zones.MAX_WINDOWS` windows."""
