"""Exception types shared across the library.

Every error that is part of an operation's contract has its own class so
callers can react precisely; all of them inherit from PosconesError.
"""

from __future__ import annotations

__all__ = [
    "PosconesError",
    "ParseError",
    "DivisionByZero",
    "DimensionMismatch",
    "Singular",
    "NotHermitian",
    "NotSymmetric",
    "NilOrdering",
    "OrderingNotInXTilde",
    "TaskError",
    "InternalInvariantViolation",
]


class PosconesError(Exception):
    """Base class for all library errors."""


class ParseError(PosconesError):
    """Malformed textual or JSON input."""


class DivisionByZero(PosconesError, ZeroDivisionError):
    """Exact division by the zero element."""


class DimensionMismatch(PosconesError):
    """Matrix or form dimensions are incompatible."""


class Singular(PosconesError):
    """A matrix or element required to be invertible is not."""


class NotHermitian(PosconesError):
    """Input matrix is not fixed by the conjugate-transpose involution."""


class NotSymmetric(PosconesError):
    """Element is not fixed by the algebra involution."""


class NilOrdering(PosconesError):
    """Operation requires an ordering at which signatures do not vanish."""


class OrderingNotInXTilde(PosconesError):
    """An ordering outside the admissible (non-nil) set was supplied."""


class TaskError(PosconesError):
    """A task in a problem file failed to execute."""


class InternalInvariantViolation(PosconesError):
    """An internal consistency check failed; indicates invalid input data
    (e.g. a descriptor that is not actually a division algebra) or a bug."""
