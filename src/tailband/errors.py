"""Exception hierarchy.

Every error that reflects bad input or a refused regime derives from
TailbandError; the CLI maps these to exit code 2 with a one-line message.
Anything else escaping to the CLI is an internal error (exit code 1).
"""
from __future__ import annotations


class TailbandError(Exception):
    """Base class for domain and usage errors."""


class ParseError(TailbandError):
    def __init__(self, line_number: int, detail: str = ""):
        self.line_number = line_number
        msg = f"cannot parse line {line_number}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class NonFiniteValue(TailbandError):
    def __init__(self, line_number: int):
        self.line_number = line_number
        super().__init__(f"non-finite value on line {line_number}")


class TooFewObservations(TailbandError):
    pass


class EmptyExceedanceSet(TailbandError):
    pass


class NonPositiveOrderStatistic(TailbandError):
    pass


class BadK(TailbandError):
    pass


class DomainError(TailbandError):
    pass


class UntabulatedShape(DomainError):
    """A shape outside the range a table of band quantiles covers."""


class RegimeMismatch(TailbandError):
    pass


class RegimeBoundary(TailbandError):
    pass


class MeanDoesNotExist(TailbandError):
    pass


class WindowMismatch(TailbandError):
    pass


class ConvergenceFailure(TailbandError):
    pass
