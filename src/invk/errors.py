"""Exception types shared across the package, and the owner of its only
checks of input numbers: `finite`, `positive` and `integer`.  A number is a
finite real that is not a bool (a numeric string is none), a scale or a
tolerance is such a number > 0, and an integer parameter is an int."""

import math
import numbers


class InvkError(Exception):
    """Base class for all package errors."""


class RejectedInputError(InvkError, ValueError):
    """An argument violates an operation's precondition."""


class UnsupportedRegionError(RejectedInputError):
    """A parameter falls in a region the implementation deliberately excludes."""


class PoleError(RejectedInputError):
    """Evaluation requested exactly at a pole."""


class CapacityError(InvkError):
    """A bounded table or scan limit would be exceeded."""


class ConvergenceError(InvkError, ArithmeticError):
    """A series, quadrature, or extrapolation failed to reach its tolerance."""


class ParseError(RejectedInputError):
    """Malformed textual input; `position` is the offending character offset."""

    def __init__(self, message: str, position: int = 0):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position

    def __reduce__(self):
        # rebuild from the bare message; the inherited reduce would pass the
        # formatted one back to __init__ and format it a second time
        return type(self), (self.message, self.position), self.__dict__


def finite(name: str, v) -> float:
    """v as a float when it is a finite real number that is not a bool."""
    try:  # a float first: an isinstance test on an ABC costs ~0.6 us
        real = type(v) is float or isinstance(v, numbers.Real) and not isinstance(v, bool)
        if real and math.isfinite(v):
            return float(v)
    except OverflowError:  # an int or a Fraction past the doubles
        pass
    raise RejectedInputError(f"{name} must be a finite number, got {v!r}")


def positive(name: str, v, zero: bool = False) -> float:
    """v as a float when it is a finite number > 0, or >= 0 with `zero`."""
    fv = finite(name, v)
    if fv > 0.0 or (zero and fv == 0.0):
        return fv
    raise RejectedInputError(f"{name} must be {'>=' if zero else '>'} 0, got {v!r}")


def integer(name: str, v, least: "int | None" = None) -> int:
    """v as an int when it is an integer that is not a bool, and >= `least`."""
    exact = type(v) is int or isinstance(v, numbers.Integral) and not isinstance(v, bool)
    if exact and (least is None or v >= least):
        return int(v)
    bound = "" if least is None else f" >= {least}"
    raise RejectedInputError(f"{name} must be an integer{bound}, got {v!r}")
