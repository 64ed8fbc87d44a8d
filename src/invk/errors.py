"""Exception types shared across the package."""


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
