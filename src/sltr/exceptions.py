"""Exception types shared across the package."""


class SltrError(Exception):
    """Base class for errors raised by this package."""


class NumericalError(SltrError):
    """A dense linear-algebra routine failed (non-finite input, no convergence)."""


class DivergenceError(NumericalError):
    """Iterative solver diverged. Carries the iteration trace collected so far.

    Attributes
    ----------
    trace : list of the relative residuals of the sweeps run, one float per sweep
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = list(trace) if trace is not None else []


class FormatError(SltrError):
    """Malformed file. Carries the byte offset at which parsing failed."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset
