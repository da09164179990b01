"""Exception hierarchy shared across the package.

PreconditionError subclasses map to CLI exit code 1, ConsistencyError to
exit code 2.
"""


class BettiForgeError(Exception):
    pass


class PreconditionError(BettiForgeError, ValueError):
    """The input violates a documented precondition."""


class FieldMismatchError(PreconditionError):
    pass


class DimensionMismatchError(PreconditionError):
    pass


class NonHomogeneousError(PreconditionError):
    pass


class ParityError(PreconditionError):
    """A degree-parity precondition failed; message carries the failing sum."""

    def __init__(self, t):
        self.t = t
        super().__init__(f"parity violation: sum of (d_i - 1) = {t} must be odd")


class MinimalityError(PreconditionError):
    pass


class NonArtinianError(PreconditionError):
    pass


class UnitIdealError(PreconditionError):
    """The ideal is the unit ideal, so R/I = 0: generators with a nonzero
    constant, or a colon ideal whose dual generator vanished."""


class RetryExhausted(BettiForgeError):
    """Random draws kept degenerating past the retry bound."""


class ConsistencyError(BettiForgeError):
    """An internal cross-check failed (e.g. formula/oracle disagreement)."""
