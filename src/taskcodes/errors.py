"""Exception types shared across the package."""


class TaskCodesError(Exception):
    """Base class for all errors raised by this package."""


class InvalidOrderError(TaskCodesError):
    """An entropy/divergence order (alpha or rho) is out of range."""


class CapExceededError(TaskCodesError):
    """An enumeration would exceed the tuple cap, or a type table cannot be allocated."""


class AlphabetMismatchError(TaskCodesError):
    """Two objects that must share an alphabet do not."""


class GroundSetMismatchError(TaskCodesError):
    """A partition and a budget refer to different ground sets."""


class DescriptionCountTooSmallError(TaskCodesError):
    """The description count M is at or below the log2|X| + 2 threshold."""


class RateTooSmallError(TaskCodesError):
    """floor(2^(nR)) is too small for the block length n."""


class AlphabetTooLargeError(TaskCodesError):
    """The alphabet is too large for exhaustive search."""


class SupportViolationError(TaskCodesError):
    """supp(P) is not contained in supp(Q) where containment is required."""
