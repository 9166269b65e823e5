"""Exception types shared across the package."""


class KronlabError(Exception):
    """Base class for package-specific failures."""


class ValidationError(KronlabError, ValueError):
    """An input outside what the called function accepts."""


class DescriptorError(ValidationError):
    """A frequency/target descriptor string could not be parsed."""


class PrecisionBudgetError(KronlabError):
    """A scan bound exceeds what the stored precision can certify."""


class RationalFrequencyError(KronlabError):
    """An operation that requires an irrational frequency hit a residual
    indistinguishable from zero at working precision."""


class WindowTooNarrowError(KronlabError):
    """A gap scan found fewer than two solutions in its window."""

    def __init__(self, message: str, found: int):
        super().__init__(message)
        self.found = found


class BudgetExceededError(KronlabError):
    """A scan or enumeration would exceed its declared point budget."""


class InsufficientDataError(KronlabError):
    """Not enough usable rows/scales to fit an estimate."""


class BoundUndefinedError(KronlabError):
    """The requested theoretical bound is outside its hypothesis."""
