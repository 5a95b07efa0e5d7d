"""Exception hierarchy shared by all modules."""


class ThetaError(Exception):
    """Base class for every error raised by this package."""


class LevelError(ThetaError):
    """A candidate level matrix violates one of the admissibility conditions."""


class NotSymmetricError(LevelError):
    pass


class NotPositiveDefiniteError(LevelError):
    pass


class NotEvenError(LevelError):
    """Some diagonal entry is odd."""


class ZeroEntryError(LevelError):
    """Some entry is zero; admissible level matrices have all entries nonzero."""


class SingularMatrixError(ThetaError):
    pass


class NegativeEntryError(ThetaError):
    """A multi-index entry would become negative."""


class InvalidBinomError(ThetaError):
    """Entrywise binomial requested with lower index exceeding the upper one."""


class DimensionMismatchError(ThetaError):
    pass


class IndexOutOfRangeError(ThetaError):
    """Operator index outside 1..h / 1..g."""


class TruncationInsufficientError(ThetaError):
    """The certified tail bound at the given radius exceeds the requested tolerance."""


class RadiusUnachievableError(TruncationInsufficientError):
    """No radius up to the hard cap certifies the requested tail tolerance."""


class IllConditionedError(ThetaError):
    """Sample matrix condition number above the acceptance limit, even after resampling."""


class ResidualTooLargeError(ThetaError):
    """A holdout residual or coefficient bound over its tolerance, or a non-finite certificate or sample."""


class BudgetExceededError(ThetaError):
    """The requested enumeration is larger than its fixed budget."""


class LevelSumInvalidError(ThetaError):
    """Sum of two level matrices left the admissible set (zero entry)."""
