"""Exception types shared across the package.

Everything derives from ValueError so callers that do not care about the
distinction can catch one base class.
"""

from __future__ import annotations


class InvalidVectorError(ValueError):
    """A vector literal or array is malformed (empty, non-1d, or non-finite)."""


class DimensionMismatchError(ValueError):
    """Two vectors that must share a dimension do not."""


class DegenerateInputError(ValueError):
    """Input is structurally valid but the operation is undefined on it.

    Examples: cosine of a zero vector, rank correlation of a constant
    sequence, a signed-rank test where every difference is zero.
    """


class BoundViolationError(ValueError):
    """A bound chain was constructed with values that break the ordering."""


class DatasetFormatError(ValueError):
    """A dataset file does not conform to its documented CSV schema.

    Carries the 1-based line number of the offending record when one exists.
    """

    def __init__(self, message: str, *, line: int | None = None):
        super().__init__(message)
        self.line = line


class CoverageMismatchError(ValueError):
    """Two methods under comparison do not cover the same (model, dataset) cells."""


# Every typed error above, for callers that report any of them the same way.
_TYPED_ERRORS = (
    InvalidVectorError,
    DimensionMismatchError,
    DegenerateInputError,
    BoundViolationError,
    DatasetFormatError,
    CoverageMismatchError,
)
