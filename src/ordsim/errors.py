"""Exception types shared across the package.

Every error ordsim raises for bad input or an undefined result derives
from ``OrdsimError``, itself a ValueError, so callers that do not care
about the distinction can catch one base class.
"""

from __future__ import annotations

__all__ = [
    "OrdsimError",
    "InvalidVectorError",
    "DimensionMismatchError",
    "DegenerateInputError",
    "BoundViolationError",
    "DatasetFormatError",
    "CoverageMismatchError",
]


class OrdsimError(ValueError):
    """Base of every typed ordsim error."""


class InvalidVectorError(OrdsimError):
    """A vector literal or array is malformed (empty, non-1d, or non-finite)."""


class DimensionMismatchError(OrdsimError):
    """Two vectors that must share a dimension do not."""


class DegenerateInputError(OrdsimError):
    """Input is structurally valid but the operation is undefined on it.

    Examples: cosine of a zero vector, rank correlation of a constant
    sequence, a signed-rank test where every difference is zero.
    """


class BoundViolationError(OrdsimError):
    """A bound chain was constructed with values that break the ordering."""


class DatasetFormatError(OrdsimError):
    """A dataset file does not conform to its documented CSV schema.

    Carries the 1-based line number of the offending record when one exists.
    """

    def __init__(self, message: str, *, line: int | None = None):
        super().__init__(message)
        self.line = line


class CoverageMismatchError(OrdsimError):
    """Two methods under comparison do not cover the same (model, dataset) cells."""

