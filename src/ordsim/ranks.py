"""Fractional ranking and Spearman rank correlation."""

from __future__ import annotations

import math
from typing import Sequence, Union

import numpy as np

from .errors import DegenerateInputError, InvalidVectorError, OrdsimError

__all__ = ["average_ranks", "spearman_rho"]

SequenceLike = Union[Sequence[float], np.ndarray]


def _as_array(values: SequenceLike, name: str, error: type[OrdsimError]) -> np.ndarray:
    # The one check of a sample in ranks and stats: a 1-d, non-empty, finite
    # float64 array (``values`` itself if it is one, so never write to it), or
    # ``error`` naming ``name``.  Complex input is refused before the cast drops
    # its imaginary part.
    try:
        if np.iscomplexobj(values):
            raise TypeError("complex values have no float64 value")
        arr = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"{name} must be numeric: {exc}") from None
    if arr.ndim != 1:
        raise error(f"{name} must be 1-d, got shape {arr.shape}")
    if arr.size == 0:
        raise error(f"{name} must be non-empty")
    if not np.isfinite(arr).all():
        raise error(f"{name} must be finite")
    return arr


def average_ranks(x: SequenceLike) -> np.ndarray:
    """1-based ranks with ties assigned the average of their positions.

    The ranks of n values always sum to n(n+1)/2.  The sort need not be
    stable: every member of a group of equal values (``0.0`` and ``-0.0``
    included) gets the group's average rank, so the order of tied values
    within the sort changes no rank.  Without ties the ranks are the sorted
    positions 1..n; the group averages are built only when ties exist.
    """
    arr = _as_array(x, "x", InvalidVectorError)
    order, centered = _sorted_centered_ranks(arr)
    ranks = np.empty(arr.size)
    ranks[order] = centered + (arr.size + 1) / 2.0
    return ranks


def spearman_rho(x: SequenceLike, y: SequenceLike) -> float:
    """Spearman correlation: Pearson correlation of the fractional ranks.

    Handles ties exactly (no sum-of-squared-rank-differences shortcut).
    Requires n >= 2 and at least two distinct values on each side.

    x's centered ranks stay in x's sorted order and y's are gathered into
    it, so the numerator is ``dx_sorted . dy[order]``.  Centered average
    ranks are multiples of 1/2, so every product and partial sum of both
    dot products is a multiple of 1/4, and by Cauchy-Schwarz no partial sum
    exceeds n^3/12 in magnitude: for n <= 2^18 that is below 2^51, so both
    sums are exact in any order of addition and rho is the same float as
    from ranks in row order.  Above that, rho is correct to within rounding.
    """
    ax = _as_array(x, "x", InvalidVectorError)
    ay = _as_array(y, "y", InvalidVectorError)
    if ax.size != ay.size:
        raise DegenerateInputError(f"length mismatch: {ax.size} vs {ay.size}")
    if ax.size < 2:
        raise DegenerateInputError("spearman_rho requires at least 2 observations")
    order = ax.argsort()
    return _sorted_rank_correlation(order, ax[order], _centered_ranks(ay))


def _sorted_centered_ranks(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(order, centered): ``np.argsort`` of a checked array (see
    ``_as_array``) and its ``_sorted_centered`` ranks."""
    order = arr.argsort()
    return order, _sorted_centered(arr[order])


def _sorted_centered(sorted_vals: np.ndarray, ties: np.ndarray | None = None) -> np.ndarray:
    """For each position of a sorted, finite, non-empty float64 array, its
    average rank minus the mean rank (n + 1) / 2, a multiple of 1/2.
    ``ties``, if given, is ``sorted_vals[1:] == sorted_vals[:-1]``."""
    n = sorted_vals.size
    if ties is None:
        ties = sorted_vals[1:] == sorted_vals[:-1]
    if np.count_nonzero(ties):
        boundaries = np.concatenate(([True], ~ties))
        starts = np.flatnonzero(boundaries)
        counts = np.diff(np.append(starts, n))
        # Group occupying 1-based positions start+1 .. start+count averages to
        # start + (count + 1) / 2.
        group_rank = starts + (counts + 1) / 2.0
        return (group_rank - (n + 1) / 2.0)[np.cumsum(boundaries) - 1]
    return _tie_free_centered(n)


def _tie_free_centered(n: int) -> np.ndarray:
    """The centered ranks of n sorted values without ties: position i, rank
    i + 1, is centered to i - (n - 1) / 2."""
    return np.arange(-(n - 1) / 2.0, (n + 1) / 2.0)


def _centered_ranks(arr: np.ndarray) -> tuple[np.ndarray, float]:
    """``average_ranks(arr)`` minus their mean, in row order, and the sum of
    their squares, for a checked array (see ``_as_array``)."""
    order, centered = _sorted_centered_ranks(arr)
    dr = np.empty(arr.size)
    dr[order] = centered
    return dr, float(np.dot(centered, centered))


def _sorted_rank_correlation(
    order: np.ndarray,
    ordered: np.ndarray,
    y: tuple[np.ndarray, float],
    tie_free: tuple[np.ndarray, float] | None = None,
) -> float:
    """Spearman's rho of x and y from x's ``argsort`` ``order``, its sorted
    values ``ordered`` (finite, n >= 2) and the ``_centered_ranks`` of y
    (see ``spearman_rho`` for its exactness).

    ``tie_free``, if given, is ``_tie_free_centered(n)`` and its sum of
    squares, kept by the caller: sorted values with no two neighbours equal
    take their centered ranks and sum of squares from it.  Otherwise, and
    always where ``tie_free`` is None, ``_sorted_centered`` builds them.
    """
    ties = ordered[1:] == ordered[:-1]
    if tie_free is None or np.count_nonzero(ties):
        dx = _sorted_centered(ordered, ties)
        ssx = float(dx.dot(dx))
    else:
        dx, ssx = tie_free
    dy, ssy = y
    if ssx == 0.0 or ssy == 0.0:
        raise DegenerateInputError("spearman_rho is undefined for a constant sequence")
    rho = float(dx.dot(dy[order])) / math.sqrt(ssx * ssy)
    return min(1.0, max(-1.0, rho))
