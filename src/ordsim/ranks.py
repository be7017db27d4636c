"""Fractional ranking and Spearman rank correlation."""

from __future__ import annotations

import math
from functools import cached_property
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

    y is ranked once (``_Ranked``) and its centered ranks kept in row order;
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
    return _Ranked(ay).rho(order, ax[order])


def _sorted_centered_ranks(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(order, centered): ``np.argsort`` of a checked array (see
    ``_as_array``) and its ``_sorted_centered`` ranks."""
    order = arr.argsort()
    sorted_vals = arr[order]
    return order, _sorted_centered(sorted_vals, sorted_vals[1:] == sorted_vals[:-1])


def _sorted_centered(sorted_vals: np.ndarray, ties: np.ndarray) -> np.ndarray:
    """For each position of a sorted, finite, non-empty float64 array, its
    average rank minus the mean rank (n + 1) / 2, a multiple of 1/2.
    ``ties`` is ``sorted_vals[1:] == sorted_vals[:-1]``."""
    n = sorted_vals.size
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


class _Ranked:
    """The fixed side y of Spearman correlations with other samples, for a
    checked array (see ``_as_array``): ``centered``, y's average ranks minus
    their mean in row order, and ``sum_sq``, their sum of squares.  The
    arrays it keeps are read-only."""

    def __init__(self, y: np.ndarray) -> None:
        order, centered = _sorted_centered_ranks(y)
        self.centered = np.empty(y.size)
        self.centered[order] = centered
        self.centered.setflags(write=False)
        self.sum_sq = float(np.dot(centered, centered))

    @cached_property
    def tie_free(self) -> tuple[np.ndarray, float]:
        """``_tie_free_centered(n)`` and its sum of squares: the centered
        ranks, in sorted order, of n values no two of which are equal."""
        positions = _tie_free_centered(self.centered.size)
        positions.setflags(write=False)
        return positions, float(positions.dot(positions))

    def rho(self, order: np.ndarray, ordered: np.ndarray) -> float:
        """Spearman's rho of x and y from x's ``argsort`` ``order`` and its
        sorted values ``ordered`` (finite, n >= 2; see ``spearman_rho`` for
        its exactness).  Sorted values with no two neighbours equal take
        their centered ranks and sum of squares from ``tie_free``; only tied
        ones build them."""
        ties = ordered[1:] == ordered[:-1]
        if np.count_nonzero(ties):
            dx = _sorted_centered(ordered, ties)
            ssx = float(dx.dot(dx))
        else:
            dx, ssx = self.tie_free
        if ssx == 0.0 or self.sum_sq == 0.0:
            raise DegenerateInputError("spearman_rho is undefined for a constant sequence")
        rho = float(dx.dot(self.centered[order])) / math.sqrt(ssx * self.sum_sq)
        return min(1.0, max(-1.0, rho))
