"""Fractional ranking and Spearman rank correlation."""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from .errors import DegenerateInputError, InvalidVectorError

__all__ = ["average_ranks", "spearman_rho"]

SequenceLike = Union[Sequence[float], np.ndarray]


def _as_array(x: SequenceLike, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise InvalidVectorError(f"{name} must be 1-d, got shape {arr.shape}")
    if arr.size == 0:
        raise InvalidVectorError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise InvalidVectorError(f"{name} must contain only finite values")
    return arr


def average_ranks(x: SequenceLike) -> np.ndarray:
    """1-based ranks with ties assigned the average of their positions.

    The ranks of n values always sum to n(n+1)/2.  The sort need not be
    stable: every member of a group of equal values (``0.0`` and ``-0.0``
    included) gets the group's average rank, so the order of tied values
    within the sort changes no rank.  Without ties the ranks are the sorted
    positions 1..n; the group averages are built only when ties exist.
    """
    arr = _as_array(x, "x")
    n = arr.size
    order = np.argsort(arr)
    sorted_vals = arr[order]
    ties = sorted_vals[1:] == sorted_vals[:-1]
    if ties.any():
        boundaries = np.concatenate(([True], ~ties))
        starts = np.flatnonzero(boundaries)
        counts = np.diff(np.append(starts, n))
        # Group occupying 1-based positions start+1 .. start+count averages to
        # start + (count + 1) / 2.
        group_rank = starts + (counts + 1) / 2.0
        positions = group_rank[np.cumsum(boundaries) - 1]
    else:
        positions = np.arange(1.0, n + 1.0)
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = positions
    return ranks


def spearman_rho(x: SequenceLike, y: SequenceLike) -> float:
    """Spearman correlation: Pearson correlation of the fractional ranks.

    Handles ties exactly (no sum-of-squared-rank-differences shortcut).
    Requires n >= 2 and at least two distinct values on each side.
    """
    ax = _as_array(x, "x")
    ay = _as_array(y, "y")
    if ax.size != ay.size:
        raise DegenerateInputError(f"length mismatch: {ax.size} vs {ay.size}")
    if ax.size < 2:
        raise DegenerateInputError("spearman_rho requires at least 2 observations")
    return _rank_correlation(_centered_ranks(ax), _centered_ranks(ay))


def _centered_ranks(x: SequenceLike) -> tuple[np.ndarray, float]:
    """``average_ranks(x)`` minus their mean, and the sum of their squares.

    The mean of any n average ranks is exactly (n + 1) / 2.
    """
    r = average_ranks(x)
    dr = r - (r.size + 1) / 2.0
    return dr, float(np.dot(dr, dr))


def _rank_correlation(
    x: tuple[np.ndarray, float], y: tuple[np.ndarray, float]
) -> float:
    """Spearman's rho from the ``_centered_ranks`` of both sequences."""
    (dx, ssx), (dy, ssy) = x, y
    if ssx == 0.0 or ssy == 0.0:
        raise DegenerateInputError("spearman_rho is undefined for a constant sequence")
    rho = float(np.dot(dx, dy)) / float(np.sqrt(ssx * ssy))
    return float(min(1.0, max(-1.0, rho)))
