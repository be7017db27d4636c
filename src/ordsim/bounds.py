"""The bound chain that underlies the metric hierarchy.

For any u, v of equal dimension:

    |u.v|  <=  rearrangement bound  <=  ||u|| ||v||  <=  (||u||^2 + ||v||^2) / 2

where the rearrangement bound is the largest |u.Pv| over all permutations P,
reached by sorting both vectors in the same direction (positive dot) or in
opposite directions (negative dot).  ``brute_force_rearrangement`` checks
this by enumerating permutations and is usable up to dimension 8.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import BoundViolationError, DegenerateInputError
from .metrics import VectorLike, _norm, _pair, _rearrangement

__all__ = [
    "BoundChain",
    "rearrangement_bound",
    "bound_chain",
    "brute_force_rearrangement",
]

_REL_TOL = 1e-9


@dataclass(frozen=True)
class BoundChain:
    """The four chain values for one vector pair, validated on construction.

    Each link must hold within 1e-9 relative tolerance (relative to
    ``max(1, |larger bound|)``).
    """

    abs_dot: float
    rearrangement: float
    cauchy_schwarz: float
    arithmetic_quadratic: float

    def __post_init__(self) -> None:
        # An ordered chain holds every link; only a chain that is not (or
        # holds NaN) is checked link by link against the tolerance.
        if self.abs_dot <= self.rearrangement <= self.cauchy_schwarz <= self.arithmetic_quadratic:
            return
        links = (
            ("abs_dot", self.abs_dot, "rearrangement", self.rearrangement),
            ("rearrangement", self.rearrangement, "cauchy_schwarz", self.cauchy_schwarz),
            ("cauchy_schwarz", self.cauchy_schwarz, "arithmetic_quadratic", self.arithmetic_quadratic),
        )
        for lo_name, lo, hi_name, hi in links:
            if lo > hi + _REL_TOL * max(1.0, abs(hi)):
                raise BoundViolationError(
                    f"bound ordering violated: {lo_name}={lo!r} > {hi_name}={hi!r}"
                )


def rearrangement_bound(u: VectorLike, v: VectorLike) -> float:
    """Largest |u.Pv| over permutations P, via one sort of each vector.

    For ``u.v > 0`` this is ``|sort_asc(u) . sort_asc(v)|``; for ``u.v < 0``
    it is ``|sort_asc(u) . sort_desc(v)|``; for ``u.v == 0`` the larger of
    the two.
    """
    return _rearrangement(*_pair(u, v))


def bound_chain(u: VectorLike, v: VectorLike) -> BoundChain:
    """Compute all four chain values from shared dot/norm/sort primitives."""
    a, b, d = _pair(u, v)
    na = _norm(a)
    nb = _norm(b)
    return BoundChain(
        abs_dot=abs(d),
        rearrangement=_rearrangement(a, b, d),
        cauchy_schwarz=na * nb,
        arithmetic_quadratic=0.5 * (na * na + nb * nb),
    )


def brute_force_rearrangement(u: VectorLike, v: VectorLike) -> float:
    """Rearrangement bound by exhaustive permutation, for dimension <= 8.

    Independent of the sort-based route: enumerates all d! orderings of v
    and takes the extreme dot product against u.
    """
    a, b, d = _pair(u, v)
    if a.size > 8:
        raise DegenerateInputError(f"brute force is limited to dimension <= 8, got {a.size}")
    perms = np.array(list(itertools.permutations(b.tolist())))
    prods = perms @ a
    if d > 0.0:
        return float(prods.max())
    if d < 0.0:
        return float(abs(prods.min()))
    return float(max(prods.max(), abs(prods.min())))
