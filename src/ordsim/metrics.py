"""Similarity metrics over dense real vectors.

The central metric, ``recos``, normalizes the dot product by the largest
magnitude the dot product could reach under any permutation of one operand's
components: ``u.v / |sort_asc(u) . sort(v)|``, where ``v`` is sorted in the
same direction as ``u`` when ``u.v > 0`` and the opposite direction when
``u.v < 0``.  Siblings ``cosine``, ``decos`` and ``tanimoto`` normalize the
same numerator by the Cauchy-Schwarz, arithmetic-mean and union-style
denominators.  All four share sign and symmetry; the ordinal predicates at
the bottom of the module characterize when ``recos`` saturates at +/-1.

Pair functions take their arrays and their dot u.v from ``_pair``.  A finite
dot certifies that every component is finite, so a clean pair is never
scanned for inf or NaN; any other pair gets ``_vector``'s full check of each
operand, in argument order, and raises what that check raises.  The scalar
kernels call ndarray methods (``a.dot(b)``, ``a.sort()`` on a copy) rather
than ``np.dot`` and ``np.sort``: the same computation, without numpy's
``__array_function__`` dispatch on every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterator, Sequence, Union

import numpy as np

from .errors import DegenerateInputError, DimensionMismatchError, InvalidVectorError

__all__ = [
    "DenseVector",
    "MetricKind",
    "VectorLike",
    "dot",
    "norm",
    "recos",
    "cosine",
    "decos",
    "tanimoto",
    "decos_from_tanimoto",
    "similarity",
    "is_similarly_ordered",
    "is_oppositely_ordered",
]

# Substituted for a sorted-product denominator that is exactly zero while
# u.v is not.  In exact arithmetic |u.v| <= the sorted product, but the two
# sums round apart: in recos([1e16, -1e16, 1.0], [1.0, 1.0, 1.0]) u.v is 1.0
# and the sorted product cancels to 0.0, so this guard decides the value.
# That value can be wrong: scaled to u = [1e-4, -1e-4, 1e-20], recos gives
# 0.738 where the true value is 1.
_ZERO_DENOMINATOR_GUARD = 1e-6


@dataclass(frozen=True, eq=False)
class DenseVector:
    """An immutable finite real vector of dimension >= 1.

    Components are held as a read-only float64 copy of the input, checked
    as every metric checks a plain array or sequence (see ``_vector``), so
    wrapping is optional: it validates once and freezes the result.
    """

    components: np.ndarray

    def __post_init__(self) -> None:
        arr = _vector(self.components).copy()
        arr.setflags(write=False)
        object.__setattr__(self, "components", arr)

    @property
    def dim(self) -> int:
        return int(self.components.size)

    def __len__(self) -> int:
        return self.dim

    def __iter__(self) -> Iterator[float]:
        return iter(float(x) for x in self.components)

    def __getitem__(self, index: int) -> float:
        return float(self.components[index])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DenseVector):
            return NotImplemented
        return np.array_equal(self.components, other.components)

    def __hash__(self) -> int:
        # Adding 0.0 turns -0.0 into 0.0, which == counts as equal to it.
        return hash((self.components + 0.0).tobytes())

    def __repr__(self) -> str:
        return f"DenseVector({self.components.tolist()!r})"


VectorLike = Union[DenseVector, Sequence[float], np.ndarray]


def _vector(value: VectorLike) -> np.ndarray:
    # A checked C-contiguous float64 array, ``value`` itself if it is one, so
    # never write to it.  ndim is checked before ascontiguousarray makes 0-d
    # input 1-d; contiguity keeps np.dot on the BLAS path and rounding of a copy.
    # The one check of a single operand: DenseVector, norm and _pair's fallback.
    if isinstance(value, DenseVector):
        return value.components
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InvalidVectorError(f"not a numeric vector: {exc}") from exc
    if arr.ndim != 1:
        raise InvalidVectorError(f"expected a 1-d vector, got shape {arr.shape}")
    if arr.size == 0:
        raise InvalidVectorError("vector must have at least one component")
    if not np.isfinite(arr).all():
        raise InvalidVectorError("vector components must be finite")
    return np.ascontiguousarray(arr)


class MetricKind(str, Enum):
    """Names of the four similarity metrics, as accepted by the CLI."""

    RECOS = "recos"
    COS = "cos"
    DECOS = "decos"
    TANIMOTO = "tanimoto"


def _operand(value: VectorLike) -> np.ndarray:
    # ``_vector``'s conversion without its checks, for ``_pair``'s fast path.
    if isinstance(value, DenseVector):
        return value.components
    arr = np.asarray(value, dtype=np.float64)
    return np.ascontiguousarray(arr) if arr.ndim == 1 else arr


def _pair(u: VectorLike, v: VectorLike) -> tuple[np.ndarray, np.ndarray, float]:
    # Checked arrays of equal size and their dot d = a.b, which every pair
    # function needs.  A finite d certifies both operands: an inf or NaN
    # component makes its product, and so the sum, inf or NaN.  If any step
    # of the fast path fails or d is not finite, the full checks run in order;
    # if they pass, the fast path's d is the dot of the same arrays.
    d = None
    try:
        a, b = _operand(u), _operand(v)
        if a.ndim == b.ndim == 1 and a.size == b.size > 0:
            d = float(a.dot(b))
            if math.isfinite(d):
                return a, b, d
    except Exception:  # whatever failed, the full checks below raise the typed error
        pass
    a, b = _vector(u), _vector(v)
    if a.size != b.size:
        raise DimensionMismatchError(f"dimension mismatch: {a.size} vs {b.size}")
    return a, b, float(a.dot(b)) if d is None else d


def _clip_unit(x: float) -> float:
    # Rounding can push a quotient a few ulps past its mathematical range.
    return float(min(1.0, max(-1.0, x)))


def dot(u: VectorLike, v: VectorLike) -> float:
    """Dot product in float64."""
    return _pair(u, v)[2]


def norm(u: VectorLike) -> float:
    """Euclidean norm in float64.

    Falls back to a rescaled computation when the direct one underflows to
    zero on a nonzero input (all-subnormal components).
    """
    return _norm(_vector(u))


def _norm(a: np.ndarray) -> float:
    # ``norm`` on a validated array: np.linalg.norm's value, sqrt(a.dot(a)).
    n = math.sqrt(float(a.dot(a)))
    if n == 0.0 and (a != 0.0).any():
        scale = float(abs(a).max())
        n = scale * _norm(a / scale)
    return n


def _rearrangement(a: np.ndarray, b: np.ndarray, d: float) -> float:
    # ``bounds.rearrangement_bound`` of checked arrays whose dot d = a.b is known.
    sa = a.copy()
    sa.sort()
    sb = b.copy()
    sb.sort()
    if d > 0.0:
        return abs(float(sa.dot(sb)))
    opposite = abs(float(sa.dot(sb[::-1])))
    if d < 0.0:
        return opposite
    return max(abs(float(sa.dot(sb))), opposite)


def recos(u: VectorLike, v: VectorLike) -> float:
    """Rearrangement-normalized similarity in [-1, 1].

    ``u.v / |sort_asc(u) . sort_asc(v)|`` when ``u.v > 0``,
    ``u.v / |sort_asc(u) . sort_desc(v)|`` when ``u.v < 0``,
    and exactly 0 when ``u.v == 0``.
    """
    a, b, d = _pair(u, v)
    if d == 0.0:
        return 0.0
    den = _rearrangement(a, b, d)
    if den == 0.0:  # cancellation in the sorted product; see the guard
        den = _ZERO_DENOMINATOR_GUARD
    return _clip_unit(d / den)


def cosine(u: VectorLike, v: VectorLike) -> float:
    """Cosine similarity in [-1, 1].  Rejects zero vectors."""
    a, b, d = _pair(u, v)
    na = _norm(a)
    nb = _norm(b)
    if na == 0.0 or nb == 0.0:
        raise DegenerateInputError("cosine is undefined for a zero vector")
    return _clip_unit(d / (na * nb))


def decos(u: VectorLike, v: VectorLike) -> float:
    """Dot product over the mean of the squared norms, in [-1, 1].

    Defined whenever at least one vector is nonzero.
    """
    a, b, d = _pair(u, v)
    sq = float(a.dot(a)) + float(b.dot(b))
    if sq == 0.0:
        raise DegenerateInputError("decos is undefined when both vectors are zero")
    return _clip_unit(d / (0.5 * sq))


def tanimoto(u: VectorLike, v: VectorLike) -> float:
    """Continuous Tanimoto coefficient ``u.v / (|u|^2 + |v|^2 - u.v)``.

    Not clipped: the value can fall below -1 (down to -1/3) for strongly
    opposed vectors.  The denominator vanishes only when both vectors are
    zero, which is rejected.
    """
    a, b, d = _pair(u, v)
    den = float(a.dot(a)) + float(b.dot(b)) - d
    if den == 0.0:
        raise DegenerateInputError("tanimoto is undefined when both vectors are zero")
    return d / den


def decos_from_tanimoto(t: float) -> float:
    """Map a Tanimoto value in [0, 1] to the equivalent decos value, 2t/(1+t)."""
    t = float(t)
    if not (0.0 <= t <= 1.0):
        raise DegenerateInputError(f"tanimoto value outside [0, 1]: {t!r}")
    return 2.0 * t / (1.0 + t)


_METRIC_FUNCS = {
    MetricKind.RECOS: recos,
    MetricKind.COS: cosine,
    MetricKind.DECOS: decos,
    MetricKind.TANIMOTO: tanimoto,
}


def similarity(kind: MetricKind | str, u: VectorLike, v: VectorLike) -> float:
    """Dispatch to one of the four metrics by kind."""
    return _METRIC_FUNCS[MetricKind(kind)](u, v)


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # A (n,1,d) @ (n,d,1) matmul makes one BLAS dot call per row, the call
    # np.dot makes for one pair, so every value is bit-identical to it.
    # einsum and (a * b).sum(axis=1) add the products in another order.
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _frozen(values: np.ndarray) -> np.ndarray:
    values.setflags(write=False)
    return values


# Rows sorted per pass in ``_RowValues.sorted_dots``.  It caps the two
# sorted (rows, dim) copies recos makes, whatever the dataset's size.
_BLOCK_ROWS = 64


class _RowValues:
    """u.v, the pair (|u|^2, |v|^2) and recos' sorted dot of each row pair
    u_i, v_i of two (n, d) arrays that must never change.  Each is computed
    by ``_row_dots``, as the scalar metric's dot, on first use by a kind
    whose formula reads it, and kept read-only; overflow does not warn."""

    def __init__(self, U: np.ndarray, V: np.ndarray) -> None:
        self._U, self._V = U, V

    @cached_property
    @np.errstate(all="ignore")
    def dots(self) -> np.ndarray:
        return _frozen(_row_dots(self._U, self._V))

    @cached_property
    @np.errstate(all="ignore")
    def squared_norms(self) -> tuple[np.ndarray, np.ndarray]:
        return _frozen(_row_dots(self._U, self._U)), _frozen(_row_dots(self._V, self._V))

    @cached_property
    @np.errstate(all="ignore")
    def sorted_dots(self) -> np.ndarray:
        """``sort_asc(u) . sort(v)`` per row, ``v`` descending where u.v < 0.
        The sorted copies are made one block of rows at a time and never
        kept, since together they take as much memory as the arrays."""
        d = self.dots
        out = np.empty(d.size)
        for start in range(0, d.size, _BLOCK_ROWS):
            rows = slice(start, start + _BLOCK_ROWS)
            sa = np.sort(self._U[rows], axis=1)
            sb = np.sort(self._V[rows], axis=1)
            neg = d[rows] < 0.0
            # A contiguous reversed copy: np.dot copies a reversed view the same way.
            sb[neg] = sb[neg, ::-1]
            out[rows] = _row_dots(sa, sb)
        return _frozen(out)

    @np.errstate(all="ignore")
    def similarities(self, kind: MetricKind) -> tuple[np.ndarray, np.ndarray]:
        """``similarity(kind, u_i, v_i)`` for every row i, bit for bit, with
        the scalar metric's float operations in its order; and the branch
        rows, where u.v == 0 or the unclipped quotient is not finite, whose
        values mean nothing: score them with ``similarity``.  No other row
        takes a scalar branch: a zero, inf or NaN denominator over a nonzero
        u.v makes the quotient inf or NaN, except a finite u.v over inf,
        whose +/-0.0 is the scalar value.  u.v == 0 is a branch row under
        every kind because np.dot of one-component vectors is the bare
        product, whose sign a zero keeps, while the matmul adds it to +0.0.
        """
        d = self.dots
        denominator, clip = _ROW_FORMULAS[kind]
        sims = d / denominator(self)
        branch = (d == 0.0) | ~np.isfinite(sims)
        if clip:
            np.minimum(np.maximum(sims, -1.0, out=sims), 1.0, out=sims)
        return sims, branch


# Each kind's denominator, read off a ``_RowValues`` with the float
# operations of the scalar metric in the same order, and whether the
# quotient u.v / den is clipped to [-1, 1].
_ROW_FORMULAS = {
    MetricKind.RECOS: (lambda rows: np.abs(rows.sorted_dots), True),
    MetricKind.COS: (lambda rows: np.multiply(*map(np.sqrt, rows.squared_norms)), True),
    MetricKind.DECOS: (lambda rows: 0.5 * np.add(*rows.squared_norms), True),
    MetricKind.TANIMOTO: (lambda rows: np.add(*rows.squared_norms) - rows.dots, False),
}


def _group_extrema(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Sort by a, then reduce b over each run of equal a-values.
    order = np.argsort(a, kind="stable")
    a_s = a[order]
    b_s = b[order]
    starts = np.flatnonzero(np.concatenate(([True], a_s[1:] != a_s[:-1])))
    gmax = np.maximum.reduceat(b_s, starts)
    gmin = np.minimum.reduceat(b_s, starts)
    return gmin, gmax


def is_similarly_ordered(u: VectorLike, v: VectorLike) -> bool:
    """Whether ``(u_i - u_j) * (v_i - v_j) >= 0`` for every index pair.

    Checked in O(d log d): after sorting by ``u``, every ``v`` value in a
    group of equal ``u`` components must be <= every ``v`` value in the next
    group.
    """
    a, b, _ = _pair(u, v)
    gmin, gmax = _group_extrema(a, b)
    return bool(np.all(gmax[:-1] <= gmin[1:]))


def is_oppositely_ordered(u: VectorLike, v: VectorLike) -> bool:
    """Whether ``(u_i - u_j) * (v_i - v_j) <= 0`` for every index pair."""
    a, b, _ = _pair(u, v)
    gmin, gmax = _group_extrema(a, b)
    return bool(np.all(gmin[:-1] >= gmax[1:]))
