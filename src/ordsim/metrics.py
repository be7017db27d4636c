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
from typing import Callable, Iterator, Sequence, Union

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
    # ``_operand``'s array, checked.  The one check of a single operand:
    # DenseVector, norm and _pair's fallback.
    if isinstance(value, DenseVector):
        return value.components
    try:
        arr = _operand(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidVectorError(f"not a numeric vector: {exc}") from exc
    if arr.ndim != 1:
        raise InvalidVectorError(f"expected a 1-d vector, got shape {arr.shape}")
    if arr.size == 0:
        raise InvalidVectorError("vector must have at least one component")
    if not np.isfinite(arr).all():
        raise InvalidVectorError("vector components must be finite")
    return arr


class MetricKind(str, Enum):
    """Names of the four similarity metrics, as accepted by the CLI.

    ``MetricKind(value)`` of any other value raises DegenerateInputError.
    """

    RECOS = "recos"
    COS = "cos"
    DECOS = "decos"
    TANIMOTO = "tanimoto"

    @classmethod
    def _missing_(cls, value: object) -> None:
        # Enum calls this only once a value matched no member, and raises
        # the ValueError it raises.
        names = ", ".join(kind.value for kind in cls)
        raise DegenerateInputError(f"unknown metric kind {value!r}; expected one of {names}")


_FLOAT64 = np.dtype(np.float64)


def _operand(value: VectorLike) -> np.ndarray:
    # ``value`` as a float64 array, ``value`` itself if it is a contiguous one,
    # so never write to it; unchecked but for complex input.  Only 1-d input is
    # made C-contiguous (0-d stays 0-d for _vector's ndim check), which keeps
    # np.dot on the BLAS path and rounding of a copy.  Complex input is refused
    # only after a cast made a new array, so a float64 array pays nothing for
    # the test, and numpy's ComplexWarning about the cast may print first.
    # The common operand, a C-contiguous native float64 ndarray, is what both
    # calls would hand back, so it skips them; any other pays this one test.
    if type(value) is np.ndarray and value.dtype is _FLOAT64 and value.flags.c_contiguous:
        return value
    if isinstance(value, DenseVector):
        return value.components
    arr = np.asarray(value, dtype=np.float64)
    if arr is not value and np.iscomplexobj(value):
        raise TypeError("complex values have no float64 value")
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
    # NaN fails both tests and clips to -1.0.
    if -1.0 < x < 1.0:
        return x
    return 1.0 if x >= 1.0 else -1.0


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
    half = 0.5 * sq
    # Halving the smallest subnormal rounds to 0.0; then divide twice d by sq.
    return _clip_unit(d / half if half != 0.0 else 2.0 * d / sq)


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
    try:
        t = float(t)
    except (TypeError, ValueError):
        raise DegenerateInputError(f"tanimoto value is not a number: {t!r}") from None
    if not (0.0 <= t <= 1.0):
        raise DegenerateInputError(f"tanimoto value outside [0, 1]: {t!r}")
    return 2.0 * t / (1.0 + t)


_METRIC_FUNCS = {
    MetricKind.RECOS: recos,
    MetricKind.COS: cosine,
    MetricKind.DECOS: decos,
    MetricKind.TANIMOTO: tanimoto,
}


# Each member by its value.  A member hashes and compares as its value, so
# one lookup finds it by either.
_KINDS = {kind.value: kind for kind in MetricKind}


def _metric_kind(value: MetricKind | str) -> MetricKind:
    """``MetricKind(value)``: a member or its value costs one lookup, and
    anything else gets the Enum call's answer or error."""
    try:
        return _KINDS[value]
    except (KeyError, TypeError):  # not a kind, or unhashable
        return MetricKind(value)


def similarity(kind: MetricKind | str, u: VectorLike, v: VectorLike) -> float:
    """Dispatch to one of the four metrics by kind."""
    return _METRIC_FUNCS[_metric_kind(kind)](u, v)


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
    whose formula reads it, and kept read-only; overflow does not warn.
    Beside u.v, whether any row's u.v is zero is counted once and kept."""

    def __init__(self, U: np.ndarray, V: np.ndarray) -> None:
        self._U, self._V = U, V

    @cached_property
    @np.errstate(all="ignore")
    def dots(self) -> np.ndarray:
        return _frozen(_row_dots(self._U, self._V))

    @cached_property
    def has_zero_dot(self) -> bool:
        return bool(np.count_nonzero(self.dots) < self.dots.size)

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

    def sorted_scores(
        self, kind: MetricKind, rescore: Callable[[int], float]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``similarity(kind, u_i, v_i)`` of every row i, bit for bit, in a
        new array; its ``argsort``; and the sorted scores.

        A score is u.v / den, read off ``_ROW_FORMULAS`` with the scalar
        metric's float operations in its order, but on a branch row, which
        ``rescore(i)`` scores: u.v == 0 (np.dot of one-component vectors
        keeps a zero's sign, the matmul adds it to +0.0) or a quotient that
        is not finite (a zero, inf or NaN denominator over a nonzero u.v; a
        finite u.v over inf gives the scalar +/-0.0).  A zero dot (see
        ``has_zero_dot``), or else a non-finite sorted end calls ``_repair``;
        only the latter sorts again.  A clipped kind clips to [-1, 1] when
        a sorted end lies past it: clipping is monotone, so the sort stands.
        """
        d = self.dots
        denominator, clip = _ROW_FORMULAS[kind]
        with np.errstate(all="ignore"):
            sims = d / denominator(self)
        repaired = self.has_zero_dot
        if repaired:
            self._repair(sims, rescore)
        order = sims.argsort()
        ordered = sims[order]
        if not (repaired or math.isfinite(ordered[0]) and math.isfinite(ordered[-1])):
            self._repair(sims, rescore)
            order = sims.argsort()
            ordered = sims[order]
        if clip and not (-1.0 <= ordered[0] and ordered[-1] <= 1.0):
            np.minimum(np.maximum(sims, -1.0, out=sims), 1.0, out=sims)
            ordered = sims[order]
        return sims, order, ordered

    def _repair(self, sims: np.ndarray, rescore: Callable[[int], float]) -> None:
        # Rescore every branch row in place: the per-pair loop's value or error.
        for i in np.flatnonzero((self.dots == 0.0) | ~np.isfinite(sims)).tolist():
            sims[i] = rescore(i)


# Each kind's denominator, read off a ``_RowValues`` with the float
# operations of the scalar metric in the same order, and whether the
# quotient u.v / den is clipped to [-1, 1].
_ROW_FORMULAS = {
    MetricKind.RECOS: (lambda rows: np.abs(rows.sorted_dots), True),
    MetricKind.COS: (lambda rows: np.multiply(*map(np.sqrt, rows.squared_norms)), True),
    MetricKind.DECOS: (lambda rows: 0.5 * np.add(*rows.squared_norms), True),
    MetricKind.TANIMOTO: (lambda rows: np.add(*rows.squared_norms) - rows.dots, False),
}


def _similarly_ordered(a: np.ndarray, b: np.ndarray) -> bool:
    # On checked arrays: sorted by a and, among equal a components, by b, b
    # must not decrease.  On (a, -b) it checks the opposite order: negation
    # reverses b's order, and -0.0 == 0.0.
    b = b[np.lexsort((b, a))]
    return bool(np.all(b[:-1] <= b[1:]))


def is_similarly_ordered(u: VectorLike, v: VectorLike) -> bool:
    """Whether ``(u_i - u_j) * (v_i - v_j) >= 0`` for every index pair.

    Checked in O(d log d) by one sort; see ``_similarly_ordered``.  u.v only
    certifies the operands, so neither predicate warns when it overflows or
    depends on the caller's ``np.errstate``.
    """
    with np.errstate(all="ignore"):
        a, b, _ = _pair(u, v)
    return _similarly_ordered(a, b)


def is_oppositely_ordered(u: VectorLike, v: VectorLike) -> bool:
    """Whether ``(u_i - u_j) * (v_i - v_j) <= 0`` for every index pair:
    ``is_similarly_ordered(u, -v)``."""
    with np.errstate(all="ignore"):
        a, b, _ = _pair(u, v)
    return _similarly_ordered(a, -b)
