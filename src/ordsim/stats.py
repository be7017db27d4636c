"""Paired-comparison statistics.

Conventions shared by every test in this module:

- Differences are paired (method A minus method B on the same cell) and the
  default alternative is one-sided "greater" (A beats B).
- Zero differences are discarded before the signed-rank and sign tests;
  ``n_used`` on the result records how many observations survived.
- The signed-rank statistic V is the sum of the ranks of the positive
  differences, with average ranks over tied absolute values.  Its p-value
  uses the normal approximation with tie-corrected variance and a 0.5
  continuity correction.
- The sign test is exact (binomial tail, integer arithmetic).
- The t-tests evaluate their tail by the finite series of Student's t for
  an integer df (Abramowitz & Stegun 26.7.3-26.7.4), with numpy only: within
  1e-14 absolute of 40-digit mpmath for df <= 1000, and within 1e-12
  relative where p <= 1e-3 (see ``_t_two_sided``); within 1e-11 relative
  for df from 65,535 to 10**6 at t from 2 to 7.5, where the sums run past
  one block of ``_T_BLOCK`` terms.
- Quartiles interpolate linearly between order statistics (the default
  linear/"type 7" convention; see the file-format notes in the README),
  with numpy's own arithmetic for it, on the sorted differences.
- A ``PairedDiffs`` sorts its differences once; the quartiles, the extremes,
  the win/tie/loss counts and both rank tests read that one sorted copy.
- Every sum is taken at one scale, decided from the peak (the largest
  magnitude) of its values, which each caller already holds:
  ``_scale(peak)`` is 1.0 below ``_PEAK_LIMIT`` (2**480), where no sum or
  sum of squares overflows, and the power of two just above the peak from
  there on.  Dividing by a power of two is exact, except for a value that
  it makes subnormal: where values of at least 2**480 cancel exactly and a
  sum is carried by values below 2**-1022 times the scale, their low bits
  are lost, as they are for the same values times any power of two above
  the limit.  Where values differ but their variance is below the smallest
  normal float, their squared deviations may have underflowed, and the
  variance is taken again at the power of two just above the peak.
- Exactly constant values (the smallest equals the largest) have no t-test:
  "constant differences", or "all K exclusion means are equal" for
  leave-one-dataset-out, whatever the rounding of their mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Hashable, Sequence

import numpy as np

from .errors import DegenerateInputError

# No function here calls average_ranks; it stays importable here because
# perfbench/tracing.py wraps it at ordsim.stats.average_ranks.
from .ranks import _as_array, average_ranks  # noqa: F401

__all__ = [
    "PairedDiffs",
    "DescriptiveStats",
    "TestResult",
    "descriptive_stats",
    "wilcoxon_signed_rank",
    "sign_test",
    "paired_t_test",
    "cohens_d_pooled",
    "benjamini_hochberg",
    "leave_one_dataset_out",
]

_ALTERNATIVES = ("greater", "two-sided")
# Below this a variance may have lost bits to gradual underflow, or all of them.
_SMALLEST_NORMAL = 2.0**-1022


@dataclass(frozen=True)
class PairedDiffs:
    """Paired differences with a (model, dataset) label per entry.

    The constructor takes the differences as any 1-d sequence or array of
    finite numbers and stores them as a tuple of floats, and the labels,
    each a tuple or list of two str, as a tuple of (model, dataset) pairs;
    it numbers their datasets with ``_encode``.  ``compare`` builds its
    diffs from a results table's columns instead (``_from_columns``), with
    the dataset codes and counts the table keeps for the method, numbered
    by the same ``_encode``, and a function that makes the labels; the
    diffs tuple and the labels are made on first use.

    Both ways end in ``_set_values``, which keeps, read-only: the float64
    differences, which every test in this module reads; the dataset codes,
    in order of first appearance, and their counts, from which
    ``leave_one_dataset_out`` takes its per-dataset sums; the differences
    sorted, with the bounds of their zeros, which ``descriptive_stats``,
    ``sign_test`` and ``wilcoxon_signed_rank`` share; and the sorted copy's
    two ends, the smallest and the largest difference, from which the
    t-tests tell a constant sample and take the peak that decides the scale
    (see ``_mean_sd``).  The mean and sd are made on first use.  None of
    these is a field, so they take no part in ``==``, ``hash`` or ``repr``.
    """

    diffs: tuple[float, ...]
    labels: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        labels = _checked_labels(self.labels)
        values = _as_array(self.diffs, "differences", DegenerateInputError).copy()
        if values.size != len(labels):
            raise DegenerateInputError(f"{values.size} diffs but {len(labels)} labels")
        _, codes = _encode([ds for _, ds in labels])
        self._set_values(values, codes, np.bincount(codes))
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "diffs", tuple(values.tolist()))

    @classmethod
    def _from_columns(
        cls,
        values: np.ndarray,
        labels: Callable[[], tuple[tuple[str, str], ...]],
        datasets: np.ndarray,
        counts: np.ndarray,
    ) -> PairedDiffs:
        # For a non-empty 1-d float64 array that the caller hands over, a
        # function of no arguments that returns the labels as a tuple of
        # (model, dataset) pairs of str, their dataset codes, numbered in
        # order of first appearance, and their np.bincount.  The diffs tuple
        # and the labels are made on first access.
        diffs = cls.__new__(cls)
        diffs._set_values(values, datasets, counts)
        object.__setattr__(diffs, "_make_labels", labels)
        return diffs

    def _set_values(self, values: np.ndarray, datasets: np.ndarray, counts: np.ndarray) -> None:
        """Keep the differences, their dataset codes and counts, their
        sorted copy with the bounds of its zeros, and its two ends; raises
        DegenerateInputError where a difference is not finite."""
        ascending = np.sort(values)
        ends = float(ascending[0]), float(ascending[-1])
        # np.sort puts -inf first, and inf and NaN last.
        if not (math.isfinite(ends[0]) and math.isfinite(ends[1])):
            raise DegenerateInputError("differences must be finite")
        neg = int(ascending.searchsorted(0.0))
        pos = int(ascending.searchsorted(0.0, "right"))
        for array in (values, datasets, counts, ascending):
            array.setflags(write=False)
        object.__setattr__(self, "_values", values)
        object.__setattr__(self, "_datasets", datasets)
        object.__setattr__(self, "_counts", counts)
        # (ascending, neg, pos): the zeros, of either sign, are ascending[neg:pos].
        object.__setattr__(self, "_sorted", (ascending, neg, pos))
        # (low, high): the smallest and the largest difference.
        object.__setattr__(self, "_ends", ends)

    def __getattr__(self, name: str) -> tuple:
        # Python calls this only for an attribute the instance lacks: the
        # diffs tuple, or the labels of a function, of a PairedDiffs made
        # by _from_columns.
        if name == "diffs":
            value = tuple(self._values.tolist())
        elif name == "labels":
            value = self._make_labels()
        else:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        object.__setattr__(self, name, value)
        return value

    @cached_property
    def _moments(self) -> tuple[float, float, float]:
        """(mean, sd, scale): the mean and sample sd of the differences
        divided by ``scale`` (see ``_mean_sd``)."""
        return _mean_sd(self._values, *self._ends)

    @classmethod
    def from_values(
        cls, values: Sequence[float], datasets: Sequence[str] | None = None
    ) -> "PairedDiffs":
        """Build from bare values, labeling each entry by position (or dataset)."""
        values = _as_array(values, "differences", DegenerateInputError)
        if datasets is None:
            labels = tuple(("", str(i)) for i in range(values.size))
        else:
            labels = tuple(("", ds) for ds in datasets)
        return cls(values, labels)

    @property
    def n(self) -> int:
        return self._values.size


def _checked_labels(labels: Sequence[Sequence[str]]) -> tuple[tuple[str, str], ...]:
    """Labels as a tuple of (model, dataset) pairs of str, or a typed error."""
    try:
        pairs = tuple(labels)
    except TypeError:
        raise DegenerateInputError(f"labels must be a sequence, got {labels!r}") from None
    for label in pairs:
        if not (
            isinstance(label, (tuple, list))
            and len(label) == 2
            and isinstance(label[0], str)
            and isinstance(label[1], str)
        ):
            raise DegenerateInputError(
                f"a label must be a (model, dataset) pair of str, got {label!r}"
            )
    return tuple((str(model), str(dataset)) for model, dataset in pairs)


class _Numbering(dict):
    """Numbers each new key by the count of keys before it."""

    def __missing__(self, key: Hashable) -> int:
        code = self[key] = len(self)
        return code


def _encode(values: Sequence[Hashable]) -> tuple[tuple, np.ndarray]:
    """The distinct values in order of first appearance, and the index of
    each value among them, in one pass over the values."""
    code_of = _Numbering()
    codes = np.fromiter(map(code_of.__getitem__, values), np.intp, len(values))
    return tuple(code_of), codes


def _mean_var(arr: np.ndarray) -> tuple[float, float]:
    """``arr.mean()`` and ``arr.var(ddof=1)`` (0.0 for one value), bit for
    bit: the same sums, without numpy's per-call overhead."""
    n = arr.size
    mean = np.add.reduce(arr) / n
    if n < 2:
        return float(mean), 0.0
    dev = arr - mean
    return float(mean), float(np.add.reduce(dev * dev) / (n - 1))


def _power_of_two_scale(peak: float) -> float:
    """The power of two just above ``peak``, a largest magnitude, at most
    2**1023 (the largest finite one).

    Dividing by it is exact, except for values that are subnormal once
    divided, and it leaves every magnitude below 2, so no square or sum of
    them overflows.
    """
    return math.ldexp(1.0, min(math.frexp(peak)[1], 1023))


# Below this peak magnitude, n values with n < 2**60 have a finite sum and
# sum of squared deviations: n * (2 * peak)**2 < 2**1022.
_PEAK_LIMIT = 2.0**480


def _scale(peak: float) -> float:
    """The scale at which values whose largest magnitude is ``peak`` are
    summed: 1.0 below ``_PEAK_LIMIT``, else ``_power_of_two_scale(peak)``."""
    return 1.0 if peak < _PEAK_LIMIT else _power_of_two_scale(peak)


def _divided(arr: np.ndarray, scale: float) -> np.ndarray:
    """``arr / scale``; ``arr`` itself at scale 1.0, where x / 1.0 == x, so
    never write to it."""
    return arr if scale == 1.0 else arr / scale


def _mean_sd(arr: np.ndarray, low: float, high: float) -> tuple[float, float, float]:
    """(mean, sd, scale): ``_mean_var`` of ``arr / scale``, with the sd, for
    values whose smallest and largest are ``low`` and ``high``.  The scale
    is ``_scale`` of their peak; or, where the values differ but that
    variance is below the smallest normal float, so that squared deviations
    may have underflowed, ``_power_of_two_scale`` of it.  Values that are
    all equal keep the variance they give unscaled."""
    peak = max(-low, high)
    scale = _scale(peak)
    mean, var = _mean_var(_divided(arr, scale))
    if var < _SMALLEST_NORMAL and low < high:
        scale = _power_of_two_scale(peak)
        mean, var = _mean_var(arr / scale)
    return mean, math.sqrt(var), scale


def _micro_average(scores: np.ndarray, peak: float) -> float:
    """The mean of the scores, whose largest magnitude is ``peak``, by
    Python's left-to-right sum in their order (np.sum adds pairwise), at
    ``_scale(peak)``."""
    scale = _scale(peak)
    return sum(_divided(scores, scale).tolist()) / scores.size * scale


@dataclass(frozen=True)
class DescriptiveStats:
    """Location, spread, quartiles and win/tie/loss counts of paired diffs."""

    n: int
    mean: float
    sd: float
    se: float
    median: float
    q1: float
    q3: float
    iqr: float
    min: float
    max: float
    wins: int
    ties: int
    losses: int
    win_rate_excl_ties: float


@dataclass(frozen=True)
class TestResult:
    """Outcome of one hypothesis test.

    ``n_used`` is the number of observations the test actually consumed
    (zero differences discarded); degrees of freedom, where meaningful, are
    ``n_used - 1``.
    """

    statistic: float
    p_value: float
    effect_size: float
    n_used: int
    method_name: str

    def __post_init__(self) -> None:
        if not (0.0 <= self.p_value <= 1.0):
            raise DegenerateInputError(f"p-value outside [0, 1]: {self.p_value!r}")


def _check_alternative(alternative: str) -> str:
    if alternative not in _ALTERNATIVES:
        raise DegenerateInputError(
            f"alternative must be one of {_ALTERNATIVES}, got {alternative!r}"
        )
    return alternative


def descriptive_stats(d: PairedDiffs) -> DescriptiveStats:
    """Summary statistics of the differences; ties are exact zeros.

    The quartiles and the median equal ``np.quantile``'s (its default linear
    method) bit for bit, except for the sign of a zero where the differences
    hold both -0.0 and 0.0: the quartiles, min and max read ``np.sort``'s
    order of the zeros, np.quantile its partition's.

    Raises DegenerateInputError where the quartiles are finite but the
    interquartile range q3 - q1 overflows float64.
    """
    ascending, neg, pos = d._sorted
    n = ascending.size
    mean, sd, scale = d._moments
    mean *= scale
    sd *= scale
    q1, med, q3 = (_linear_quantile(ascending, q) for q in (0.25, 0.5, 0.75))
    iqr = q3 - q1
    if not math.isfinite(iqr):
        raise DegenerateInputError(
            f"interquartile range overflows float64: q3 - q1 = {q3!r} - {q1!r}"
        )
    wins = n - pos
    ties = pos - neg
    losses = neg
    decided = wins + losses
    return DescriptiveStats(
        n=n,
        mean=mean,
        sd=sd,
        se=sd / math.sqrt(n),
        median=med,
        q1=q1,
        q3=q3,
        iqr=iqr,
        min=float(ascending[0]),
        max=float(ascending[-1]),
        wins=wins,
        ties=ties,
        losses=losses,
        win_rate_excl_ties=wins / decided if decided else 0.0,
    )


def _linear_quantile(ascending: np.ndarray, q: float) -> float:
    """``np.quantile(values, q)`` from the values in ascending order, bit for
    bit: numpy's linear method (the virtual index (n - 1) * q), the clamp of
    its ``_get_indexes`` and both branches of its ``_lerp``, except where
    ``above - below`` overflows and numpy's value is inf or NaN."""
    n = ascending.size
    index = (n - 1) * q
    if index >= n - 1:
        # numpy reads the last value on both sides, with weight index + 1.
        below = above = float(ascending[-1])
        t = index + 1.0
    else:
        i = int(index)
        below, above = float(ascending[i]), float(ascending[i + 1])
        t = index - i
    diff = above - below
    if not math.isfinite(diff):  # finite, within rounding of the exact value
        return below * (1 - t) + above * t
    return above - diff * (1 - t) if t >= 0.5 else below + diff * t


def _norm_sf(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def _student_t_sf(t: float, df: int) -> float:
    """P(T > t) for Student's t with an integer df >= 1."""
    q = _t_two_sided(abs(t), df)
    return 0.5 * q if t >= 0.0 else 1.0 - 0.5 * q


# For integer df the Student-t tail is a finite series (Abramowitz & Stegun
# 26.7.3-26.7.4; Hill, CACM algorithm 395).  For a >= 0 let s = a/sqrt(df + a²),
# x = df/(df + a²) = 1 - s² and m = df // 2, and let c_0 = 1 and c_{k+1} = c_k·r_k
# with r_k = (2k+1)/(2k+2) for even df and (2k+2)/(2k+3) for odd df.  Then
# P(|T| > a) = H - lead·Σ_{k<m} c_k x^k, with H = 1 and lead = s for even df,
# and H = (2/π)·atan2(sqrt(df), a) and lead = (2/π)·s·sqrt(x) for odd df.  The
# whole series sums to H/lead, so the same value is also the tail
# lead·Σ_{k>=m} c_k x^k: a sum of positive terms, which keeps a small value's
# relative accuracy where the head's difference cancels.
#
# For each parity of df, _T_RATIOS holds r_k for k < _T_BLOCK, made on first
# use, which every block of a sum inside it reads, and _T_COEFFICIENTS holds
# c_k for k = 0, 1, ..., grown on demand: the long-double product of the
# ratios, rounded once.  Neither is keyed by df.
_T_RATIOS = [np.empty(0), np.empty(0)]
_T_COEFFICIENTS = [np.empty(0), np.empty(0)]
_HALF_PI = math.pi / 2
# The head form is used only where P(|T| > a) is at least this, so that its
# absolute error of a few 1e-16 stays a relative error of a few 1e-13 at most.
_T_HEAD_MIN = 1.0 / 512
# Sums of at most this many terms are added by a loop.
_T_LOOP_TERMS = 48
# The ratio tables' length, and the most terms of one block of ``_t_sum``,
# so that a call's arrays stay small at any df.
_T_BLOCK = 1 << 16
# Veltkamp's splitter for float64, 2^27 + 1.
_SPLIT = 134217729.0


def _t_ratio(odd: int, k: np.ndarray) -> np.ndarray:
    """r_k, in the dtype of k."""
    return (2 * k + (1 + odd)) / (2 * k + (2 + odd))


def _t_coefficients(odd: int, n: int) -> np.ndarray:
    """c_k for df's parity, at least n of them."""
    table = _T_COEFFICIENTS[odd]
    if table.size < n:
        k = np.arange(max(n, 2 * table.size, 1024) - 1, dtype=np.longdouble)
        products = np.cumprod(_t_ratio(odd, k)).astype(np.float64)
        table = _T_COEFFICIENTS[odd] = np.concatenate(([1.0], products))
    return table


def _t_sum(odd: int, x: float, start: int, n: int) -> float:
    """Σ_{k=start..start+n} c_k x^(k-start) / c_start, that is
    1 + Σ_{j=1..n} Π_{i<j} r_{start+i}·x: by a loop for a short sum inside
    the ratio table, where numpy calls cost more, else by blocks of at most
    ``_T_BLOCK`` terms from ``start``, each a cumulative product
    (``np.multiply.accumulate``) scaled by the last term of the blocks
    before it, which reads its ratios from the table if it lies inside."""
    stop = start + n
    ratios = _T_RATIOS[odd]
    if ratios.size == 0:
        ratios = _T_RATIOS[odd] = _t_ratio(odd, np.arange(_T_BLOCK, dtype=np.float64))
    if n <= _T_LOOP_TERMS and stop <= _T_BLOCK:
        term = total = 1.0
        for ratio in ratios[start:stop].tolist():
            term *= ratio * x
            total += term
        return total
    total = carry = 1.0
    for lo in range(start, stop, _T_BLOCK):
        hi = min(lo + _T_BLOCK, stop)
        block = ratios[lo:hi] if hi <= _T_BLOCK else _t_ratio(odd, np.arange(lo, hi, 1.0))
        terms = np.multiply.accumulate(block * x)
        total += carry * float(np.add.reduce(terms))
        carry *= float(terms[-1])
    return total


def _product_error(x: float, y: float, p: float) -> float:
    """x·y - p exactly, for p = fl(x·y): Dekker's product after Veltkamp's
    split of each factor, which needs |x| and |y| below 2^996 and an error
    that is a double.  Plain operators, so it works elementwise on arrays."""
    t = x * _SPLIT
    xh = t - (t - x)
    xl = x - xh
    t = y * _SPLIT
    yh = t - (t - y)
    yl = y - yh
    return ((xh * yh - p) + xh * yl + xl * yh) + xl * yl


def _rounding_of_x(a: float, a2: float, d: float, x: float, df: int) -> float:
    """δ such that df/(df + a²) = x·(1 + δ) to first order, for a2 = fl(a²),
    d = fl(df + a2) and x = fl(df/d): each of the three roundings is
    recovered exactly (``_product_error`` and Knuth's sum), which needs
    d < 2^996."""
    a2_err = _product_error(a, a, a2)
    d_err = (df - d) + a2 if df >= a2 else (a2 - d) + df
    p = x * d
    return ((df - p) - _product_error(x, d, p) - x * (d_err + a2_err)) / df


def _t_two_sided(a: float, df: int) -> float:
    """P(|T| > a) for a >= 0 (or NaN) and an integer df >= 1, by the series
    above: the head form where the value is not small, else the tail form.

    The series reads x rounded; its rounding error δ moves the value by about
    δ·x·dP/dx, which grows with df and is added back.  x·dP/dx comes in
    closed form from the t density: lead·Σ k·c_k·x^k over the tail is
    (df·lead·c_m·x^m + (x - odd·s²)·P) / (2s²), with P the tail's value."""
    if df == 1:
        return math.atan2(1.0, a) / _HALF_PI
    a2 = a * a
    d = df + a2
    x = df / d
    if x == 0.0:  # a² overflows, or dwarfs df: every term underflows
        return 0.0
    s2 = a2 / d
    delta = _rounding_of_x(a, a2, d, x, df) if d < 1e290 else 0.0
    m, odd = df >> 1, df & 1
    root = math.sqrt(df)
    r = math.hypot(root, a)
    lead = a / r
    if odd:
        lead = lead * (root / r) / _HALF_PI
    first = _t_coefficients(odd, m + 1).item(m) * x**m  # c_m x^m, the tail's first term
    # The tail is at most lead·first/s²: the head is tried unless that is
    # under _T_HEAD_MIN, and kept unless its value is.
    if not lead * first < _T_HEAD_MIN * s2:
        head = math.atan2(root, a) / _HALF_PI if odd else 1.0
        q = head - lead * _t_sum(odd, x, 0, m - 1)
        if delta and s2:  # the same correction, through H - P = lead·(head sum)
            q -= delta * (odd * lead - df * lead * first + (x - odd * s2) * (head - q)) / (2.0 * s2)
        if not q < _T_HEAD_MIN:
            return q
    if first == 0.0:
        return 0.0
    # Terms past c_m x^m until the rest is under 2^-54 of it: each term is at
    # most x times the one before.
    n = int((37.5 - math.log(s2)) / -math.log(x)) + 1
    series = _t_sum(odd, x, m, n)
    series += delta * (df + (x - odd * s2) * series) / (2.0 * s2)
    return lead * first * series


def wilcoxon_signed_rank(
    d: PairedDiffs, alternative: str = "greater"
) -> TestResult:
    """Wilcoxon signed-rank test on paired differences.

    Zero differences are dropped.  Ranks are averaged over tied absolute
    values; V sums the ranks of the positive differences.  The p-value uses
    the normal approximation with tie correction and continuity correction;
    the effect size is r = |z| / sqrt(n_used).
    """
    _check_alternative(alternative)
    ascending, neg, pos = d._sorted
    positives = ascending[pos:]
    magnitudes = np.concatenate((-ascending[:neg], positives))
    magnitudes.sort()
    n = magnitudes.size
    if n == 0:
        raise DegenerateInputError("all differences are zero")
    # The magnitudes equal to x fill the 1-based positions below + 1 ..
    # at_or_below, so x's average rank is (below + at_or_below + 1) / 2.
    # V is a sum of half-integers, exact in integers.
    below = magnitudes.searchsorted(positives)
    at_or_below = magnitudes.searchsorted(positives, "right")
    v_stat = (int(np.add.reduce(below)) + int(np.add.reduce(at_or_below)) + positives.size) / 2
    mu = n * (n + 1) / 4.0
    # The sizes of the runs of equal magnitudes, in ascending order of
    # magnitude, as np.unique would count them.
    bounds = np.concatenate(([True], magnitudes[1:] != magnitudes[:-1], [True])).nonzero()[0]
    tie_counts = bounds[1:] - bounds[:-1]
    tie_term = float(np.add.reduce(tie_counts.astype(np.float64) ** 3 - tie_counts)) / 48.0
    sigma = math.sqrt(n * (n + 1) * (2 * n + 1) / 24.0 - tie_term)
    if alternative == "greater":
        z = (v_stat - mu - 0.5) / sigma
        p = _norm_sf(z)
    else:
        shift = 0.5 if v_stat > mu else -0.5 if v_stat < mu else 0.0
        z = (v_stat - mu - shift) / sigma
        p = min(1.0, 2.0 * _norm_sf(abs(z)))
    return TestResult(
        statistic=v_stat,
        p_value=p,
        effect_size=abs(z) / math.sqrt(n),
        n_used=n,
        method_name="wilcoxon",
    )


def _binomial_head_sum(n: int, m: int) -> int:
    """C(n, 0) + ... + C(n, m) for 0 <= m <= n, in exact integers.

    The sum walks from the nearer of two points where it is known: from
    C(n, 0) = 1, or from the middle, h = n // 2, where by the symmetry
    C(n, i) = C(n, n-i) the head sum up to h is 2**(n-1) for odd n and
    (2**n + C(n, h)) / 2 for even n.  Each step is the exact recurrence
    C(n, i+1) = C(n, i) * (n-i) // (i+1), or its inverse
    C(n, i-1) = C(n, i) * i // (n-i+1), so the walk takes min(m, |m - h|)
    steps.
    """
    h = n // 2
    if m <= abs(m - h):
        term = total = 1
        i = 0
    else:
        term = math.comb(n, h)
        total = 1 << (n - 1) if n % 2 else ((1 << n) + term) >> 1
        i = h
    while i < m:
        term = term * (n - i) // (i + 1)
        total += term
        i += 1
    while i > m:
        total -= term
        term = term * i // (n - i + 1)
        i -= 1
    return total


def sign_test(d: PairedDiffs, alternative: str = "greater") -> TestResult:
    """Exact sign test: binomial tail at rate 1/2 over the nonzero diffs.

    The statistic is the number of positive differences; the effect size is
    the success rate among nonzero differences.
    """
    _check_alternative(alternative)
    _, neg, pos = d._sorted
    k = d.n - pos
    n = k + neg
    if n == 0:
        raise DegenerateInputError("all differences are zero")
    # By the symmetry C(n, i) = C(n, n-i), the upper tail from k is the head
    # sum up to n-k, the lower tail up to k is the head sum up to k, and the
    # smaller tail is the one with fewer terms.
    total = 2**n
    if alternative == "greater":
        p = _binomial_head_sum(n, n - k) / total
    else:
        p = min(1.0, 2.0 * (_binomial_head_sum(n, min(k, n - k)) / total))
    return TestResult(
        statistic=float(k),
        p_value=p,
        effect_size=k / n,
        n_used=n,
        method_name="sign",
    )


def paired_t_test(d: PairedDiffs, alternative: str = "greater") -> TestResult:
    """Paired t-test on the differences, df = n - 1.

    The effect size is Cohen's d_z = mean / sd of the differences.  Raises
    DegenerateInputError where every difference is the same value, however
    its mean rounds.
    """
    _check_alternative(alternative)
    if d.n < 2:
        raise DegenerateInputError("paired t-test requires at least 2 differences")
    constant = "paired t-test is undefined for constant differences"
    low, high = d._ends
    if low == high:
        raise DegenerateInputError(constant)
    return _t_test(d._moments, d.n, alternative, "paired-t", constant)


def _t_test(
    moments: tuple[float, float, float], n: int, alternative: str, name: str, constant: str
) -> TestResult:
    """One-sample t-test against zero from the (mean, sd, scale) of n >= 2
    values, df = n - 1, with effect size mean / sd.  Raises
    DegenerateInputError with the message ``constant`` where the sd is 0;
    callers raise it first where the values are all equal."""
    # mean / sd is the same at any scale.
    mean, sd, _ = moments
    if sd == 0.0:
        raise DegenerateInputError(constant)
    t_stat = mean / (sd / math.sqrt(n))
    df = n - 1
    if alternative == "greater":
        p = _student_t_sf(t_stat, df)
    else:
        p = min(1.0, 2.0 * _student_t_sf(abs(t_stat), df))
    return TestResult(
        statistic=t_stat,
        p_value=p,
        effect_size=mean / sd,
        n_used=n,
        method_name=name,
    )


def cohens_d_pooled(a: Sequence[float], b: Sequence[float]) -> float:
    """Between-groups Cohen's d with the pooled standard deviation.

    Raises DegenerateInputError where each sample is constant (its smallest
    value is its largest), however their means round: the mean of
    ``[0.1] * 3`` is not 0.1, and its deviations would make a d of 1e16.
    """
    xa = _as_array(a, "samples", DegenerateInputError)
    xb = _as_array(b, "samples", DegenerateInputError)
    if xa.size < 2 or xb.size < 2:
        raise DegenerateInputError("cohens_d_pooled requires two samples of size >= 2")
    low_a, high_a = float(xa.min()), float(xa.max())
    low_b, high_b = float(xb.min()), float(xb.max())
    if low_a == high_a and low_b == high_b:
        raise DegenerateInputError("pooled variance is zero")
    # d is the same at any common scale of both samples.
    peak = max(-low_a, high_a, -low_b, high_b)
    scale = _scale(peak)
    gap, pooled = _mean_gap_and_pooled_var(_divided(xa, scale), _divided(xb, scale))
    # A sample spreads, so a pooled variance this small may hold squared
    # deviations that underflowed.
    if pooled < _SMALLEST_NORMAL:
        scale = _power_of_two_scale(peak)
        gap, pooled = _mean_gap_and_pooled_var(xa / scale, xb / scale)
    return _pooled_d(gap, pooled)


def _mean_gap_and_pooled_var(xa: np.ndarray, xb: np.ndarray) -> tuple[float, float]:
    return _gap_and_pooled_var(_mean_var(xa), xa.size, _mean_var(xb), xb.size)


def _gap_and_pooled_var(
    mean_var_a: tuple[float, float], na: int, mean_var_b: tuple[float, float], nb: int
) -> tuple[float, float]:
    """The gap of two samples' means and their pooled variance, from each
    sample's ``_mean_var`` and size."""
    (mean_a, var_a), (mean_b, var_b) = mean_var_a, mean_var_b
    return mean_a - mean_b, ((na - 1) * var_a + (nb - 1) * var_b) / (na + nb - 2)


def _pooled_d(gap: float, pooled: float) -> float:
    if pooled == 0.0:
        raise DegenerateInputError("pooled variance is zero")
    return gap / math.sqrt(pooled)


def benjamini_hochberg(p_values: Sequence[float]) -> list[float]:
    """Benjamini-Hochberg step-up adjustment, returned in the input order.

    adjusted_i = min over j with p_j >= p_i of (m / rank_j) * p_j, capped at 1.
    Adjustment preserves the ordering of the raw p-values.
    """
    p = _as_array(p_values, "p-values", DegenerateInputError)
    order = p.argsort(kind="stable")
    ordered = p[order]
    if not (ordered[0] >= 0.0 and ordered[-1] <= 1.0):
        raise DegenerateInputError("p-values must lie in [0, 1]")
    m = p.size
    scaled = ordered * m / np.arange(1, m + 1)
    adjusted_sorted = np.minimum.accumulate(scaled[::-1])[::-1]
    adjusted_sorted = np.minimum(adjusted_sorted, 1.0)
    out = np.empty(m, dtype=np.float64)
    out[order] = adjusted_sorted
    return out.tolist()


def leave_one_dataset_out(d: PairedDiffs, alternative: str = "greater") -> TestResult:
    """Robustness check: one-sample t over per-dataset exclusion means.

    For each dataset label, take the mean difference over all cells NOT from
    that dataset; then t-test those exclusion means against zero with
    df = (number of datasets) - 1.  Raises DegenerateInputError where the
    exclusion means are all equal (their min is their max).

    Exclusion mean k is (total - S_k) / (n - n_k), with S_k and n_k the sum
    and count of dataset k's differences: one weighted ``np.bincount`` of
    the dataset codes, with the counts the diffs keep, so the cost is O(n)
    whatever the number of datasets.  The sums are taken at ``_scale`` of
    the differences' peak, and the t-test's at that of the exclusion means.
    """
    _check_alternative(alternative)
    codes, counts = d._datasets, d._counts
    k = counts.size
    if k < 2:
        raise DegenerateInputError("leave-one-dataset-out requires >= 2 datasets")
    # The t statistic is the same at any scale of the differences.
    low, high = d._ends
    exclusion_means = _exclusion_means(
        _divided(d._values, _scale(max(-low, high))), codes, counts
    )
    constant = f"leave-one-dataset-out t-test is undefined: all {k} exclusion means are equal"
    low, high = float(exclusion_means.min()), float(exclusion_means.max())
    if low == high:
        raise DegenerateInputError(constant)
    return _t_test(_mean_sd(exclusion_means, low, high), k, alternative, "lodo-t", constant)


def _exclusion_means(arr: np.ndarray, codes: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """For each dataset code, the mean of the values of the other datasets,
    from the total and the per-dataset sums; ``counts`` is
    ``np.bincount(codes)``."""
    return (np.add.reduce(arr) - np.bincount(codes, weights=arr)) / (arr.size - counts)
