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
- The paired t-test evaluates its tail through the regularized incomplete
  beta function, accurate to ~1e-10 absolute for df <= 1000 (tested against
  40-digit mpmath).
- Quartiles interpolate linearly between order statistics (the default
  linear/"type 7" convention; see the file-format notes in the README),
  with numpy's own arithmetic for it, on the sorted differences.
- A ``PairedDiffs`` sorts its differences once; the quartiles, the extremes,
  the win/tie/loss counts and both rank tests read that one sorted copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Hashable, Iterator, Sequence

import numpy as np

from .errors import DegenerateInputError

# No function here calls average_ranks; it stays importable here because
# perfbench/tracing.py wraps it at ordsim.stats.average_ranks.
from .ranks import average_ranks  # noqa: F401

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

# Index entries (8 MB of intp) per block of leave_one_dataset_out, and in
# all for the blocks a _LodoIndex keeps.
_LODO_BLOCK_CELLS = 1 << 20


@dataclass(frozen=True)
class PairedDiffs:
    """Paired differences with a (model, dataset) label per entry.

    The constructor takes the differences as any 1-d sequence or array of
    finite numbers and stores them as a tuple of floats, and the labels as
    a tuple of (model, dataset) pairs of str.  It also keeps one read-only
    float64 copy of the differences, which every test in this module reads,
    and numbers the labels' datasets in order of first appearance, in an
    index that keeps the leave-one-dataset-out blocks once built (see
    ``_LodoIndex``).  On first use it computes their mean and sd, for all
    the tests, and a read-only sorted copy of them with the bounds of its
    zeros, which ``descriptive_stats``, ``sign_test`` and
    ``wilcoxon_signed_rank`` share.  None of these is a field, so they take
    no part in ``==``, ``hash`` or ``repr``.

    ``compare`` builds its diffs from a results table's columns instead,
    with the dataset index the table keeps for the method, and makes the
    diffs tuple on first use.
    """

    diffs: tuple[float, ...]
    labels: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        labels = _checked_labels(self.labels)
        try:
            values = np.array(self.diffs, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise DegenerateInputError(f"differences must be numeric: {exc}") from None
        if values.ndim != 1:
            raise DegenerateInputError(f"differences must be 1-d, got shape {values.shape}")
        if values.size != len(labels):
            raise DegenerateInputError(f"{values.size} diffs but {len(labels)} labels")
        if values.size == 0:
            raise DegenerateInputError("need at least one paired difference")
        self._set_values(values, labels, _LodoIndex([ds for _, ds in labels]))
        object.__setattr__(self, "diffs", tuple(values.tolist()))

    @classmethod
    def _from_columns(
        cls, values: np.ndarray, labels: tuple[tuple[str, str], ...], datasets: _LodoIndex
    ) -> PairedDiffs:
        # For a non-empty float64 array that the caller hands over, labels
        # that are already a tuple of (model, dataset) pairs of str, and a
        # _LodoIndex of the labels' datasets.  The diffs tuple is made on
        # first access.
        diffs = cls.__new__(cls)
        diffs._set_values(values, labels, datasets)
        return diffs

    def _set_values(
        self, values: np.ndarray, labels: tuple[tuple[str, str], ...], datasets: _LodoIndex
    ) -> None:
        if not np.isfinite(values).all():
            raise DegenerateInputError("differences must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_values", values)
        object.__setattr__(self, "_datasets", datasets)

    def __getattr__(self, name: str) -> tuple[float, ...]:
        # Python calls this only for an attribute the instance lacks: the
        # diffs tuple of a PairedDiffs made by _from_columns.
        if name != "diffs":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        diffs = tuple(self._values.tolist())
        object.__setattr__(self, "diffs", diffs)
        return diffs

    @cached_property
    def _moments(self) -> tuple[float, float, float]:
        """(mean, sd, scale): the mean and sample sd of the differences
        divided by ``scale``, which is 1.0 unless the squares overflow."""
        return _mean_sd_scale(self._values)

    @cached_property
    def _sorted(self) -> tuple[np.ndarray, int, int]:
        """(ascending, neg, pos): ``np.sort`` of the differences, read-only,
        whose zeros (of either sign) are ``ascending[neg:pos]``."""
        ascending = np.sort(self._values)
        neg = int(ascending.searchsorted(0.0))
        pos = int(ascending.searchsorted(0.0, "right"))
        ascending.setflags(write=False)
        return ascending, neg, pos

    @classmethod
    def from_values(
        cls, values: Sequence[float], datasets: Sequence[str] | None = None
    ) -> "PairedDiffs":
        """Build from bare values, labeling each entry by position (or dataset)."""
        if datasets is None:
            labels = tuple(("", str(i)) for i in range(len(values)))
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


def _encode(values: Sequence[Hashable]) -> tuple[tuple, np.ndarray]:
    """The distinct values in order of first appearance, and the index of
    each value among them."""
    names = tuple(dict.fromkeys(values))
    code_of = dict(zip(names, range(len(names))))
    return names, np.fromiter(map(code_of.__getitem__, values), np.intp, len(values))


def _mean_var(arr: np.ndarray) -> tuple[float, float]:
    """``arr.mean()`` and ``arr.var(ddof=1)`` (0.0 for one value), bit for
    bit: the same sums, without numpy's per-call overhead."""
    n = arr.size
    mean = np.add.reduce(arr) / n
    if n < 2:
        return float(mean), 0.0
    dev = arr - mean
    return float(mean), float(np.add.reduce(dev * dev) / (n - 1))


def _power_of_two_scale(*arrays: np.ndarray) -> float:
    """The power of two just above the largest magnitude in the arrays, at
    most 2**1023 (the largest finite one).

    Dividing by it is exact, except for values so small that they are
    below the rounding of any sum that holds the largest one, and it leaves
    every magnitude below 2, so no square or sum of them overflows.
    """
    peak = max(float(np.abs(arr).max()) for arr in arrays)
    return math.ldexp(1.0, min(math.frexp(peak)[1], 1023))


def _rescaled(compute: Callable, *arrays: np.ndarray) -> tuple:
    """(result, scale): ``compute(*arrays)`` and 1.0, unless a value of that
    result (a float, a tuple of floats or an array) is not finite; then
    ``compute`` of the arrays divided by ``_power_of_two_scale(*arrays)``,
    and that scale."""
    with np.errstate(over="ignore", invalid="ignore"):
        result = compute(*arrays)
    if np.isfinite(result).all():
        return result, 1.0
    scale = _power_of_two_scale(*arrays)
    return compute(*(arr / scale for arr in arrays)), scale


def _mean_sd_scale(arr: np.ndarray) -> tuple[float, float, float]:
    """(mean, sd, scale): ``_mean_var`` at the scale ``_rescaled`` picks, with the sd."""
    (mean, var), scale = _rescaled(_mean_var, arr)
    return mean, math.sqrt(var), scale


def _micro_average(scores: np.ndarray) -> float:
    """The mean of the scores by Python's left-to-right sum in their order
    (np.sum adds pairwise), at the scale ``_rescaled`` picks."""
    total, scale = _rescaled(lambda arr: sum(arr.tolist()), scores)
    return total / scores.size * scale


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
    # P(T > t) through the regularized incomplete beta function.  scipy is
    # imported here, on the first t-test, so that ``import ordsim`` loads
    # numpy only.
    from scipy.special import betainc

    x = df / (df + t * t)
    half_tail = 0.5 * float(betainc(df / 2.0, 0.5, x))
    return half_tail if t >= 0.0 else 1.0 - half_tail


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
    magnitudes = np.sort(np.concatenate((-ascending[:neg], positives)))
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
    tie_counts = np.diff(
        np.flatnonzero(np.concatenate(([True], magnitudes[1:] != magnitudes[:-1], [True])))
    )
    tie_term = float(np.sum(tie_counts.astype(np.float64) ** 3 - tie_counts)) / 48.0
    sigma = math.sqrt(n * (n + 1) * (2 * n + 1) / 24.0 - tie_term)
    if alternative == "greater":
        z = (v_stat - mu - 0.5) / sigma
        p = _norm_sf(z)
    else:
        shift = 0.5 * float(np.sign(v_stat - mu))
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
    """C(n, 0) + ... + C(n, m), by the exact recurrence C(n, i+1) = C(n, i) * (n-i) // (i+1)."""
    term = total = 1
    for i in range(m):
        term = term * (n - i) // (i + 1)
        total += term
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

    The effect size is Cohen's d_z = mean / sd of the differences.
    """
    _check_alternative(alternative)
    if d.n < 2:
        raise DegenerateInputError("paired t-test requires at least 2 differences")
    return _t_test(d._moments, d.n, alternative, "paired-t")


def _t_test(
    moments: tuple[float, float, float], n: int, alternative: str, name: str
) -> TestResult:
    """One-sample t-test against zero from the (mean, sd, scale) of n >= 2
    values, df = n - 1, with effect size mean / sd."""
    # mean / sd is the same at any scale.
    mean, sd, _ = moments
    if sd == 0.0:
        raise DegenerateInputError("paired t-test is undefined for constant differences")
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
    """Between-groups Cohen's d with the pooled standard deviation."""
    try:
        xa = np.asarray(a, dtype=np.float64)
        xb = np.asarray(b, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise DegenerateInputError(f"samples must be numeric: {exc}") from None
    if xa.ndim != 1 or xb.ndim != 1 or xa.size < 2 or xb.size < 2:
        raise DegenerateInputError("cohens_d_pooled requires two samples of size >= 2")
    if not (np.all(np.isfinite(xa)) and np.all(np.isfinite(xb))):
        raise DegenerateInputError("samples must be finite")
    # d is the same at any common scale of both samples.
    (gap, pooled), _ = _rescaled(_mean_gap_and_pooled_var, xa, xb)
    if pooled == 0.0:
        raise DegenerateInputError("pooled variance is zero")
    return gap / math.sqrt(pooled)


def _mean_gap_and_pooled_var(xa: np.ndarray, xb: np.ndarray) -> tuple[float, float]:
    mean_a, var_a = _mean_var(xa)
    mean_b, var_b = _mean_var(xb)
    na, nb = xa.size, xb.size
    return mean_a - mean_b, ((na - 1) * var_a + (nb - 1) * var_b) / (na + nb - 2)


def benjamini_hochberg(p_values: Sequence[float]) -> list[float]:
    """Benjamini-Hochberg step-up adjustment, returned in the input order.

    adjusted_i = min over j with p_j >= p_i of (m / rank_j) * p_j, capped at 1.
    Adjustment preserves the ordering of the raw p-values.
    """
    try:
        p = np.asarray(p_values, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise DegenerateInputError(f"p-values must be numeric: {exc}") from None
    if p.ndim != 1 or p.size == 0:
        raise DegenerateInputError("need a non-empty 1-d sequence of p-values")
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise DegenerateInputError("p-values must lie in [0, 1]")
    m = p.size
    order = np.argsort(p, kind="stable")
    scaled = p[order] * m / np.arange(1, m + 1)
    adjusted_sorted = np.minimum.accumulate(scaled[::-1])[::-1]
    adjusted_sorted = np.minimum(adjusted_sorted, 1.0)
    out = np.empty(m, dtype=np.float64)
    out[order] = adjusted_sorted
    return [float(x) for x in out]


def leave_one_dataset_out(d: PairedDiffs, alternative: str = "greater") -> TestResult:
    """Robustness check: one-sample t over per-dataset exclusion means.

    For each dataset label, take the mean difference over all cells NOT from
    that dataset; then t-test those exclusion means against zero with
    df = (number of datasets) - 1.
    """
    _check_alternative(alternative)
    index = d._datasets
    if index.n_datasets < 2:
        raise DegenerateInputError("leave-one-dataset-out requires >= 2 datasets")
    # The t statistic is the same at any scale of the differences.
    exclusion_means, _ = _rescaled(lambda arr: _exclusion_means(arr, index), d._values)
    return _t_test(_mean_sd_scale(exclusion_means), index.n_datasets, alternative, "lodo-t")


def _exclusion_means(arr: np.ndarray, index: _LodoIndex) -> np.ndarray:
    """For each dataset code, the mean of the values of the other datasets."""
    exclusion_means = np.empty(index.n_datasets)
    for rows, kept_index in index:
        exclusion_means[rows] = np.add.reduce(arr[kept_index], axis=1) / kept_index.shape[1]
    return exclusion_means


def _lodo_blocks(codes: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """leave_one_dataset_out's (rows, kept_index) blocks over dataset codes,
    built one at a time.

    Datasets with the same cell count keep the same number of cells, so each
    block's ``rows`` are datasets of one cell count, and row i of its
    ``kept_index`` lists, in order, the positions of the cells not in
    dataset rows[i].  A row's add.reduce of those cells adds in the order
    and grouping a 1-d add.reduce of the same cells does, so every mean is
    bit-identical to it.  Blocks hold at most _LODO_BLOCK_CELLS entries,
    whatever n is (one row each if n is more).
    """
    counts = np.bincount(codes)
    positions = np.arange(codes.size)
    step = max(1, _LODO_BLOCK_CELLS // codes.size)
    for count in sorted(set(counts.tolist())):
        group = np.flatnonzero(counts == count)
        for start in range(0, group.size, step):
            rows = group[start : start + step]
            keep = codes != rows[:, None]
            yield rows, np.broadcast_to(positions, keep.shape)[keep].reshape(rows.size, -1)


class _LodoIndex:
    """A column of dataset labels as codes, numbered in order of first
    appearance, and leave_one_dataset_out's blocks over them: iterating the
    index yields the (rows, kept_index) pairs.

    The first pass keeps the blocks, read-only, when they hold at most
    _LODO_BLOCK_CELLS entries in all (codes.size * (n_datasets - 1)), so a
    later test on the same codes reuses them: each ``compare`` with the same
    method as ``a`` on one results table.  Over that, every pass builds the
    blocks one at a time, as ``_lodo_blocks`` yields them, and keeps none.
    """

    __slots__ = ("codes", "n_datasets", "_kept")

    def __init__(self, labels: Sequence[Hashable]) -> None:
        names, self.codes = _encode(labels)
        self.n_datasets = len(names)
        self._kept: tuple[tuple[np.ndarray, np.ndarray], ...] | None = None

    def __iter__(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        if self._kept is None:
            blocks = _lodo_blocks(self.codes)
            if self.codes.size * (self.n_datasets - 1) > _LODO_BLOCK_CELLS:
                return blocks
            self._kept = tuple(blocks)
            for rows, kept_index in self._kept:
                rows.setflags(write=False)
                kept_index.setflags(write=False)
        return iter(self._kept)
