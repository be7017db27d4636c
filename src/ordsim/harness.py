"""Benchmark harness: score pair datasets and compare methods on a results table."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import CoverageMismatchError, DegenerateInputError, InvalidVectorError
from .io import PairDataset, ResultsTable, _MethodColumns
from .metrics import MetricKind, _metric_kind, similarity
# evaluate ranks through dataset._ranked; spearman_rho stays importable
# here because perfbench/tracing.py wraps it at ordsim.harness.spearman_rho.
from .ranks import spearman_rho  # noqa: F401
from .stats import (
    DescriptiveStats,
    PairedDiffs,
    TestResult,
    _PEAK_LIMIT,
    _gap_and_pooled_var,
    _micro_average,
    _pooled_d,
    benjamini_hochberg,
    cohens_d_pooled,
    descriptive_stats,
    leave_one_dataset_out,
    paired_t_test,
    sign_test,
    wilcoxon_signed_rank,
)

__all__ = ["EvalReport", "ComparisonReport", "evaluate", "compare"]

@dataclass(frozen=True)
class EvalReport:
    """Rank-correlation score of one metric on one pair dataset."""

    dataset: str
    metric: MetricKind
    rho_x100: float
    n_pairs: int


def evaluate(dataset: PairDataset, metric: MetricKind | str) -> EvalReport:
    """Score every pair in row order, then rank-correlate with gold.

    Every score equals ``similarity(kind, u, v)`` of its pair bit for bit,
    and the report equals ``spearman_rho`` of those scores and gold.  The
    dataset computes the values a kind reads (row dots u.v and whether one
    is zero, squared norms |u|^2 and |v|^2, recos' sorted dots, and the
    ``ranks._Ranked`` of gold: its centered ranks and those of n tie-free
    scores) once, on first use, 6n floats and one flag kept with it (its
    columns cannot be written, so they cannot go stale); each call divides
    them into the row quotients, sorts those once and tests the sorted ends,
    which makes no pass over the vectors once the values its kind needs are
    kept.  A branch row, where ``u.v == 0`` or the quotient is not finite,
    is scored by ``similarity`` itself, so it gets the same value or raises
    the same error as a per-pair loop would, before any error about gold.
    Only a dataset with a branch row runs that repair, and only ends past
    +/-1 clip; clipping is monotone, so it keeps the sort (see
    ``_RowValues.sorted_scores``).  A score that is not finite cannot be
    ranked: InvalidVectorError names its row and value.  Scores that are all
    equal, or else a constant gold, raise DegenerateInputError naming the
    dataset and that side.

    The scores are never ranked in row order: gold's ``_Ranked.rho`` dots
    their centered ranks in sorted order with gold's kept centered ranks
    gathered into that order.  Sorted scores with no two neighbours equal
    read their centered ranks and sum of squares from it; only tied scores
    build them from their tie groups.  For n <= 2^18 pairs every sum of it
    is exact, so the report is bit-identical to one from ranks in row
    order; above that it agrees to within rounding (see ``spearman_rho``).

    Deterministic: same dataset and metric always give the same report.
    """
    kind = _metric_kind(metric)
    # Branch rows are rescored through this module's ``similarity``, the
    # name perfbench/tracing.py wraps.
    sims, order, ordered = dataset._rows.sorted_scores(
        kind, lambda i: similarity(kind, dataset.U[i], dataset.V[i])
    )
    if not (math.isfinite(ordered[0]) and math.isfinite(ordered[-1])):
        # The sort puts -inf first and inf and NaN last; name the first row.
        i = int(np.argmin(np.isfinite(sims)))
        raise InvalidVectorError(
            f"{kind.value} score of row {i} of dataset {dataset.name!r} "
            f"is not finite: {float(sims[i])!r}"
        )
    try:
        rho = dataset._ranked.rho(order, ordered)
    except DegenerateInputError as exc:
        # The one error it raises: one side is constant.  Name which.
        if ordered[0] == ordered[-1]:
            side = f"{kind.value} scores of dataset {dataset.name!r} are all equal"
        else:
            side = f"gold of dataset {dataset.name!r} is constant"
        raise DegenerateInputError(f"{side}: {exc}") from None
    return EvalReport(
        dataset=dataset.name,
        metric=kind,
        rho_x100=100.0 * rho,
        n_pairs=dataset.n,
    )


@dataclass(frozen=True)
class ComparisonReport:
    """Full paired comparison of two methods over shared (model, dataset) cells."""

    method_a: str
    method_b: str
    descriptive: DescriptiveStats
    wilcoxon: TestResult
    sign: TestResult
    t_test: TestResult
    pooled_d: float
    bh_adjusted: Mapping[str, float]
    lodo: TestResult
    micro_avg_a: float
    micro_avg_b: float


def compare(
    results: ResultsTable, a: str, b: str, alternative: str = "greater"
) -> ComparisonReport:
    """Compare method ``a`` against method ``b`` cell by cell.

    Both methods must cover exactly the same (model, dataset) cells.  Scores
    are parsed from at most 2 fraction digits, so equal scores subtract to
    exactly 0.0 and are counted as ties; unequal scores are differenced in
    double precision.  Raises DegenerateInputError (from the rank tests)
    when every cell is tied.

    The comparison reads the columns the table built once per method: cell
    codes, the score array and its peak magnitude, dataset codes and counts
    and the micro-average, and the mean and variance of the scores that
    each method keeps once computed.  The tests run in a's cell order.
    Methods in one cell order share one cell codes array, so b's scores are
    reordered to a's cells exactly when the two arrays are not the same
    object.  The diffs are sorted once, when they are made, and a
    non-finite difference (two scores above about 9e307 apart) shows at the
    sorted copy's ends.  The leave-one-dataset-out test sums the
    differences over a's dataset codes, with a's dataset counts.  Every
    sum is taken at the scale that its values' peak decides (see
    ``ordsim.stats``).  The pooled d comes from the two kept means and
    variances where b was not reordered and both peaks are below the
    limit from which sums are rescaled; else ``cohens_d_pooled`` computes
    it from the scores.
    """
    col_a = results._method_columns(a)
    col_b = results._method_columns(b)
    if col_a is None:
        raise CoverageMismatchError(f"no cells for method {a!r}")
    if col_b is None:
        raise CoverageMismatchError(f"no cells for method {b!r}")
    scores_a, scores_b = col_a.scores, col_b.scores
    codes_a, codes_b = col_a.cell_codes, col_b.cell_codes
    micro_avg_b = col_b.micro_average
    # A table's methods with equal cell codes share one array of them.
    reordered = codes_a is not codes_b
    if reordered:
        # A method holds each cell code once: b's position of each of a's
        # cells, or -1 where b lacks it.
        position = np.full(max(codes_a.max(), codes_b.max()) + 1, -1)
        position[codes_b] = np.arange(codes_b.size)
        order = position[codes_a]
        only_a = int(np.count_nonzero(order < 0))
        only_b = codes_b.size - (codes_a.size - only_a)
        if only_a or only_b:
            raise CoverageMismatchError(
                f"methods {a!r} and {b!r} cover different cells: "
                f"{only_a} only in {a!r}, {only_b} only in {b!r}"
            )
        # The same cells in another order: line b's scores up with a's cells.
        scores_b = scores_b[order]
        micro_avg_b = _micro_average(scores_b, col_b.peak)
    # Scores above about 9e307 can differ by more than float64 holds; the
    # inf that makes is rejected by _from_columns as a typed error.
    with np.errstate(over="ignore"):
        values = scores_a - scores_b
    diffs = PairedDiffs._from_columns(
        values, lambda: col_a.cells, col_a.datasets, col_a.dataset_counts
    )
    wil = wilcoxon_signed_rank(diffs, alternative)
    sgn = sign_test(diffs, alternative)
    t = paired_t_test(diffs, alternative)
    adjusted = benjamini_hochberg([wil.p_value, sgn.p_value, t.p_value])
    return ComparisonReport(
        method_a=a,
        method_b=b,
        descriptive=descriptive_stats(diffs),
        wilcoxon=wil,
        sign=sgn,
        t_test=t,
        pooled_d=_pooled_d_of_columns(col_a, col_b, scores_b, reordered),
        bh_adjusted={
            "wilcoxon": adjusted[0],
            "sign": adjusted[1],
            "t_test": adjusted[2],
        },
        lodo=leave_one_dataset_out(diffs, alternative),
        micro_avg_a=col_a.micro_average,
        micro_avg_b=micro_avg_b,
    )


def _pooled_d_of_columns(
    col_a: _MethodColumns, col_b: _MethodColumns, scores_b: np.ndarray, reordered: bool
) -> float:
    """``cohens_d_pooled(col_a.scores, scores_b)`` bit for bit, where
    ``scores_b`` are b's scores in a's cell order, for the at least 2
    differences, not all equal, that ``paired_t_test`` has accepted.

    Where b's scores were not reordered and both peaks are below
    ``_PEAK_LIMIT``, the call would take the means and variances at scale
    1.0, and those are the ones the two methods keep: d is made from them
    here.  Scores in hundredths give a pooled variance of exactly 0 or far
    above the smallest normal float, so the call's underflow rescaling
    never applies.
    """
    if not reordered and max(col_a.peak, col_b.peak) < _PEAK_LIMIT:
        n = col_a.scores.size
        return _pooled_d(*_gap_and_pooled_var(col_a.mean_var, n, col_b.mean_var, n))
    return cohens_d_pooled(col_a.scores, scores_b)
