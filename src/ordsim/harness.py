"""Benchmark harness: score pair datasets and compare methods on a results table."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import CoverageMismatchError, InvalidVectorError
from .io import PairDataset, ResultsTable
from .metrics import MetricKind, similarity
# evaluate ranks through the private pair; spearman_rho stays importable
# here because perfbench/tracing.py wraps it at ordsim.harness.spearman_rho.
from .ranks import _centered_ranks, _rank_correlation, spearman_rho  # noqa: F401
from .stats import (
    DescriptiveStats,
    PairedDiffs,
    TestResult,
    _micro_average,
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
    dataset computes the row values its kind reads (row dots u.v, squared
    norms |u|^2 and |v|^2, recos' sorted dots) and gold's centered ranks
    once, on first use by a kind that needs them, 5n floats kept with it
    (its columns cannot be written, so they cannot go stale); each call
    reads them and scores all pairs in one vectorized pass, which makes no
    pass over the vectors once the values its kind needs are kept.  A
    branch row, where ``u.v == 0`` or the quotient is not finite, is scored
    by ``similarity`` itself, so it gets the same value or raises the same
    error as a per-pair loop would, before any error about gold.  A score
    that is not finite cannot be ranked: InvalidVectorError names its row
    and value.

    Deterministic: same dataset and metric always give the same report.
    """
    kind = MetricKind(metric)
    sims, branch = dataset._rows.similarities(kind)
    for i in np.flatnonzero(branch):
        sims[i] = similarity(kind, dataset.U[i], dataset.V[i])
    try:
        ranks = _centered_ranks(sims)
    except InvalidVectorError:
        # The ranker rejects a non-finite score; name the pair that made it.
        i = int(np.argmin(np.isfinite(sims)))
        raise InvalidVectorError(
            f"{kind.value} score of row {i} of dataset {dataset.name!r} "
            f"is not finite: {float(sims[i])!r}"
        ) from None
    rho = _rank_correlation(ranks, dataset._gold_ranks)
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
    codes, the score array, dataset codes and the micro-average.  The
    tests run in a's cell order; b's scores are reordered to it if needed,
    and the leave-one-dataset-out test reads the blocks the table keeps for
    a's dataset codes.
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
    if not np.array_equal(codes_a, codes_b):
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
        micro_avg_b = _micro_average(scores_b)
    # Scores above about 9e307 can differ by more than float64 holds; the
    # inf that makes is rejected by the tests below as a typed error.
    with np.errstate(over="ignore"):
        values = scores_a - scores_b
    diffs = PairedDiffs._from_columns(values, col_a.cells, col_a.datasets)
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
        pooled_d=cohens_d_pooled(scores_a, scores_b),
        bh_adjusted={
            "wilcoxon": adjusted[0],
            "sign": adjusted[1],
            "t_test": adjusted[2],
        },
        lodo=leave_one_dataset_out(diffs, alternative),
        micro_avg_a=col_a.micro_average,
        micro_avg_b=micro_avg_b,
    )
