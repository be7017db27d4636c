"""Benchmark harness: score pair datasets and compare methods on a results table."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import CoverageMismatchError
from .io import PairDataset, ResultsTable
from .metrics import MetricKind, _similarity_rows, similarity
from .ranks import spearman_rho
from .stats import (
    DescriptiveStats,
    PairedDiffs,
    TestResult,
    benjamini_hochberg,
    cohens_d_pooled,
    descriptive_stats,
    leave_one_dataset_out,
    paired_t_test,
    sign_test,
    wilcoxon_signed_rank,
)

__all__ = ["EvalReport", "ComparisonReport", "evaluate", "compare"]

# Rows scored per vectorized pass.  It caps the temporaries, such as the two
# sorted (rows, dim) copies recos makes, whatever the dataset's size.
_BLOCK_ROWS = 64


@dataclass(frozen=True)
class EvalReport:
    """Rank-correlation score of one metric on one pair dataset."""

    dataset: str
    metric: MetricKind
    rho_x100: float
    n_pairs: int


def evaluate(dataset: PairDataset, metric: MetricKind | str) -> EvalReport:
    """Score every pair in row order, then rank-correlate with gold.

    Pairs are scored from the dataset's columns in blocks of rows, one
    vectorized pass per block, and every score equals ``similarity(kind, u,
    v)`` of its pair bit for bit.  A row where the per-pair metric may take
    a branch (``u.v == 0``, a zero denominator or norm, or a non-finite dot
    or denominator) is scored by ``similarity`` itself, so it gets the same
    value or raises the same error as a per-pair loop would.

    Deterministic: same dataset and metric always give the same report.
    """
    kind = MetricKind(metric)
    sims = np.empty(dataset.n)
    for start in range(0, dataset.n, _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        block, scalar = _similarity_rows(kind, dataset.U[rows], dataset.V[rows])
        for i in np.flatnonzero(scalar):
            block[i] = similarity(kind, dataset.U[start + i], dataset.V[start + i])
        sims[rows] = block
    rho = spearman_rho(sims, dataset.gold)
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
    tests run in a's cell order; b's scores are reordered to it if needed.
    """
    col_a = results._method_columns(a)
    col_b = results._method_columns(b)
    if col_a is None:
        raise CoverageMismatchError(f"no cells for method {a!r}")
    if col_b is None:
        raise CoverageMismatchError(f"no cells for method {b!r}")
    scores_a, scores_b = col_a.scores, col_b.scores
    micro_avg_b = col_b.micro_average
    if not np.array_equal(col_a.cell_codes, col_b.cell_codes):
        keys, keys_b = col_a.cells, col_b.cells
        only_a = len(set(keys) - set(keys_b))
        only_b = len(set(keys_b) - set(keys))
        if only_a or only_b:
            raise CoverageMismatchError(
                f"methods {a!r} and {b!r} cover different cells: "
                f"{only_a} only in {a!r}, {only_b} only in {b!r}"
            )
        # The same cells in another order: line b's scores up with a's cells.
        position = {cell: i for i, cell in enumerate(keys_b)}
        scores_b = scores_b[[position[cell] for cell in keys]]
        # Python's left-to-right sum in a's cell order: np.sum adds pairwise.
        micro_avg_b = sum(scores_b.tolist()) / len(keys)
    diffs = PairedDiffs._from_columns(scores_a - scores_b, col_a.cells, col_a.datasets)
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
